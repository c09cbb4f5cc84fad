"""Beam-splitter settings and amplitudes.

Convention: a beam splitter of mixing angle theta (0 <= theta <= pi) has
transmittance T = cos^2(theta/2) and reflectance R = sin^2(theta/2); the
b-mode reflection carries the minus sign, so the balanced setting theta = pi/2
sends |1,1> to (|0,2> - |2,0>)/sqrt(2).

Float amplitudes come from the orthogonal blocks of :func:`amplitude_blocks`,
which stay accurate at any photon number.  Exact probabilities at rational T
are read from the zero polynomial g of :mod:`homlab.nodal` by
:func:`bs_prob_exact`, which loads that module on first use.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction


class BeamSplitterSetting(namedtuple("BeamSplitterSetting", "exact_t theta")):
    """Either an exact rational transmittance or a floating mixing angle.

    Exactly one of ``exact_t`` / ``theta`` is set.  Exact settings keep T and
    R as Fractions so downstream polynomial evaluation stays exact.
    """

    __slots__ = ()

    def __new__(cls, exact_t: Fraction | None = None, theta: float | None = None):
        if (exact_t is None) == (theta is None):
            raise ValueError("specify exactly one of exact_t or theta")
        if exact_t is not None and not (0 <= exact_t <= 1):
            raise ValueError("transmittance must lie in [0, 1]")
        if theta is not None and not (0.0 <= theta <= math.pi):
            raise ValueError("theta must lie in [0, pi]")
        return super().__new__(cls, exact_t, theta)

    @classmethod
    def from_transmittance(cls, t) -> "BeamSplitterSetting":
        return cls(exact_t=Fraction(t))

    @classmethod
    def from_angle(cls, theta: float) -> "BeamSplitterSetting":
        return cls(theta=float(theta))

    @classmethod
    def parse(cls, text: str) -> "BeamSplitterSetting":
        """Parse "1/2", "3/4" (exact) or "theta=1.0472" (angle, radians)."""
        text = text.strip()
        if text.startswith("theta="):
            return cls.from_angle(float(text[len("theta="):]))
        try:
            return cls.from_transmittance(Fraction(text))
        except ZeroDivisionError:
            raise ValueError("the denominator is 0") from None

    @property
    def is_exact(self) -> bool:
        return self.exact_t is not None

    @property
    def transmittance(self) -> Fraction | float:
        """T = cos^2(theta/2); Fraction in exact mode, float otherwise."""
        if self.exact_t is not None:
            return self.exact_t
        return math.cos(self.theta / 2) ** 2

    @property
    def reflectance(self) -> Fraction | float:
        if self.exact_t is not None:
            return 1 - self.exact_t
        return math.sin(self.theta / 2) ** 2

    @property
    def cos_half(self) -> float:
        if self.exact_t is not None:
            return math.sqrt(float(self.exact_t))
        return math.cos(self.theta / 2)

    @property
    def sin_half(self) -> float:
        if self.exact_t is not None:
            return math.sqrt(float(1 - self.exact_t))
        return math.sin(self.theta / 2)


#: 50:50 configuration, T = R = 1/2 exactly
BALANCED = BeamSplitterSetting.from_transmittance(Fraction(1, 2))


def amplitude_blocks(bs: BeamSplitterSetting, s_max: int, dims: tuple[int, int] | None = None):
    """Yield the orthogonal s-photon blocks of the splitter (the Wigner
    matrices d^{s/2}(theta)) for s = 0 .. s_max, keeping only the last one:
    U_s[p, n] = <p, s-p| B |n, s-n> is the amplitude f^(n, s-n)_p of |p, s-p>
    in the transformed input |n, s-n>.

    Each block adds a photon to the previous one,
    |n, s-n> = (sqrt(n) a^dag |n-1, s-n> + sqrt(s-n) b^dag |n, s-n-1>) / s,
    with a^dag -> c a^dag + s_t b^dag and b^dag -> -s_t a^dag + c b^dag.
    Every weight is at most 1, so rounding errors do not grow.  At T = 1/2
    the mirror symmetry U_s[s-p, n] = (-1)^(s-n) U_s[p, n] holds bit for bit,
    so the central zeros come out as exact 0.0.

    With input dims ``(dim_a, dim_b)``, block s holds only the band of
    columns n = max(0, s - dim_b + 1) .. min(dim_a - 1, s) of the inputs
    |n, s-n> (s_max <= dim_a + dim_b - 2).  Column n reads only columns n-1
    and n of U_{s-1}, so each band keeps the bits of the full block's columns.
    """
    import numpy as np
    dim_a, dim_b = dims or (s_max + 1, s_max + 1)
    c, sn = bs.cos_half, bs.sin_half
    lo, u = 0, np.ones((1, 1))
    for s in range(s_max + 1):
        if s:
            top = lo + u.shape[1]  # U_{s-1} holds the columns lo .. top-1
            root = np.sqrt(np.arange(s + 1.0))
            up = np.zeros((s + 1, top - lo))    # up[p] = sqrt(p) U_{s-1}[p-1]
            up[1:] = root[1:, None] * u
            down = np.zeros((s + 1, top - lo))  # down[p] = sqrt(s-p) U_{s-1}[p]
            down[:-1] = root[:0:-1, None] * u
            u = np.zeros((s + 1, top - lo + 1))  # columns lo .. top of U_s
            u[:, 1:] = (c * up + sn * down) * root[lo + 1:top + 1]       # a^dag images
            u[:, :-1] += (c * down - sn * up) * root[s - lo:s - top:-1]  # b^dag images
            # column lo > 0 lacks its a^dag image and column top < s its b^dag
            # image; neither is in the band of U_s
            new = max(0, s - dim_b + 1)
            u = u[:, new - lo:min(dim_a, s + 1) - lo] / s
            lo = new
        yield u


def measured_amplitude(n: int, m_a: int, m_b: int, bs: BeamSplitterSetting) -> float:
    """f^(n, m_a+m_b-n)_{m_a}: amplitude to measure (m_a, m_b) given the
    a-mode Fock input |n> (b-mode photon number fixed by conservation).
    Returns 0 when m_a + m_b < n."""
    if min(n, m_a, m_b) < 0:
        raise ValueError("photon numbers must be non-negative")
    if m_a + m_b < n:
        return 0.0
    for u in amplitude_blocks(bs, m_a + m_b, (n + 1, m_a + m_b - n + 1)):
        pass
    return float(u[m_a, 0])


def bs_prob_exact(n: int, m_a: int, m_b: int, t) -> Fraction:
    """Exact output probability |f^(n, m)_{m_a}|^2 of measuring (m_a, m_b)
    from the input |n, m>, m = m_a + m_b - n, at rational transmittance t.

    It is read from the zero polynomial g of :mod:`homlab.nodal`,

        P = m! / (n! m_a! m_b!) T^(m_b - n) R^(m_a - n) g(m_a, m_b | n)^2,

    so P is 0 exactly where g is: this certifies that a zero is literal.
    """
    from .nodal import _g_int, _int_weights
    num, rnum, scale = _int_weights(n, t)
    m = m_a + m_b - n
    if m < 0:
        return Fraction(0)
    # the factorials also reject negative photon numbers at T = 0 and 1
    norm = Fraction(math.factorial(m),
                    math.factorial(n) * math.factorial(m_a) * math.factorial(m_b))
    if num == 0 or rnum == 0:
        # the powers of T or R go negative; |n, m> leaves as |m, n> or |n, m>
        return Fraction((m_b if num == 0 else m_a) == n)
    t = Fraction(t)
    return norm * t ** (m_b - n) * (1 - t) ** (m_a - n) \
        * Fraction(_g_int(m_a, m_b, n, num, rnum), scale) ** 2
