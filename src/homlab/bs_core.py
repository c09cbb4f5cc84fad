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
from collections import deque, namedtuple
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


def band(s: int, d_a: int, d_b: int) -> range:
    """The photon numbers k of the pairs |k, s-k> with k < d_a and s-k < d_b."""
    return range(max(0, s - d_b + 1), min(d_a, s + 1))


def amplitude_blocks(bs: BeamSplitterSetting, s_max: int, dims: tuple[int, int] | None = None,
                     window: tuple[int, int] | None = None):
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

    Block s holds only the rows p in ``band(s, *window)`` of the outputs
    |p, s-p> and the columns n in ``band(s, *dims)`` of the inputs |n, s-n>,
    all s + 1 by default (s_max <= d_a + d_b - 2 for both).  Row p of U_s
    reads rows p-1 and p of U_{s-1} only, and column n columns n-1 and n, so
    each band closes under the recurrence and keeps the full block's bits.
    """
    import numpy as np
    dims, window = dims or (s_max + 1,) * 2, window or (s_max + 1,) * 2
    c, sn, root = bs.cos_half, bs.sin_half, np.sqrt(np.arange(s_max + 1.0))
    # U_s between zero rows: its rows -1 and s + 1, where the window reaches them
    rows, cols, padded = range(1), range(1), np.array([[0.0], [1.0], [0.0]])
    for s in range(s_max + 1):
        if s:
            new, lo, toor = band(s, *window), cols.start, root[s::-1]  # toor[k] = sqrt(s-k)
            prev = padded[new.start - rows.start:]  # from row new.start-1 of U_{s-1}
            up = root[new.start:new.stop, None] * prev[:len(new)]          # sqrt(p) U_{s-1}[p-1]
            down = toor[new.start:new.stop, None] * prev[1:len(new) + 1]  # sqrt(s-p) U_{s-1}[p]
            u = np.zeros((len(new) + 2, len(cols) + 1))  # columns lo .. cols.stop of U_s
            u[1:-1, 1:] = (c * up + sn * down) * root[lo + 1:cols.stop + 1]  # a^dag images
            u[1:-1, :-1] += (c * down - sn * up) * toor[lo:cols.stop]       # b^dag images
            # column lo > 0 lacks its a^dag image, column cols.stop < s its b^dag one: both go
            rows, cols = new, band(s, *dims)
            padded = u[:, cols.start - lo:cols.stop - lo] / s
        yield padded[1:-1]


def measured_amplitude(n: int, m_a: int, m_b: int, bs: BeamSplitterSetting) -> float:
    """f^(n, m_a+m_b-n)_{m_a}: amplitude to measure (m_a, m_b) given the
    a-mode Fock input |n> (b-mode photon number fixed by conservation).
    Returns 0 when m_a + m_b < n."""
    if min(n, m_a, m_b) < 0:
        raise ValueError("photon numbers must be non-negative")
    if m_a + m_b < n:
        return 0.0
    blocks = amplitude_blocks(bs, m_a + m_b, (n + 1, m_a + m_b - n + 1), (m_a + 1, m_b + 1))
    return float(deque(blocks, maxlen=1)[0][0, 0])  # the last block is 1 x 1


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
