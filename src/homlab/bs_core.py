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
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only; numpy is imported by amplitude_blocks
    import numpy as np


@dataclass(frozen=True)
class BeamSplitterSetting:
    """Either an exact rational transmittance or a floating mixing angle.

    Exactly one of ``exact_t`` / ``theta`` is set.  Exact settings keep T and
    R as Fractions so downstream polynomial evaluation stays exact.
    """

    exact_t: Fraction | None = None
    theta: float | None = None

    def __post_init__(self):
        if (self.exact_t is None) == (self.theta is None):
            raise ValueError("specify exactly one of exact_t or theta")
        if self.exact_t is not None and not (0 <= self.exact_t <= 1):
            raise ValueError("transmittance must lie in [0, 1]")
        if self.theta is not None and not (0.0 <= self.theta <= math.pi):
            raise ValueError("theta must lie in [0, pi]")

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


def amplitude_blocks(bs: BeamSplitterSetting, s_max: int):
    """Yield the orthogonal blocks U_s of :func:`amplitude_block` (the Wigner
    matrices d^{s/2}(theta)) for s = 0 .. s_max, keeping only the last one.

    Each block adds a photon to the previous one,
    |n, s-n> = (sqrt(n) a^dag |n-1, s-n> + sqrt(s-n) b^dag |n, s-n-1>) / s,
    with a^dag -> c a^dag + s_t b^dag and b^dag -> -s_t a^dag + c b^dag.
    Every weight is at most 1, so rounding errors do not grow.  At T = 1/2
    the mirror symmetry U_s[s-p, n] = (-1)^(s-n) U_s[p, n] holds bit for bit,
    so the central zeros come out as exact 0.0.
    """
    import numpy as np
    c, sn = bs.cos_half, bs.sin_half
    u = np.ones((1, 1))
    for s in range(s_max + 1):
        if s:
            root = np.sqrt(np.arange(s + 1.0))
            up = np.zeros((s + 1, s))    # up[p] = sqrt(p) U_{s-1}[p-1]
            up[1:] = root[1:, None] * u
            down = np.zeros((s + 1, s))  # down[p] = sqrt(s-p) U_{s-1}[p]
            down[:-1] = root[:0:-1, None] * u
            u = np.zeros((s + 1, s + 1))
            u[:, 1:] = (c * up + sn * down) * root[1:]       # a^dag images
            u[:, :-1] += (c * down - sn * up) * root[:0:-1]  # b^dag images
            u /= s
        yield u


def amplitude_block(bs: BeamSplitterSetting, s: int) -> np.ndarray:
    """The s-photon block of the splitter, U_s[p, n] = <p, s-p| B |n, s-n>:
    entry [p, n] is the amplitude f^(n, s-n)_p of |p, s-p> in the
    transformed input |n, s-n>.  Every single amplitude is read from here."""
    if s < 0:
        raise ValueError("photon number must be non-negative")
    for u in amplitude_blocks(bs, s):
        pass
    return u


def measured_amplitude(n: int, m_a: int, m_b: int, bs: BeamSplitterSetting) -> float:
    """f^(n, m_a+m_b-n)_{m_a}: amplitude to measure (m_a, m_b) given the
    a-mode Fock input |n> (b-mode photon number fixed by conservation).
    Returns 0 when m_a + m_b < n."""
    if min(n, m_a, m_b) < 0:
        raise ValueError("photon numbers must be non-negative")
    if m_a + m_b < n:
        return 0.0
    return float(amplitude_block(bs, m_a + m_b)[m_a, n])


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
