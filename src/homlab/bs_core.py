"""Beam-splitter amplitudes and the alternating falling-factorial polynomial.

Convention: a beam splitter of mixing angle theta (0 <= theta <= pi) has
transmittance T = cos^2(theta/2) and reflectance R = sin^2(theta/2); the
b-mode reflection carries the minus sign, so the balanced setting theta = pi/2
sends |1,1> to (|0,2> - |2,0>)/sqrt(2).

All zeros of the post-measurement amplitude live in the polynomial

    g(m_a, m_b | n) = sum_q C(n,q) (-1)^q (m_a)_{n-q} T^{n-q} (m_b)_q R^q,

which has rational value whenever T is rational: this is what makes exact
certification of destructive-interference zeros possible.  Float amplitudes
do not use it: they come from the orthogonal blocks of
:func:`amplitude_blocks`, which stay accurate at any photon number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import Real, binomial, falling_factorial, parse_fraction


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
        return cls.from_transmittance(parse_fraction(text))

    @property
    def is_exact(self) -> bool:
        return self.exact_t is not None

    @property
    def transmittance(self) -> Real:
        """T = cos^2(theta/2); Fraction in exact mode, float otherwise."""
        if self.exact_t is not None:
            return self.exact_t
        return math.cos(self.theta / 2) ** 2

    @property
    def reflectance(self) -> Real:
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

    @property
    def angle(self) -> float:
        if self.theta is not None:
            return self.theta
        return 2.0 * math.atan2(self.sin_half, self.cos_half)


#: 50:50 configuration, T = R = 1/2 exactly
BALANCED = BeamSplitterSetting.from_transmittance(Fraction(1, 2))


def g_poly(m_a: int, m_b: int, n: int, bs: BeamSplitterSetting) -> Real:
    """The alternating falling-factorial sum carrying all amplitude zeros.

    Returns an exact Fraction when ``bs`` is exact, a float otherwise.  The
    Kronecker factor matching total photon number is the caller's
    responsibility; this is the bare sum.
    """
    if m_a < 0 or m_b < 0 or n < 0:
        raise ValueError("arguments must be non-negative")
    t = bs.transmittance
    r = bs.reflectance
    total = Fraction(0) if bs.is_exact else 0.0
    for q in range(n + 1):
        term = binomial(n, q) * falling_factorial(m_a, n - q) * falling_factorial(m_b, q)
        if term == 0:
            continue
        if q % 2:
            term = -term
        total = total + term * t ** (n - q) * r ** q
    return total


def amplitude_blocks(bs: BeamSplitterSetting, s_max: int):
    """Yield the orthogonal blocks U_s[p, n] = <p, s-p| B |n, s-n> (the Wigner
    matrices d^{s/2}(theta)) for s = 0 .. s_max, keeping only the last one.

    Each block adds a photon to the previous one,
    |n, s-n> = (sqrt(n) a^dag |n-1, s-n> + sqrt(s-n) b^dag |n, s-n-1>) / s,
    with a^dag -> c a^dag + s_t b^dag and b^dag -> -s_t a^dag + c b^dag.
    Every weight is at most 1, so rounding errors do not grow.  At T = 1/2
    the mirror symmetry U_s[s-p, n] = (-1)^(s-n) U_s[p, n] holds bit for bit,
    so the central zeros come out as exact 0.0.
    """
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
    """The single block U_s of :func:`amplitude_blocks`."""
    for u in amplitude_blocks(bs, s):
        pass
    return u


def bs_coefficient(n: int, m: int, p: int, bs: BeamSplitterSetting) -> float:
    """Amplitude f^(n,m)_p of |p, n+m-p> in the transformed basis state |n, m>."""
    if n < 0 or m < 0:
        raise ValueError("photon numbers must be non-negative")
    if not (0 <= p <= n + m):
        raise ValueError(f"p={p} outside [0, {n + m}]")
    return float(amplitude_block(bs, n + m)[p, n])


def measured_amplitude(n: int, m_a: int, m_b: int, bs: BeamSplitterSetting) -> float:
    """f^(n, m_a+m_b-n)_{m_a}: amplitude to measure (m_a, m_b) given the
    a-mode Fock input |n> (b-mode photon number fixed by conservation).
    Returns 0 when m_a + m_b < n."""
    m = m_a + m_b - n
    if m < 0:
        return 0.0
    return bs_coefficient(n, m, m_a, bs)


def bs_prob_exact(n: int, m_a: int, m_b: int, t) -> Fraction:
    """Exact output probability |f^(n, m_a+m_b-n)_{m_a}|^2 at rational
    transmittance t.

    Every square root in the amplitude appears squared here, so the result is
    an exact Fraction; used to certify that interference zeros are literal.
    """
    t = Fraction(t)
    if not (0 <= t <= 1):
        raise ValueError("transmittance must lie in [0, 1]")
    r = 1 - t
    m = m_a + m_b - n
    if m < 0:
        return Fraction(0)
    p = m_a
    norm = Fraction(math.factorial(p) * math.factorial(n + m - p),
                    math.factorial(n) * math.factorial(m))
    # amplitude = norm^(1/2) * sum_q t_q c^a_q s^b_q; pairwise products have
    # even trig powers, hence exact T/R monomials
    terms = []
    for q in range(max(0, p - m), min(n, p) + 1):
        coeff = binomial(n, q) * binomial(m, p - q) * (-1) ** (p - q)
        terms.append((coeff, m + 2 * q - p, n + p - 2 * q))
    total = Fraction(0)
    for c1, a1, b1 in terms:
        for c2, a2, b2 in terms:
            total += c1 * c2 * t ** ((a1 + a2) // 2) * r ** ((b1 + b2) // 2)
    return norm * total


def transform_fock_pair(n: int, m: int, bs: BeamSplitterSetting) -> np.ndarray:
    """Amplitude vector over p in [0, n+m] for the transformed state |n, m>."""
    if n < 0 or m < 0:
        raise ValueError("photon numbers must be non-negative")
    return amplitude_block(bs, n + m)[:, n].copy()


def cos_factor_residual(m_prime: int, n: int, bs: BeamSplitterSetting) -> Real:
    """Residual Q such that (T - R) * Q = g_poly(m', m', n, bs) for odd n.

    The diagonal polynomial always factors as (T - R) times this residual,
    which is the algebraic origin of the contiguous diagonal zeros at the
    balanced setting.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    x = bs.transmittance
    y = bs.reflectance
    total = Fraction(0) if bs.is_exact else 0.0
    for q in range((n - 1) // 2 + 1):
        coeff = (binomial(n, q) * (-1) ** q
                 * falling_factorial(m_prime, n - q) * falling_factorial(m_prime, q))
        if coeff == 0:
            continue
        inner = Fraction(0) if bs.is_exact else 0.0
        for k in range(1, n - 2 * q + 1):
            inner = inner + x ** (n - 2 * q - k) * y ** (k - 1)
        total = total + coeff * x ** q * y ** q * inner
    return total
