"""Collective-spin analogue of the beam-splitter interference zeros.

Two bosonic modes carrying n and m photons map onto an angular-momentum
state |J, M> with J = (n + m)/2 and M = (n - m)/2; the beam splitter acts as
a rotation by the mixing angle, so its amplitudes are Wigner (small) d-matrix
elements.  All central zeros of the photon-number distribution reappear as
vanishing rotation amplitudes of symmetric Dicke states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bs_core import BALANCED, BeamSplitterSetting, amplitude_block, bs_prob_exact


@dataclass(frozen=True)
class AngularState:
    """|J, M> stored as doubled integers so half-integer spin stays exact."""

    twice_j: int
    twice_m: int

    def __post_init__(self):
        if self.twice_j < 0:
            raise ValueError("J must be non-negative")
        if abs(self.twice_m) > self.twice_j:
            raise ValueError("|M| must not exceed J")
        if (self.twice_j - self.twice_m) % 2:
            raise ValueError("J - M must be an integer")

    @classmethod
    def make(cls, j, m) -> "AngularState":
        tj, tm = Fraction(j) * 2, Fraction(m) * 2
        if tj.denominator != 1 or tm.denominator != 1:
            raise ValueError("J and M must be integers or half-integers")
        return cls(twice_j=int(tj), twice_m=int(tm))

    @property
    def j(self) -> Fraction:
        return Fraction(self.twice_j, 2)

    @property
    def m(self) -> Fraction:
        return Fraction(self.twice_m, 2)

    def to_fock_pair(self) -> tuple[int, int]:
        """(n, m) photon numbers: n = J + M, m = J - M."""
        return ((self.twice_j + self.twice_m) // 2,
                (self.twice_j - self.twice_m) // 2)


def jm_to_fock(j, m) -> tuple[int, int]:
    """Photon numbers (n, m) of the two-mode image of |J, M>."""
    return AngularState.make(j, m).to_fock_pair()


def fock_to_jm(n: int, m: int) -> AngularState:
    """Angular-momentum image of the photon pair (n, m)."""
    if n < 0 or m < 0:
        raise ValueError("photon numbers must be non-negative")
    return AngularState(twice_j=n + m, twice_m=n - m)


def wigner_d(j, m_out, m_in, bs: BeamSplitterSetting) -> float:
    """Wigner small-d element d^J_{M', M}(theta) = <J, M'| exp(-i theta Jy) |J, M>
    at the mixing angle of ``bs``: the entry U_2J[J + M', J + M] of the
    beam-splitter block."""
    src = AngularState.make(j, m_in)
    p = AngularState.make(j, m_out).to_fock_pair()[0]
    return float(amplitude_block(bs, src.twice_j)[p, src.to_fock_pair()[0]])


def central_probability_exact(j, m_in, t) -> Fraction:
    """Exact-rational P(M' = 0) at rational transmittance t (integer J)."""
    src = AngularState.make(j, m_in)
    if src.twice_j % 2:
        raise ValueError("M' = 0 requires integer J")
    # the measured pair (J, J) carries the input's 2J photons
    half = src.twice_j // 2
    return bs_prob_exact(src.to_fock_pair()[0], half, half, t)


def central_zero_sweep(j_max: int, bs: BeamSplitterSetting = BALANCED) -> list[float]:
    """P(M' = 0) of the input |J, 0> for integer J = 0 .. j_max.

    d^J_00(theta) is the Legendre polynomial P_J(x) at x = cos(theta) = T - R,
    so the sweep follows (J+1) P_(J+1) = (2J+1) x P_J - J P_(J-1) from
    P_0 = 1, and each probability is P_J * P_J.  At T = 1/2, x is exactly 0.0
    and every odd J gives 0.0."""
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    x = float(bs.transmittance - bs.reflectance)
    sweep = []
    prev, cur = 0.0, 1.0
    for j in range(j_max + 1):
        sweep.append(cur * cur)
        prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
    return sweep
