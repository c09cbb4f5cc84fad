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

import numpy as np

from .bs_core import (BALANCED, BeamSplitterSetting, amplitude_block,
                      amplitude_blocks, bs_prob_exact)


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
    dst = AngularState.make(j, m_out)
    if src.twice_j != dst.twice_j:
        raise ValueError("M' and M must belong to the same J")
    n = src.to_fock_pair()[0]
    p = dst.to_fock_pair()[0]
    return float(amplitude_block(bs, src.twice_j)[p, n])


def rotation_distribution(j, m_in, bs: BeamSplitterSetting) -> dict[Fraction, float]:
    """Probability of each M' after rotating |J, M_in> by the mixing angle."""
    src = AngularState.make(j, m_in)
    tj = src.twice_j
    column = amplitude_block(bs, tj)[:, src.to_fock_pair()[0]]
    return {Fraction(2 * p - tj, 2): float(column[p]) ** 2 for p in range(tj + 1)}


def central_probability(j, m_in, bs: BeamSplitterSetting = BALANCED) -> float:
    """P(M' = 0) after rotation; defined only for integer J."""
    src = AngularState.make(j, m_in)
    if src.twice_j % 2:
        raise ValueError("M' = 0 requires integer J")
    return wigner_d(src.j, 0, src.m, bs) ** 2


def central_probability_exact(j, m_in, t) -> Fraction:
    """Exact-rational P(M' = 0) at rational transmittance t (integer J)."""
    src = AngularState.make(j, m_in)
    if src.twice_j % 2:
        raise ValueError("M' = 0 requires integer J")
    n, m = src.to_fock_pair()
    half = src.twice_j // 2
    # measured pair (half, half) carries total n + m photons as required
    return bs_prob_exact(n, half, half, t)


def central_zero_sweep(j_max: int, m_in=0,
                       bs: BeamSplitterSetting = BALANCED) -> np.ndarray:
    """P(M' = 0) for integer J = 0 .. j_max at fixed input projection, read
    off the even blocks of one pass of :func:`amplitude_blocks`."""
    sweep = []
    for twice_j, u in enumerate(amplitude_blocks(bs, 2 * j_max)):
        if twice_j % 2 == 0:
            n = AngularState.make(twice_j // 2, m_in).to_fock_pair()[0]
            sweep.append(u[twice_j // 2, n] ** 2)
    return np.array(sweep)
