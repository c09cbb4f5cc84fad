"""Collective-spin analogue of the beam-splitter interference zeros.

Two bosonic modes carrying n and m photons map onto an angular-momentum
state |J, M> with J = (n + m)/2 and M = (n - m)/2; the beam splitter acts as
a rotation by the mixing angle, so its amplitudes are Wigner (small) d-matrix
elements.  All central zeros of the photon-number distribution reappear as
vanishing rotation amplitudes of symmetric Dicke states.
"""

from __future__ import annotations

from fractions import Fraction

from . import MAX_CUTOFF
from .bs_core import BALANCED, BeamSplitterSetting, bs_prob_exact, measured_amplitude


def _photon_numbers(j, m) -> tuple[int, int]:
    """Photon numbers (n, m) = (J + M, J - M) of the two-mode image of |J, M>."""
    j, m = Fraction(j), Fraction(m)
    if (2 * j).denominator != 1 or (2 * m).denominator != 1:
        raise ValueError("J and M must be integers or half-integers")
    if j < 0:
        raise ValueError("J must be non-negative")
    if abs(m) > j:
        raise ValueError("|M| must not exceed J")
    if (j - m).denominator != 1:
        raise ValueError("J - M must be an integer")
    return int(j + m), int(j - m)


def fock_to_jm(n: int, m: int) -> tuple[Fraction, Fraction]:
    """(J, M) = ((n + m)/2, (n - m)/2), the angular-momentum image of the
    photon pair (n, m)."""
    if n < 0 or m < 0:
        raise ValueError("photon numbers must be non-negative")
    return Fraction(n + m, 2), Fraction(n - m, 2)


def wigner_d(j, m_out, m_in, bs: BeamSplitterSetting) -> float:
    """Wigner small-d element d^J_{M', M}(theta) = <J, M'| exp(-i theta Jy) |J, M>
    at the mixing angle of ``bs``: the entry U_2J[J + M', J + M] of the
    beam-splitter block."""
    n = _photon_numbers(j, m_in)[0]
    return measured_amplitude(n, *_photon_numbers(j, m_out), bs)


def central_probability_exact(j, m_in, t) -> Fraction:
    """Exact-rational P(M' = 0) at rational transmittance t (integer J)."""
    n, m = _photon_numbers(j, m_in)
    if (n + m) % 2:
        raise ValueError("M' = 0 requires integer J")
    # the measured pair (J, J) carries the input's 2J photons
    half = (n + m) // 2
    return bs_prob_exact(n, half, half, t)


def central_zero_sweep(j_max: int, bs: BeamSplitterSetting = BALANCED) -> list[float]:
    """P(M' = 0) of the input |J, 0> for integer J = 0 .. j_max.

    d^J_00(theta) is the Legendre polynomial P_J(x) at x = cos(theta) = T - R,
    so the sweep follows (J+1) P_(J+1) = (2J+1) x P_J - J P_(J-1) from
    P_0 = 1, and each probability is P_J * P_J.  At T = 1/2, x is exactly 0.0
    and every odd J gives 0.0.  Its 2J photons are at most MAX_CUTOFF."""
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    if 2 * j_max > MAX_CUTOFF:
        raise ValueError(f"j_max={j_max}: 2J={2 * j_max} exceeds the cutoff bound "
                         f"MAX_CUTOFF={MAX_CUTOFF}")
    x = float(bs.transmittance - bs.reflectance)
    sweep = []
    prev, cur = 0.0, 1.0
    for j in range(j_max + 1):
        sweep.append(cur * cur)
        prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
    return sweep
