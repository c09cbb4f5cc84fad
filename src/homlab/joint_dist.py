"""Output joint photon-number distributions P(m_a, m_b) for a beam splitter.

One engine serves every input.  The splitter conserves the total photon
number s, so the grid is filled one anti-diagonal m_a + m_b = s at a time
from the amplitude block U_s (:func:`~homlab.bs_core.amplitude_blocks`) and
the input's s-photon part:

* pure input psi:          P(., s - .) = |U_s psi_s|^2
* density or table rho:    P(., s - .) = diag(U_s rho_s U_s^T), evaluated as
  U_s^2 diag(rho_s) for a pair whose a- or b-mode density is diagonal (a Fock
  or thermal mode makes it so), since every rho_s is then diagonal

Pure and diagonal inputs are thus sums of squares with non-negative weights,
so their grids have no negative entry.  The ``joint_*`` functions are this
engine applied to their input classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bs_core import BeamSplitterSetting, amplitude_blocks, bs_prob_exact
from .states import EPS_NORM, MixedState, PureState, fock

_HERMITICITY_TOL = 1e-10
#: rounding allowances of a float grid: most negative entry, excess mass
NEGATIVE_TOL = 1e-14
MASS_TOL = 1e-12


@dataclass(frozen=True)
class JointDistribution:
    """Matrix of output joint probabilities P[m_a][m_b], 0 <= m <= grid_max.

    The grid must be a probability distribution, possibly truncated: any
    entry below -1e-14 (``NEGATIVE_TOL``) or a total mass above 1 + 1e-12
    (``MASS_TOL``) raises ValueError.
    """

    grid: np.ndarray
    bs: BeamSplitterSetting
    input_label: str
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ValueError("grid must be square")
        low, mass = float(grid.min()), float(grid.sum())
        if not (low >= -NEGATIVE_TOL and mass <= 1.0 + MASS_TOL):
            raise ValueError(f"grid is not a distribution: lowest entry {low:.3e}, "
                             f"total mass {mass!r}")

    @property
    def grid_max(self) -> int:
        return self.grid.shape[0] - 1

    @property
    def total_mass(self) -> float:
        return float(self.grid.sum())

    def diagonal(self) -> np.ndarray:
        return np.diag(self.grid).copy()

    def marginal_a(self) -> np.ndarray:
        return self.grid.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        return self.grid.sum(axis=0)

    def mean_total_photons(self) -> float:
        idx = np.arange(self.grid.shape[0])
        total = idx[:, None] + idx[None, :]
        return float(np.sum(total * self.grid))


@dataclass(frozen=True)
class CnlReport:
    """Per-entry diagonal check of a joint distribution."""

    diagonal: tuple[float, ...]
    tol: float

    @property
    def passes(self) -> tuple[bool, ...]:
        return tuple(v <= self.tol for v in self.diagonal)

    @property
    def verdict(self) -> bool:
        return all(self.passes)


def cnl_scan(dist: JointDistribution, tol: float = 1e-14) -> CnlReport:
    """Check every diagonal entry of the distribution against ``tol``: the
    central nodal line is dark when every entry passes."""
    return CnlReport(diagonal=tuple(float(v) for v in dist.diagonal()), tol=tol)


def joint_fs_fs(n: int, m: int, bs: BeamSplitterSetting,
                grid_max: int | None = None) -> JointDistribution:
    """Fock |n> in a, Fock |m> in b: mass lives on the anti-diagonal
    m_a + m_b = n + m."""
    return joint_general((fock(n), fock(m)), bs, grid_max)


def joint_fs_fs_exact(n: int, m: int, t) -> dict[tuple[int, int], "object"]:
    """Exact-rational anti-diagonal probabilities for a Fock/Fock input;
    certifies which entries are literal zeros."""
    return {(m_a, n + m - m_a): bs_prob_exact(n, m_a, n + m - m_a, t)
            for m_a in range(n + m + 1)}


def joint_fs_pure(n: int, phi_b: PureState, bs: BeamSplitterSetting,
                  grid_max: int | None = None) -> JointDistribution:
    """Fock |n> in a, pure state in b."""
    return joint_general((fock(n), phi_b), bs, grid_max)


def joint_fs_mixed(n: int, rho_b: MixedState, bs: BeamSplitterSetting,
                   grid_max: int | None = None) -> JointDistribution:
    """Fock |n> in a, mixed state in b."""
    return joint_general((fock(n), rho_b), bs, grid_max)


def joint_pure_pure(psi_a: PureState, phi_b: PureState, bs: BeamSplitterSetting,
                    grid_max: int | None = None) -> JointDistribution:
    """Pure states in both modes."""
    return joint_general((psi_a, phi_b), bs, grid_max)


def joint_pure_mixed(psi_a: PureState, rho_b: MixedState, bs: BeamSplitterSetting,
                     grid_max: int | None = None) -> JointDistribution:
    """Pure state in a, mixed state in b."""
    return joint_general((psi_a, rho_b), bs, grid_max)


def joint_general(rho_ab, bs: BeamSplitterSetting,
                  grid_max: int | None = None,
                  eps_norm: float = EPS_NORM) -> JointDistribution:
    """Joint distribution of any bipartite input (see the module docstring).

    ``rho_ab`` is either a pair ``(state_a, state_b)`` of pure/mixed states
    or density matrices (product input, evaluated without materializing the
    four-index table) or a four-index ndarray ``rho[n, m, n', m']``.
    ``grid_max`` defaults to the largest photon number the input reaches; a
    grid that cannot hold the input's lowest total photon number raises
    ValueError, as does a density matrix that is not Hermitian.
    """
    if isinstance(rho_ab, tuple):
        state_a, state_b = rho_ab
        label = f"{getattr(state_a, 'label', 'array')} x {getattr(state_b, 'label', 'array')}"
        if isinstance(state_a, PureState) and isinstance(state_b, PureState):
            amps = np.outer(state_a.amplitudes, state_b.amplitudes)
            weights = np.abs(amps) ** 2

            def block_probs(u, n, s):
                amp = np.einsum("pn,n->p", u, amps[n, s - n])
                return amp.real ** 2 + amp.imag ** 2
        else:
            rho_a, rho_b = _density(state_a), _density(state_b)
            weights = np.outer(np.diag(rho_a).real, np.diag(rho_b).real)
            # every rho_s = rho_a[n, n'] rho_b[s-n, s-n'] is diagonal if one
            # mode's density is; its diagonal is read, as np.diag(rho_s) was,
            # as a strided view of complex products: einsum then sums in the
            # same order, so the grid keeps every bit
            if any(np.array_equal(rho, np.diag(np.diag(rho))) for rho in (rho_a, rho_b)):
                diag = np.outer(np.diag(rho_a), np.diag(rho_b))

                def block_probs(u, n, s):
                    return np.einsum("pn,n->p", u * u, diag[n, s - n].real)
            else:
                def block_probs(u, n, s):
                    rho_s = rho_a[np.ix_(n, n)] * rho_b[np.ix_(s - n, s - n)]
                    return np.einsum("pn,nk,pk->p", u, rho_s, u).real
    else:
        table = np.asarray(rho_ab, dtype=complex)
        if table.ndim != 4:
            raise ValueError("coefficient table must be four-index rho[n, m, n', m']")
        weights = np.einsum("nmnm->nm", table).real
        label = "table"

        def block_probs(u, n, s):
            rho_s = table[n[:, None], (s - n)[:, None], n, s - n]
            return np.einsum("pn,nk,pk->p", u, rho_s, u).real

    dim_a, dim_b = weights.shape
    if grid_max is None:
        grid_max = dim_a + dim_b - 2
    support = np.argwhere(weights != 0)
    fewest = int(support.sum(axis=1).min()) if support.size else 0
    if grid_max < fewest:
        raise ValueError(f"grid_max={grid_max} cannot hold total {fewest} photons")
    grid = np.zeros((grid_max + 1, grid_max + 1))
    for s, u in enumerate(amplitude_blocks(bs, min(dim_a + dim_b - 2, 2 * grid_max))):
        lo, hi = max(0, s - dim_b + 1), min(dim_a - 1, s)
        probs = block_probs(u[:, lo:hi + 1], np.arange(lo, hi + 1), s)
        m_a = np.arange(max(0, s - grid_max), min(s, grid_max) + 1)
        grid[m_a, s - m_a] = probs[m_a]
    trace = float(weights.sum())
    warnings = ()
    if 1.0 - trace > eps_norm:
        warnings = (f"input trace deficit {1.0 - trace:.3e} exceeds {eps_norm:g}",)
    return JointDistribution(grid, bs, input_label=label, warnings=warnings)


def _density(state) -> np.ndarray:
    if isinstance(state, PureState):
        return state.to_mixed().rho
    rho = state.rho if isinstance(state, MixedState) else np.asarray(state, dtype=complex)
    if np.max(np.abs(rho - rho.conj().T)) > _HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    return rho
