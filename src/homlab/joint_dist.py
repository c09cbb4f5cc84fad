"""Output joint photon-number distributions P(m_a, m_b) for a beam splitter.

One engine serves every product input (state_a, state_b).  The splitter
conserves the total photon number s, so the grid is filled one anti-diagonal
m_a + m_b = s at a time from the input's s-photon part and the block U_s of
:func:`~homlab.bs_core.amplitude_blocks` on the grid's window (grid_max + 1,
grid_max + 1), the only rows it keeps, and the input's dims, its columns:

* pure input psi:          P(., s - .) = |U_s psi_s|^2
* density rho:             P(., s - .) = diag(U_s rho_s U_s^T), evaluated as
  U_s^2 diag(rho_s), from the modes' weights, for a pair with a diagonal mode
  (thermal, Fock, or a dense rho scanned and found so), as every rho_s is then
  diagonal

Pure and diagonal inputs are thus sums of squares with non-negative weights,
so their grids have no negative entry.  The ``joint_*`` functions are this
engine applied to their input classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bs_core import BeamSplitterSetting, amplitude_blocks, band, bs_prob_exact
from .states import EPS_NORM, HERMITICITY_TOL, MixedState, PureState, State, fock

#: rounding allowances of a float grid: most negative entry, excess mass
NEGATIVE_TOL = 1e-14
MASS_TOL = 1e-12

#: most cells a grid may have: 1 GiB of float64, as the loss model holds up to
#: four grids at once; the engine's blocks, of amplitudes and of rho, get the same budget
GRID_CELLS = 1 << 27


@dataclass(frozen=True)
class JointDistribution:
    """Matrix of output joint probabilities P[m_a][m_b], 0 <= m <= grid_max.

    The grid must be a probability distribution, possibly truncated: any
    entry below -1e-14 (``NEGATIVE_TOL``) or a total mass above 1 + 1e-12
    (``MASS_TOL``) raises ValueError.
    """

    grid: np.ndarray
    bs: BeamSplitterSetting
    warnings: tuple[str, ...] = ()
    #: the sum of the grid, taken once, when it is checked
    total_mass: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ValueError("grid must be square")
        low, mass = float(grid.min()), float(grid.sum())
        if not (low >= -NEGATIVE_TOL and mass <= 1.0 + MASS_TOL):
            raise ValueError(f"grid is not a distribution: lowest entry {low:.3e}, "
                             f"total mass {mass!r}")
        object.__setattr__(self, "total_mass", mass)

    @property
    def grid_max(self) -> int:
        return self.grid.shape[0] - 1

    def diagonal(self) -> np.ndarray:
        return np.diag(self.grid).copy()


def row_ends(grid: np.ndarray) -> np.ndarray:
    """Where each row's +0.0 padding starts: one past its last entry that is
    not +0.0 (-0.0 is support).  +0.0 is the one float whose bits are all zero,
    so one comparison and one argmax find the ends of 64 Ki cells at a time."""
    rows, width = grid.shape
    ends = np.empty(rows, dtype=np.intp)
    step = max(1, (1 << 16) // max(width, 1))
    for start in range(0, rows, step):
        kept = np.ones((min(step, rows - start), width + 1), dtype=bool)  # a row of +0.0 ends at 0
        np.not_equal(grid[start:start + step].view(np.int64), 0, out=kept[:, 1:])
        ends[start:start + step] = width - kept[:, ::-1].argmax(axis=1)
    return ends


@dataclass(frozen=True)
class CnlReport:
    """Per-entry diagonal check of a joint distribution."""

    diagonal: tuple[float, ...]
    tol: float

    @property
    def verdict(self) -> bool:
        return all(v <= self.tol for v in self.diagonal)


def cnl_scan(dist: JointDistribution) -> CnlReport:
    """Check every diagonal entry of the distribution against ``NEGATIVE_TOL``:
    the central nodal line is dark when every entry passes."""
    return CnlReport(diagonal=tuple(float(v) for v in dist.diagonal()), tol=NEGATIVE_TOL)


def joint_fs_fs_exact(n: int, m: int, t) -> dict[tuple[int, int], "object"]:
    """Exact-rational anti-diagonal probabilities for a Fock/Fock input;
    certifies which entries are literal zeros."""
    return {(m_a, n + m - m_a): bs_prob_exact(n, m_a, n + m - m_a, t)
            for m_a in range(n + m + 1)}


def joint_fs_pure(n: int, phi_b: PureState, bs: BeamSplitterSetting,
                  grid_max: int | None = None) -> JointDistribution:
    """Fock |n> in a, pure state in b."""
    return joint_general((fock(n), phi_b), bs, grid_max)


def joint_fs_mixed(n: int, rho_b: State, bs: BeamSplitterSetting,
                   grid_max: int | None = None) -> JointDistribution:
    """Fock |n> in a, mixed state in b."""
    return joint_general((fock(n), rho_b), bs, grid_max)


def joint_general(rho_ab, bs: BeamSplitterSetting,
                  grid_max: int | None = None) -> JointDistribution:
    """Joint distribution of a product input ``(state_a, state_b)``, read mode
    by mode (see the module docstring); wrap a bare density matrix as
    ``MixedState(rho)``.  ``grid_max`` defaults to the largest photon number
    the input reaches.  ValueError is raised, before any grid exists, for a
    density matrix that is not Hermitian and for a grid that cannot hold the
    input's lowest total photon number or has more than ``GRID_CELLS`` cells,
    and before any block exists when its blocks, of amplitudes and of a dense
    rho, would exceed them.
    """
    if not (isinstance(rho_ab, tuple) and len(rho_ab) == 2
            and all(isinstance(state, State) for state in rho_ab)):
        raise ValueError("pass the input as a pair (state_a, state_b) of states")
    state_a, state_b = rho_ab
    if not all(state.hermiticity_residual() <= HERMITICITY_TOL for state in rho_ab):
        raise ValueError("density matrix is not Hermitian within tolerance")
    w_a, w_b = state_a.weights, state_b.weights
    dim_a, dim_b, dense = w_a.size, w_b.size, False
    if isinstance(state_a, PureState) and isinstance(state_b, PureState):
        def block_probs(u, n, s):
            amp = np.einsum("pn,n->p", u, state_a.amplitudes[n] * state_b.amplitudes[s - n])
            return amp.real ** 2 + amp.imag ** 2
    elif _is_diagonal(state_a) or _is_diagonal(state_b):
        def block_probs(u, n, s):
            return np.einsum("pn,n->p", u * u, w_a[n] * w_b[s - n])
    else:
        dense = True

        def block_probs(u, n, s):
            # rho_s[i, j] = rho_a[n_i, n_j] rho_b[s - n_i, s - n_j], from each mode's band only
            rho_s = (_band_rho(state_a, n[0], n[-1] + 1)
                     * _band_rho(state_b, s - n[-1], s - n[0] + 1)[::-1, ::-1])
            return np.einsum("pn,nk,pk->p", u, rho_s, u).real

    grid_max = dim_a + dim_b - 2 if grid_max is None else grid_max
    # the lowest total: each mode's first nonzero weight, summed (0 if one has none)
    fewest = int((np.flatnonzero(w_a)[:1] + np.flatnonzero(w_b)[:1]).sum())
    if grid_max < fewest:
        raise ValueError(f"grid_max={grid_max} cannot hold total {fewest} photons")
    # the budget holds the grid's cells, and 7 per entry of the largest block, which one step
    # of the recurrence and a pure or diagonal block_probs hold 6.0-6.2 times over; a dense one
    # adds rho_s and a pure mode's outer product, 4 cells per band x band entry (measured)
    window, s_max = (grid_max + 1, grid_max + 1), min(dim_a + dim_b - 2, 2 * grid_max)
    check_budget(grid_max, max((len(band(s, *window)) + dense * (n := len(band(s, dim_a, dim_b))))
                               * n for s in range(s_max + 1)))
    grid, k = np.zeros(window), np.arange(s_max + 1)
    for s, u in enumerate(amplitude_blocks(bs, s_max, (dim_a, dim_b), window)):
        m_a, n = (k[r.start:r.stop] for r in (band(s, *window), band(s, dim_a, dim_b)))
        grid[m_a, s - m_a] = block_probs(u, n, s)
    warnings = tuple(f"input trace deficit {deficit:.3e} of mode {mode} ({state.label}) "
                     f"exceeds {EPS_NORM:g}" for mode, state in zip("ab", rho_ab)
                     if (deficit := 1.0 - state.trace) > EPS_NORM)
    return JointDistribution(grid, bs, warnings=warnings)


def check_budget(grid_max: int, block: int = 0) -> None:
    """Refuse, by ValueError, a (grid_max + 1)^2 grid or 7 copies of a block
    of ``block`` entries when either has more than ``GRID_CELLS`` cells."""
    for cells, of in (((grid_max + 1) ** 2, "its grid"), (7 * block, "amplitude blocks")):
        if cells > GRID_CELLS:
            raise ValueError(f"grid_max={grid_max} needs {cells} cells for {of}, "
                             f"more than the budget of {GRID_CELLS}")


def _band_rho(state: State, lo: int, hi: int) -> np.ndarray:
    """rho[lo:hi, lo:hi], a view of a dense rho or a pure state's outer product there."""
    if isinstance(state, MixedState):
        return state.rho[lo:hi, lo:hi]
    return np.outer(state.amplitudes[lo:hi], state.amplitudes[lo:hi].conj())


def _is_diagonal(state: State) -> bool:
    """Whether the state's density is diagonal; only a dense rho is scanned."""
    if isinstance(state, MixedState):
        return np.count_nonzero(state.rho) == np.count_nonzero(np.diagonal(state.rho))
    return not isinstance(state, PureState) or np.count_nonzero(state.amplitudes) <= 1
