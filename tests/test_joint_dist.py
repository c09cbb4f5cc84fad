import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from homlab import joint_dist
from homlab.bs_core import (BALANCED, BeamSplitterSetting, amplitude_blocks, bs_prob_exact,
                            measured_amplitude)
from homlab.joint_dist import (JointDistribution, cnl_scan, joint_fs_fs_exact, joint_fs_mixed,
                               joint_fs_pure, joint_general, row_ends)
from homlab.states import (DiagonalState, MixedState, PureState, coherent, fock,
                           load_custom, odd_cat, parse_state, thermal)

SETTINGS = [BALANCED,
            BeamSplitterSetting.from_transmittance(Fraction(3, 4)),
            BeamSplitterSetting.from_angle(0.9)]


def _random_pure(rng, cutoff):
    amps = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
    amps /= np.linalg.norm(amps)
    return PureState(amps, label="random-pure")


def _random_mixed(rng, cutoff, rank=3):
    dim = cutoff + 1
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.dirichlet(np.ones(rank))
    for w in weights:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return MixedState(rho, label="random-mixed")


def _dense(state):
    """The pure state as a dense density matrix, which the engine reads as rho,
    or as weights when rho is diagonal, rather than as amplitudes."""
    return MixedState(np.outer(state.amplitudes, state.amplitudes.conj()), label=state.label)


def _as_pure_mixture(psi, mixed, bs, grid_max):
    """The grid of psi x mixed as the eigenvalue-weighted sum of the pure-pair
    grids of psi and each eigenvector of the mixed state's rho."""
    values, vectors = np.linalg.eigh(mixed.rho)
    return JointDistribution(sum(w * joint_general((psi, PureState(v)), bs, grid_max).grid
                                 for w, v in zip(values, vectors.T)), bs)


def _mean_photons(state):
    """sum over m of m w_m, the state's mean photon number as truncated."""
    return float(np.dot(np.arange(state.weights.size), state.weights))


def _mean_total_photons(dist):
    """sum over cells of (m_a + m_b) P(m_a, m_b)."""
    idx = np.arange(dist.grid_max + 1)
    return float(np.sum((idx[:, None] + idx[None, :]) * dist.grid))


class TestFockFock:
    def test_hom_exact(self):
        table = joint_fs_fs_exact(1, 1, Fraction(1, 2))
        assert table[(1, 1)] == 0
        assert table[(2, 0)] == Fraction(1, 2)
        assert table[(0, 2)] == Fraction(1, 2)

    def test_antidiagonal_support(self):
        d = joint_general((fock(2), fock(3)), BALANCED)
        for m_a in range(d.grid_max + 1):
            for m_b in range(d.grid_max + 1):
                if m_a + m_b != 5:
                    assert d.grid[m_a, m_b] == 0.0
        assert d.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_22_frozen(self):
        # [DERIVED] |2,2> balanced: 3/8, 0, 1/4, 0, 3/8 across the anti-diagonal
        d = joint_general((fock(2), fock(2)), BALANCED)
        assert d.grid[0, 4] == pytest.approx(3 / 8, abs=1e-12)
        assert d.grid[1, 3] == pytest.approx(0.0, abs=1e-14)
        assert d.grid[2, 2] == pytest.approx(1 / 4, abs=1e-12)
        assert d.grid[4, 0] == pytest.approx(3 / 8, abs=1e-12)

    def test_grid_max_too_small(self):
        with pytest.raises(ValueError):
            joint_general((fock(2), fock(3)), BALANCED, grid_max=4)

    def test_lowest_total_is_each_modes_first_weight_summed(self):
        # fock:2 x fock:3 reaches only s = 5; a mode with no weight reaches none
        with pytest.raises(ValueError, match="cannot hold total 5 photons"):
            joint_general((fock(2), fock(3)), BALANCED, grid_max=4)
        empty = PureState(np.zeros(4), label="zero")
        d = joint_general((empty, fock(3)), BALANCED, grid_max=2)
        assert d.grid.tobytes() == np.zeros((3, 3)).tobytes()

    def test_underflowing_products_leave_an_empty_grid(self):
        # each coherent:20 weighs 1.9e-174 at 0 photons, so their product is
        # 0.0, yet each mode's own first weight is nonzero: the lowest total
        # is 0, and every cell of the grid underflows to +0.0
        d = joint_general((coherent(20), coherent(20)), BALANCED, grid_max=10)
        assert d.grid.tobytes() == np.zeros((11, 11)).tobytes()
        assert d.total_mass == 0.0

    def test_vacuum(self):
        d = joint_general((fock(0), fock(0)), BALANCED)
        assert d.grid.shape == (1, 1)
        assert d.grid[0, 0] == 1.0

    @pytest.mark.parametrize("n", [20, 60])
    def test_large_pairs_match_exact_probabilities(self, n):
        d = joint_general((fock(n), fock(n)), BALANCED)
        for m_a in range(2 * n + 1):
            want = float(bs_prob_exact(n, m_a, 2 * n - m_a, Fraction(1, 2)))
            assert abs(d.grid[m_a, 2 * n - m_a] - want) <= 1e-12, m_a

    @pytest.mark.parametrize("n", [60, 200])
    def test_large_pairs_keep_unit_mass(self, n):
        assert abs(joint_general((fock(n), fock(n)), BALANCED).total_mass - 1.0) <= 1e-12


class TestCoherentPair:
    def test_poisson_product_closed_form(self):
        # coherent inputs leave as coherent states (c a - s b, s a + c b)
        theta = 1.1
        bs = BeamSplitterSetting.from_angle(theta)
        alpha, beta = 1.2 + 0.5j, -0.7 + 0.9j
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        mu_a, mu_b = abs(c * alpha - s * beta) ** 2, abs(s * alpha + c * beta) ** 2
        # cutoffs far past the 1e-10 default, so truncation is below rounding
        d = joint_general((coherent(alpha, cutoff=50), coherent(beta, cutoff=50)), bs)
        k = np.arange(d.grid_max + 1)
        lg = np.array([math.lgamma(x + 1) for x in k])
        pa = np.exp(k * math.log(mu_a) - mu_a - lg)
        pb = np.exp(k * math.log(mu_b) - mu_b - lg)
        assert np.max(np.abs(d.grid - np.outer(pa, pb))) <= 1e-13


class TestAgainstGeneralOracle:
    """Every specialized path must reproduce the full bipartite formula."""

    def test_fs_fs(self):
        # the pair as dense diagonal densities takes the weights path
        for bs in SETTINGS:
            ref = joint_general((fock(2), fock(3)), bs)
            got = joint_general((_dense(fock(2)), _dense(fock(3))), bs)
            assert np.max(np.abs(got.grid - ref.grid)) < 1e-10

    def test_random_trials(self):
        rng = np.random.default_rng(20240817)
        for trial in range(50):
            bs = SETTINGS[trial % len(SETTINGS)]
            kind = trial % 5
            if kind == 0:
                n, m = rng.integers(0, 4, size=2)
                ref = joint_general((fock(int(n)), fock(int(m))), bs)
                got = joint_general((_dense(fock(int(n))), _dense(fock(int(m)))), bs)
            elif kind == 1:
                n = int(rng.integers(0, 4))
                phi = _random_pure(rng, int(rng.integers(1, 5)))
                got = joint_fs_pure(n, phi, bs)
                ref = joint_general((fock(n), phi), bs, grid_max=got.grid_max)
            elif kind == 2:
                n = int(rng.integers(0, 4))
                rho = _random_mixed(rng, int(rng.integers(1, 5)))
                rho = MixedState(np.diag(np.real(np.diag(rho.rho))).astype(complex)
                                 / np.real(np.trace(rho.rho)), label="diag")
                got = joint_fs_mixed(n, rho, bs)
                ref = joint_general((fock(n), rho), bs, grid_max=got.grid_max)
            elif kind == 3:
                # pure amplitudes against the dense-density path
                psi = _random_pure(rng, int(rng.integers(1, 4)))
                phi = _random_pure(rng, int(rng.integers(1, 4)))
                ref = joint_general((psi, phi), bs)
                got = joint_general((_dense(psi), _dense(phi)), bs)
            else:
                # the dense-density path against the pure pairs of rho's eigenvectors
                psi = _random_pure(rng, int(rng.integers(1, 4)))
                rho = _random_mixed(rng, int(rng.integers(1, 4)))
                ref = joint_general((psi, rho), bs)
                got = _as_pure_mixture(psi, rho, bs, ref.grid_max)
            assert np.max(np.abs(got.grid - ref.grid)) < 1e-10, trial


def _mixture(vectors, weights):
    rho = sum(w * np.outer(v, v.conj()) for v, w in zip(vectors, weights))
    return MixedState(rho, label="mixture")


class TestMixturesAgainstPurePath:
    """A density is a mixture of pure states, so its grid is the weighted
    sum of pure-input grids, which the engine computes with other code."""

    def test_non_diagonal_densities(self):
        rng = np.random.default_rng(11)
        for bs in SETTINGS:
            va = [_random_pure(rng, 3) for _ in range(2)]
            vb = [_random_pure(rng, 2) for _ in range(3)]
            wa, wb = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3))
            got = joint_general((_mixture([v.amplitudes for v in va], wa),
                                 _mixture([v.amplitudes for v in vb], wb)), bs)
            want = sum(x * y * joint_general((a, b), bs).grid
                       for a, x in zip(va, wa) for b, y in zip(vb, wb))
            assert np.max(np.abs(got.grid - want)) < 1e-12

    def test_diagonal_density(self):
        rng = np.random.default_rng(12)
        for bs in SETTINGS:
            psi = _random_pure(rng, 3)
            weights = rng.dirichlet(np.ones(4))
            got = joint_general(
                (psi, _mixture([fock(k, cutoff=3).amplitudes for k in range(4)], weights)), bs)
            want = sum(w * joint_general((psi, fock(k, cutoff=3)), bs).grid
                       for k, w in enumerate(weights))
            assert np.max(np.abs(got.grid - want)) < 1e-12


class TestFockThermalOracle:
    """A thermal partner's grid is the thermal weights times the Fock/Fock
    probabilities: P(m_a, m_b) = w(m_a + m_b - n) P_(n, m_a + m_b - n)(m_a, m_b),
    checked against exact rationals that share no code with the engine."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(2, 7)])
    @pytest.mark.parametrize("nbar", [Fraction(1, 2), Fraction(3, 2)])
    def test_every_cell(self, n, t, nbar):
        b = thermal(float(nbar))
        d = joint_general((fock(n), b), BeamSplitterSetting.from_transmittance(t))

        def weight(m):  # truncated at the thermal cutoff, as the input is
            return nbar ** m / (1 + nbar) ** (m + 1) if 0 <= m < b.weights.size else 0

        for m_a in range(d.grid_max + 1):
            for m_b in range(d.grid_max + 1):
                m = m_a + m_b - n
                want = weight(m) * bs_prob_exact(n, m_a, m_b, t) if m >= 0 else 0
                assert abs(d.grid[m_a, m_b] - want) <= 1e-12, (m_a, m_b)


class TestThermalThermalOracle:
    """The wide-band weight path: each cell of a thermal pair's grid is
    sum_n w_a(n) w_b(s - n) P_(n, s - n)(m_a, m_b), s = m_a + m_b, summed in
    exact rationals from each float weight converted exactly, so it shares no
    code with the einsum.  Float cells are within 4.24e-15 relative of it
    (measured); the tolerance is 1e-14."""

    @pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(2, 7)])
    def test_every_cell(self, t):
        a, b = thermal(1.0), thermal(2.5)
        d = joint_general((a, b), BeamSplitterSetting.from_transmittance(t))
        w_a, w_b = ([Fraction(w) for w in state.weights.tolist()] for state in (a, b))
        for s in range(25):
            for m_a in range(s + 1):
                want = sum(w_a[n] * w_b[s - n] * bs_prob_exact(n, m_a, s - m_a, t)
                           for n in range(s + 1))
                assert abs(d.grid[m_a, s - m_a] - want) <= 1e-14 * want, (m_a, s - m_a)


class TestConservation:
    def test_mass_conservation(self):
        for bs in SETTINGS:
            for state_b in (coherent(1.5), thermal(2), fock(3)):
                d = joint_fs_pure(1, state_b, bs) if isinstance(state_b, PureState) \
                    else joint_fs_mixed(1, state_b, bs)
                assert d.total_mass == pytest.approx(state_b.trace, abs=1e-9)

    def test_energy_conservation(self):
        for bs in SETTINGS:
            psi = odd_cat(1.2)
            phi = coherent(1.1)
            d = joint_general((psi, phi), bs)
            want = _mean_photons(psi) + _mean_photons(phi)
            assert _mean_total_photons(d) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("pair", [(fock(1), thermal(4)), (odd_cat(1.2), coherent(1.1))],
                             ids=["fock-thermal", "cat-coherent"])
    def test_mean_total_photons_is_the_cell_sum(self, pair):
        # each block s keeps its mass: the cell sum is <n_a> tr_b + <n_b> tr_a
        # of the truncated inputs, to 1e-12 relative
        a, b = pair
        want = _mean_photons(a) * b.trace + _mean_photons(b) * a.trace
        for bs in SETTINGS:
            assert _mean_total_photons(joint_general(pair, bs)) == pytest.approx(want, rel=1e-12)


class TestDiagonalStructure:
    def test_odd_fock_zero_diagonal(self):
        d = joint_fs_pure(1, coherent(3), BALANCED, grid_max=40)
        assert np.max(d.diagonal()) < 1e-14

    def test_even_fock_has_positive_diagonal(self):
        d = joint_fs_pure(2, coherent(3), BALANCED)
        assert np.max(d.diagonal()) > 1e-4

    def test_thermal_partner_keeps_zero_diagonal(self):
        d = joint_fs_mixed(3, thermal(4), BALANCED, grid_max=30)
        assert np.max(d.diagonal()) < 1e-14


class TestPlumbing:
    def test_trace_deficit_warning(self):
        lossy_state = coherent(3, cutoff=4)  # heavy truncation
        d = joint_general((fock(0), lossy_state), BALANCED)
        assert len(d.warnings) == 1 and "of mode b (coherent:beta=3)" in d.warnings[0]

    def test_dense_diagonal_density_takes_the_diagonal_path(self, tmp_path):
        # a custom file's rho stays dense; its zero off-diagonal is found
        weights = thermal(1, cutoff=8).weights
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"type": "mixed", "rho": [
            [[w if i == j else 0.0, 0.0] for j in range(9)] for i, w in enumerate(weights)]}))
        dense = load_custom(str(path))
        assert isinstance(dense, MixedState) and joint_dist._is_diagonal(dense)
        got = joint_general((fock(1), dense), BALANCED)
        assert np.array_equal(got.grid, joint_general((fock(1), DiagonalState(weights)), BALANCED).grid)

    def test_marginals_sum_to_mass(self):
        # fock:1 has no coherence, so each balanced output holds (1 + |beta|^2)/2 photons
        d = joint_fs_pure(1, coherent(1), BALANCED)
        idx = np.arange(d.grid_max + 1)
        marginal_a, marginal_b = d.grid.sum(axis=1), d.grid.sum(axis=0)
        assert marginal_a.sum() == pytest.approx(d.total_mass)
        assert marginal_b.sum() == pytest.approx(d.total_mass)
        assert idx @ marginal_a == pytest.approx(1.0, abs=1e-9)
        assert idx @ marginal_b == pytest.approx(1.0, abs=1e-9)

    def test_grid_guard(self):
        with pytest.raises(ValueError, match="lowest entry -1"):
            JointDistribution(np.array([[0.5, -1e-13], [0.0, 0.5]]), BALANCED, "x")
        with pytest.raises(ValueError, match="total mass 1.00000000001"):
            JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5 + 1e-11]]), BALANCED, "x")
        with pytest.raises(ValueError):
            JointDistribution(np.array([[np.nan]]), BALANCED, "x")
        # rounding-sized excursions stay allowed
        JointDistribution(np.array([[-1e-15, 0.0], [0.0, 1.0 + 1e-13]]), BALANCED, "x")

    def test_non_normalised_input_rejected(self):
        doubled = PureState(np.array([1.0, 1.0]), label="doubled")
        with pytest.raises(ValueError, match="total mass"):
            joint_general((doubled, fock(1)), BALANCED)

    @pytest.mark.parametrize("rho_ab", [
        np.einsum("np,mq->nmpq", _dense(fock(1)).rho, _dense(fock(1)).rho),  # a four-index table
        np.eye(2), [fock(1), fock(1)], (fock(1), fock(1), fock(0)), (fock(1), np.eye(2))],
        ids=["table", "matrix", "list", "triple", "bare-rho"])
    def test_only_a_pair_of_states(self, rho_ab):
        with pytest.raises(ValueError, match=re.escape("pair (state_a, state_b) of states")):
            joint_general(rho_ab, BALANCED)

    def test_hermiticity_guard(self):
        bad = MixedState(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
        with pytest.raises(ValueError):
            joint_general((fock(1, cutoff=2), bad), BALANCED)
        # a diagonal partner does not spare the dense mode its check
        with pytest.raises(ValueError, match="Hermitian"):
            joint_general((bad, thermal(1)), BALANCED)


class TestCrops:
    """A grid_max crop is the top-left corner of the full grid, bit for bit
    (uint64 views, so signed zeros count), on each engine path."""

    @pytest.mark.parametrize("bs", [BeamSplitterSetting.from_transmittance(Fraction(2, 7)),
                                    BeamSplitterSetting.from_angle(1.1)], ids=["T2/7", "theta"])
    @pytest.mark.parametrize("pair", [
        (coherent(1.5), parse_state("pasmss:r=0.5")),   # pure
        (fock(2), thermal(1.5)),                         # diagonal
        (_dense(coherent(1.2)), _dense(odd_cat(1.3)))],  # dense rho
        ids=["pure", "diagonal", "dense"])
    def test_crop_is_the_full_grids_corner(self, pair, bs):
        full = joint_general(pair, bs).grid
        for g in (2, 3, 6, 13, full.shape[0] - 2):  # no pair needs more than 2 photons
            crop = joint_general(pair, bs, grid_max=g).grid
            assert np.array_equal(crop.view(np.uint64), full[:g + 1, :g + 1].view(np.uint64)), g


def _rows_and_band(s, grid_max, dim_a, dim_b):
    """Block s's window rows m_a (m_a, s - m_a <= grid_max) and its input band n
    (n < dim_a, s - n < dim_b), written out rather than read from ``band``."""
    return (np.arange(max(0, s - grid_max), min(grid_max, s) + 1),
            np.arange(max(0, s - dim_b + 1), min(dim_a - 1, s) + 1))


def _full_rho(state):
    return state.rho if isinstance(state, MixedState) else \
        np.outer(state.amplitudes, state.amplitudes.conj())


def _dense_grid_from_full_rhos(pair, bs, grid_max=None):
    """The dense-rho grid with each rho_s cut by ``np.ix_`` from the modes' full
    density matrices, a pure mode's built as np.outer(a, a.conj())."""
    rho_a, rho_b = map(_full_rho, pair)
    dim_a, dim_b = len(rho_a), len(rho_b)
    grid_max = dim_a + dim_b - 2 if grid_max is None else grid_max
    window, s_max = (grid_max + 1, grid_max + 1), min(dim_a + dim_b - 2, 2 * grid_max)
    grid = np.zeros(window)
    for s, u in enumerate(amplitude_blocks(bs, s_max, (dim_a, dim_b), window)):
        m_a, n = _rows_and_band(s, grid_max, dim_a, dim_b)
        rho_s = rho_a[np.ix_(n, n)] * rho_b[np.ix_(s - n, s - n)]
        grid[m_a, s - m_a] = np.einsum("pn,nk,pk->p", u, rho_s, u).real
    return grid


class TestDenseBand:
    """The dense-rho path builds each rho_s from the modes' band only, a view
    of a stored rho or the outer product of a pure mode's band amplitudes, and
    keeps every bit (uint64 views) of rho_s cut from the full matrices."""

    @pytest.mark.parametrize("bs", [BALANCED,
                                    BeamSplitterSetting.from_transmittance(Fraction(2, 7)),
                                    BeamSplitterSetting.from_angle(1.1)], ids=["T1/2", "T2/7", "theta"])
    @pytest.mark.parametrize("kind", ["pure-rho", "rho-pure", "rho-rho"])
    def test_grid_equals_the_full_rho_products(self, kind, bs):
        rng = np.random.default_rng(33)
        pure, mixed = coherent(1.5 + 0.4j), _random_mixed(rng, 11)
        pair = {"pure-rho": (pure, mixed), "rho-pure": (mixed, parse_state("pasmss:r=0.5")),
                "rho-rho": (mixed, _dense(odd_cat(1.3)))}[kind]
        # cropped to 3, the top block keeps 1 row of a band 7 wide
        rows, n = _rows_and_band(6, 3, *(state.weights.size for state in pair))
        assert (len(rows), len(n)) == (1, 7)
        for grid_max in (None, 3, 9):
            got = joint_general(pair, bs, grid_max).grid
            want = _dense_grid_from_full_rhos(pair, bs, grid_max)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), grid_max


class _Allocated(Exception):
    pass


def _no_grid(shape, *args, **kwargs):
    raise _Allocated(shape)


class TestGridBudget:
    """A grid of more than GRID_CELLS cells is refused before it exists;
    ``np.zeros`` is replaced so that no test allocates one."""

    @pytest.mark.parametrize("descriptor", ["pasmss:r=4.4", "coherent:beta=299"])
    def test_over_budget_input_is_refused(self, monkeypatch, descriptor):
        states = (parse_state(descriptor), fock(0))
        monkeypatch.setattr(np, "zeros", _no_grid)
        with pytest.raises(ValueError, match=f"^grid_max={states[0].weights.size - 1} needs "):
            joint_general(states, BALANCED)

    def test_over_budget_blocks_are_refused(self, monkeypatch):
        # 11585^2 grid cells fit, but the largest block, the window's 11585 rows by
        # the input's band of 11585 columns (1024 MiB), 7 times over exceeds the
        # budget; neither grid nor block is made
        pair = (thermal(600), thermal(600))
        monkeypatch.setattr(np, "zeros", _no_grid)
        with pytest.raises(ValueError, match=r"^grid_max=11584 needs 939485575 cells "
                                             r"for amplitude blocks"):
            joint_general(pair, BALANCED, grid_max=11584)

    def test_blocks_count_only_the_windows_rows(self, monkeypatch):
        # at grid_max=3000 the largest block is 3001 x 3001, 63042007 cells 7 times
        # over: within the budget, so the grid is allocated (and replaced here);
        # counted with all s + 1 rows it was 252084007 cells and refused
        pair = (thermal(600), thermal(600))
        monkeypatch.setattr(np, "zeros", _no_grid)
        with pytest.raises(_Allocated):
            joint_general(pair, BALANCED, grid_max=3000)

    def test_dense_pure_mode_builds_no_rho(self, monkeypatch):
        # coherent:30 is 1101 amplitudes: no 1101^2 outer product is built before
        # the 20001^2 grid is refused
        pair = (coherent(30), MixedState(np.full((2, 2), 0.5)))
        monkeypatch.setattr(np, "zeros", _no_grid)
        refused, peak = _traced_peak(lambda: pytest.raises(ValueError, joint_general, pair,
                                                           BALANCED, grid_max=20000))
        refused.match(r"^grid_max=20000 needs 400040001 cells for its grid")
        assert peak < 1e6

    def test_dense_blocks_count_their_band_squared(self, monkeypatch):
        # two uniform 3100 x 3100 densities, as broadcast views that hold no
        # entries: the largest block, 3100 rows by a band of 3100, fits 7 times
        # over (67270000 cells), but not with its 3100^2 rho_s beside it
        rho = np.broadcast_to(np.complex128(1 / 3100), (3100, 3100))
        pair = (MixedState(rho), MixedState(rho))
        monkeypatch.setattr(np, "zeros", _no_grid)
        refused, peak = _traced_peak(lambda: pytest.raises(ValueError, joint_general, pair,
                                                           BALANCED))
        refused.match(r"^grid_max=6198 needs 134540000 cells for amplitude blocks")
        assert peak < 1e6

    def test_budget_edge(self, monkeypatch):
        # 11585^2 cells fit in 2^27, 11586^2 do not
        assert 11585 ** 2 <= joint_dist.GRID_CELLS < 11586 ** 2
        vacua = (fock(0), fock(0))
        monkeypatch.setattr(np, "zeros", _no_grid)
        with pytest.raises(_Allocated):
            joint_general(vacua, BALANCED, grid_max=11584)
        with pytest.raises(ValueError, match="^grid_max=11585 needs"):
            joint_general(vacua, BALANCED, grid_max=11585)


def _traced_peak(call):
    """The result of ``call()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """The engine and single amplitudes hold only the input's band of each
    block U_s, not the full (s + 1)^2 block."""

    def test_fock_coherent_grid(self):
        # fock:1 x coherent:20 reaches s = 535: its grid is 2.3 MB, as is each
        # of the half dozen arrays of a full block at the top
        pair = (fock(1), coherent(20))
        dist, peak = _traced_peak(lambda: joint_general(pair, BALANCED))
        assert peak - dist.grid.nbytes < 1e6

    def test_fock_thermal_grid(self):
        # thermal:60 is 1395 weights: its 16 MB grid, and no 1395^2 density
        dist, peak = _traced_peak(lambda: joint_general((fock(1), thermal(60)), BALANCED))
        assert peak - dist.grid.nbytes < 1e6

    def test_bright_pair_on_a_small_grid(self):
        # thermal:60 is 1395 weights: no 1395^2 table of their products
        dist, peak = _traced_peak(
            lambda: joint_general((thermal(60), thermal(60)), BALANCED, grid_max=10))
        assert dist.grid.shape == (11, 11)
        assert peak < 1e6

    def test_thermal_thermal_grid(self):
        # thermal:20 is 472 weights and its grid 943^2: every block is a full
        # band of up to 472 columns, but no 472^2 table or index array beside it
        dist, peak = _traced_peak(lambda: joint_general((thermal(20), thermal(20)), BALANCED))
        assert peak - dist.grid.nbytes < 15e6

    def test_mean_total_photons(self):
        # thermal:60's 16 MB grid holds 61 photons; its check and its diagonal
        # scan read the grid in place rather than copying it
        dist = joint_general((fock(1), thermal(60)), BALANCED)
        assert _mean_total_photons(dist) == pytest.approx(61.0, abs=1e-6)
        report, peak = _traced_peak(
            lambda: (JointDistribution(dist.grid, BALANCED), cnl_scan(dist))[1])
        assert report.verdict
        assert peak < 1e6

    @pytest.mark.parametrize("kind, grid_max", [("rho-rho", None), ("rho-rho", 120),
                                                ("pure-rho", None), ("pure-rho", 60)])
    def test_dense_blocks_stay_within_the_count(self, kind, grid_max):
        # coherent:10 is 171 amplitudes; cropped, the band is wider than the
        # window's rows, so the count holds 7 cells per entry of each block's
        # rows x band and of its band x band rho_s
        a = coherent(10) if kind == "pure-rho" else _dense(coherent(10))
        pair = (a, _dense(coherent(10j)))
        dist, peak = _traced_peak(lambda: joint_general(pair, BALANCED, grid_max))
        g, dims = dist.grid_max, [state.weights.size for state in pair]
        blocks = (_rows_and_band(s, g, *dims) for s in range(min(sum(dims) - 2, 2 * g) + 1))
        count = max(len(rows) * len(n) + len(n) ** 2 for rows, n in blocks)
        assert peak - dist.grid.nbytes <= 7 * 8 * count

    def test_single_amplitude(self):
        amp, peak = _traced_peak(lambda: measured_amplitude(1, 300, 300, BALANCED))
        assert amp == 0.0
        assert peak < 1e6


def _row_ends_oracle(grid):
    """One past the last entry of each row that is not +0.0, cell by cell."""
    return [max((j + 1 for j, v in enumerate(row) if v != 0.0 or math.copysign(1.0, v) < 0),
                default=0) for row in grid.tolist()]


class TestRowEnds:
    """Where each row's +0.0 padding starts, for the loss model and the writers."""

    @pytest.mark.parametrize("shape", [(1, 1), (7, 5), (300, 300), (3, 70000)])
    def test_matches_cell_by_cell_oracle(self, shape):
        # (300, 300) spans two blocks of rows; a row of (3, 70000) is wider
        # than a block, so each block is one row
        rng = np.random.default_rng(sum(shape))
        grid = np.where(rng.random(shape) < 0.97, 0.0, rng.random(shape))
        grid[rng.random(shape) < 0.002] = -0.0
        grid[0, -1] = -0.0  # a signed zero in the last column is support
        grid[-1] = 0.0  # a row of +0.0 ends at 0
        assert row_ends(grid).tolist() == _row_ends_oracle(grid)

    def test_memory_is_one_block(self):
        grid = joint_general((fock(1), thermal(60)), BALANCED).grid
        _, peak = _traced_peak(lambda: row_ends(grid))
        assert grid.shape == (1395, 1395)
        assert peak < 1e6


class TestCnlScan:
    def test_odd_fock_passes(self):
        d = joint_fs_pure(1, coherent(2), BALANCED, grid_max=30)
        assert cnl_scan(d).verdict

    def test_vacuum_fails(self):
        d = joint_general((fock(0), fock(0)), BALANCED)
        report = cnl_scan(d)
        assert not report.verdict
        assert report.diagonal == (1.0,) and report.tol == joint_dist.NEGATIVE_TOL
