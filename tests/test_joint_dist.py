import math
from fractions import Fraction

import numpy as np
import pytest

from homlab.bs_core import BALANCED, BeamSplitterSetting, bs_prob_exact
from homlab.joint_dist import (JointDistribution, cnl_scan, joint_fs_fs,
                               joint_fs_fs_exact, joint_fs_mixed,
                               joint_fs_pure, joint_general, joint_pure_mixed,
                               joint_pure_pure)
from homlab.states import (MixedState, PureState, coherent, fock, odd_cat,
                           thermal)

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


class TestFockFock:
    def test_hom_exact(self):
        table = joint_fs_fs_exact(1, 1, Fraction(1, 2))
        assert table[(1, 1)] == 0
        assert table[(2, 0)] == Fraction(1, 2)
        assert table[(0, 2)] == Fraction(1, 2)

    def test_antidiagonal_support(self):
        d = joint_fs_fs(2, 3, BALANCED)
        for m_a in range(d.grid_max + 1):
            for m_b in range(d.grid_max + 1):
                if m_a + m_b != 5:
                    assert d.grid[m_a, m_b] == 0.0
        assert d.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_22_frozen(self):
        # [DERIVED] |2,2> balanced: 3/8, 0, 1/4, 0, 3/8 across the anti-diagonal
        d = joint_fs_fs(2, 2, BALANCED)
        assert d.grid[0, 4] == pytest.approx(3 / 8, abs=1e-12)
        assert d.grid[1, 3] == pytest.approx(0.0, abs=1e-14)
        assert d.grid[2, 2] == pytest.approx(1 / 4, abs=1e-12)
        assert d.grid[4, 0] == pytest.approx(3 / 8, abs=1e-12)

    def test_grid_max_too_small(self):
        with pytest.raises(ValueError):
            joint_fs_fs(2, 3, BALANCED, grid_max=4)

    def test_vacuum(self):
        d = joint_fs_fs(0, 0, BALANCED)
        assert d.grid.shape == (1, 1)
        assert d.grid[0, 0] == 1.0

    @pytest.mark.parametrize("n", [20, 60])
    def test_large_pairs_match_exact_probabilities(self, n):
        d = joint_fs_fs(n, n, BALANCED)
        for m_a in range(2 * n + 1):
            want = float(bs_prob_exact(n, m_a, 2 * n - m_a, Fraction(1, 2)))
            assert abs(d.grid[m_a, 2 * n - m_a] - want) <= 1e-12, m_a

    @pytest.mark.parametrize("n", [60, 200])
    def test_large_pairs_keep_unit_mass(self, n):
        assert abs(joint_fs_fs(n, n, BALANCED).total_mass - 1.0) <= 1e-12


class TestCoherentPair:
    def test_poisson_product_closed_form(self):
        # coherent inputs leave as coherent states (c a - s b, s a + c b)
        theta = 1.1
        bs = BeamSplitterSetting.from_angle(theta)
        alpha, beta = 1.2 + 0.5j, -0.7 + 0.9j
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        mu_a, mu_b = abs(c * alpha - s * beta) ** 2, abs(s * alpha + c * beta) ** 2
        # cutoffs far past the 1e-10 default, so truncation is below rounding
        d = joint_pure_pure(coherent(alpha, cutoff=50), coherent(beta, cutoff=50), bs)
        k = np.arange(d.grid_max + 1)
        lg = np.array([math.lgamma(x + 1) for x in k])
        pa = np.exp(k * math.log(mu_a) - mu_a - lg)
        pb = np.exp(k * math.log(mu_b) - mu_b - lg)
        assert np.max(np.abs(d.grid - np.outer(pa, pb))) <= 1e-13


class TestAgainstGeneralOracle:
    """Every specialized path must reproduce the full bipartite formula."""

    def test_fs_fs(self):
        for bs in SETTINGS:
            ref = joint_general((fock(2), fock(3)), bs)
            got = joint_fs_fs(2, 3, bs)
            assert np.max(np.abs(got.grid - ref.grid)) < 1e-10

    def test_random_trials(self):
        rng = np.random.default_rng(20240817)
        for trial in range(50):
            bs = SETTINGS[trial % len(SETTINGS)]
            kind = trial % 5
            if kind == 0:
                n, m = rng.integers(0, 4, size=2)
                got = joint_fs_fs(int(n), int(m), bs)
                ref = joint_general((fock(int(n)), fock(int(m))), bs)
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
                psi = _random_pure(rng, int(rng.integers(1, 4)))
                phi = _random_pure(rng, int(rng.integers(1, 4)))
                got = joint_pure_pure(psi, phi, bs)
                ref = joint_general((psi, phi), bs, grid_max=got.grid_max)
            else:
                psi = _random_pure(rng, int(rng.integers(1, 4)))
                rho = _random_mixed(rng, int(rng.integers(1, 4)))
                got = joint_pure_mixed(psi, rho, bs)
                ref = joint_general((psi, rho), bs, grid_max=got.grid_max)
            assert np.max(np.abs(got.grid - ref.grid)) < 1e-10, trial

    def test_four_index_table_route(self):
        # product state fed in as an explicit four-index coefficient table
        psi = _random_pure(np.random.default_rng(7), 2)
        phi = _random_pure(np.random.default_rng(8), 2)
        rho_a = np.outer(psi.amplitudes, psi.amplitudes.conj())
        rho_b = np.outer(phi.amplitudes, phi.amplitudes.conj())
        table = np.einsum("np,mq->nmpq", rho_a, rho_b)
        for bs in SETTINGS:
            ref = joint_pure_pure(psi, phi, bs)
            got = joint_general(table, bs, grid_max=ref.grid_max)
            assert np.max(np.abs(got.grid - ref.grid)) < 1e-10


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
            want = sum(x * y * joint_pure_pure(a, b, bs).grid
                       for a, x in zip(va, wa) for b, y in zip(vb, wb))
            assert np.max(np.abs(got.grid - want)) < 1e-12

    def test_diagonal_density(self):
        rng = np.random.default_rng(12)
        for bs in SETTINGS:
            psi = _random_pure(rng, 3)
            weights = rng.dirichlet(np.ones(4))
            got = joint_pure_mixed(
                psi, _mixture([fock(k, cutoff=3).amplitudes for k in range(4)], weights), bs)
            want = sum(w * joint_pure_pure(psi, fock(k, cutoff=3), bs).grid
                       for k, w in enumerate(weights))
            assert np.max(np.abs(got.grid - want)) < 1e-12


class TestConservation:
    def test_mass_conservation(self):
        for bs in SETTINGS:
            for state_b in (coherent(1.5), thermal(2), fock(3)):
                d = joint_fs_pure(1, state_b, bs) if isinstance(state_b, PureState) \
                    else joint_fs_mixed(1, state_b, bs)
                input_mass = state_b.norm_squared if isinstance(state_b, PureState) \
                    else state_b.trace
                assert d.total_mass == pytest.approx(input_mass, abs=1e-9)

    def test_energy_conservation(self):
        for bs in SETTINGS:
            psi = odd_cat(1.2)
            phi = coherent(1.1)
            d = joint_pure_pure(psi, phi, bs)
            want = psi.mean_photon_number + phi.mean_photon_number
            assert d.mean_total_photons() == pytest.approx(want, abs=1e-9)


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
        assert d.warnings

    def test_marginals_sum_to_mass(self):
        d = joint_fs_pure(1, coherent(1), BALANCED)
        assert d.marginal_a().sum() == pytest.approx(d.total_mass)
        assert d.marginal_b().sum() == pytest.approx(d.total_mass)

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

    def test_hermiticity_guard(self):
        bad = MixedState(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
        with pytest.raises(ValueError):
            joint_pure_mixed(fock(1, cutoff=2), bad, BALANCED)


class TestCnlScan:
    def test_odd_fock_passes(self):
        d = joint_fs_pure(1, coherent(2), BALANCED, grid_max=30)
        assert cnl_scan(d).verdict

    def test_vacuum_fails(self):
        d = joint_fs_fs(0, 0, BALANCED)
        report = cnl_scan(d)
        assert not report.verdict
        assert report.passes == (False,)
