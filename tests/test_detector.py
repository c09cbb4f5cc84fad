import math
from fractions import Fraction

import numpy as np
import pytest

from homlab.bs_core import BALANCED
from homlab.detector import (LossConfig, SqueezedSource, bernoulli_matrix,
                             herald_posterior, lossy_distribution,
                             spdc_detection_prob, squeezing_db, tmss_prob)
from homlab.joint_dist import JointDistribution, joint_fs_fs, joint_fs_pure
from homlab.states import coherent


class TestBernoulliMatrix:
    def test_columns_sum_to_one(self):
        for eta in (0.0, 0.3, 0.87, 1.0):
            a = bernoulli_matrix(eta, 12)
            assert np.allclose(a.sum(axis=0), 1.0, atol=1e-12)

    def test_frozen_entry(self):
        # [DERIVED] C(3,1) 0.8 * 0.2^2 = 0.096
        a = bernoulli_matrix(0.8, 5)
        assert a[1, 3] == pytest.approx(3 * 0.8 * 0.2 ** 2, abs=1e-15)

    def test_perfect_detector_is_identity(self):
        assert np.array_equal(bernoulli_matrix(1.0, 6), np.eye(6))

    def test_blind_detector_registers_nothing(self):
        a = bernoulli_matrix(0.0, 7)
        assert np.array_equal(a[0], np.ones(7))
        assert not a[1:].any()

    @pytest.mark.parametrize("eta", [0.8000664335667, 0.3])
    def test_exact_binomial_columns(self, eta):
        # [ORACLE] exact Fraction C(M, m) eta^m (1-eta)^(M-m) on sampled
        # columns.  The complement is the float 1.0 - eta the matrix is built
        # from; it is exact for eta >= 1/2 and rounded for eta = 0.3.
        a = bernoulli_matrix(eta, 501)
        e, q = Fraction(eta), Fraction(1.0 - eta)
        for big in (0, 1, 2, 37, 250, 421, 499, 500):
            want = [float(math.comb(big, m) * e ** m * q ** (big - m))
                    for m in range(big + 1)]
            assert np.max(np.abs(a[:big + 1, big] - want)) <= 1e-15
            assert not a[big + 1:, big].any()

    @pytest.mark.parametrize("eta", [0.3, 0.8000664335667, 1.0])
    def test_smaller_matrix_is_top_left_block(self, eta):
        # each Pascal column depends only on the one before it
        full = bernoulli_matrix(eta, 300)
        for k in (0, 1, 36, 299):
            assert bernoulli_matrix(eta, k).tobytes() == full[:k, :k].copy().tobytes()

    def test_no_overflow_at_size_1500(self):
        # C(M, m) overflows a float above M ~ 1030
        for eta in (0.3, 0.87):
            a = bernoulli_matrix(eta, 1500)
            assert np.all(a >= 0.0) and np.all(a <= 1.0)
            assert np.max(np.abs(a.sum(axis=0) - 1.0)) <= 1e-12


class TestLossyDistribution:
    def test_identity_at_full_efficiency(self):
        d = joint_fs_pure(1, coherent(1), BALANCED)
        out = lossy_distribution(d, LossConfig(1.0, 1.0))
        assert np.max(np.abs(out.grid - d.grid)) < 1e-12

    @staticmethod
    def _support(grid) -> int:
        """The smallest k with every entry outside [0, k)^2 equal to +0.0."""
        nonzero = (grid != 0.0) | np.signbit(grid)
        k = grid.shape[0]
        while k and not nonzero[k - 1].any() and not nonzero[:, k - 1].any():
            k -= 1
        return k

    @pytest.mark.parametrize("grid_max", [40, 300])
    def test_padded_grid_matches_full_product(self, grid_max):
        d = joint_fs_pure(1, coherent(2.0 - 1.5j), BALANCED, grid_max=grid_max)
        k = self._support(d.grid)
        assert k < 40
        ea, eb = 0.8000664335667, 0.71
        out = lossy_distribution(d, LossConfig(ea, eb)).grid
        full = bernoulli_matrix(ea, grid_max + 1) @ d.grid @ bernoulli_matrix(eb, grid_max + 1).T
        assert np.max(np.abs(out - full)) <= 1e-15
        # loss never moves mass outside the input's support
        assert out[k:].tobytes() == np.zeros_like(out[k:]).tobytes()
        assert out[:, k:].tobytes() == np.zeros_like(out[:, k:]).tobytes()

    def test_full_support_is_the_full_product_bit_for_bit(self):
        rng = np.random.default_rng(5)
        grid = rng.random((25, 25))
        grid[-1, 0] = 0.5  # support reaches the last row
        grid /= grid.sum()
        d = JointDistribution(grid, BALANCED, input_label="random")
        assert self._support(d.grid) == 25
        ea, eb = 0.9, 0.35
        want = bernoulli_matrix(ea, 25) @ d.grid @ bernoulli_matrix(eb, 25).T
        got = lossy_distribution(d, LossConfig(ea, eb)).grid
        assert got.tobytes() == want.tobytes()

    def test_perfect_detectors_return_the_input_bit_for_bit(self):
        d = joint_fs_pure(1, coherent(1.5), BALANCED, grid_max=80)
        out = lossy_distribution(d, LossConfig(1.0, 1.0))
        assert out.grid.tobytes() == d.grid.tobytes()

    def test_mass_preserved(self):
        d = joint_fs_pure(1, coherent(1.5), BALANCED)
        out = lossy_distribution(d, LossConfig(0.7, 0.9))
        assert out.total_mass == pytest.approx(d.total_mass, abs=1e-12)

    def test_diagonal_zeros_fill_in(self):
        d = joint_fs_pure(1, coherent(1), BALANCED)
        out = lossy_distribution(d, LossConfig(0.95, 0.95))
        assert d.grid[1, 1] == 0.0
        assert out.grid[1, 1] > 0.0

    def test_diagonal_stays_antidiagonal_minimum(self):
        d = joint_fs_pure(1, coherent(1), BALANCED)
        out = lossy_distribution(d, LossConfig(0.95, 0.95))
        for s in range(0, 9, 2):
            mp = s // 2
            row = [out.grid[m_a, s - m_a] for m_a in range(s + 1)]
            assert out.grid[mp, mp] == min(row)
            assert out.grid[mp, mp] > 0.0

    def test_efficiency_validation(self):
        with pytest.raises(ValueError):
            LossConfig(1.2, 0.5)


class TestSqueezedSource:
    def test_pair_weights_normalized(self):
        src = SqueezedSource(r=1.5)
        total = sum(tmss_prob(n, src) for n in range(src.cutoff + 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_geometric_form(self):
        src = SqueezedSource(r=0.8)
        x = math.tanh(0.8) ** 2
        for n in range(5):
            assert tmss_prob(n, src) == pytest.approx(x ** n / math.cosh(0.8) ** 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            SqueezedSource(r=-1)


class TestHeralding:
    def test_detection_prob_sums_posterior_to_one(self):
        src = SqueezedSource(r=1.2)
        t, eta = 2, 0.8
        total = sum(herald_posterior(n, t, eta, src)
                    for n in range(t, src.cutoff + 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_closed_form_posterior(self):
        # [DERIVED] geometric series: P(n'=t | t) = (1 - (1-eta) tanh^2 r)^(t+1)
        for t in (1, 2, 3):
            for eta in (0.5, 0.87):
                for r in (0.8, 1.5):
                    src = SqueezedSource(r=r)
                    want = (1 - (1 - eta) * math.tanh(r) ** 2) ** (t + 1)
                    assert herald_posterior(t, t, eta, src) == \
                        pytest.approx(want, abs=1e-10)

    def test_frozen_values(self):
        src = SqueezedSource(r=1.5)
        assert herald_posterior(2, 2, 0.87, src) == pytest.approx(0.7133, abs=1e-3)
        assert herald_posterior(3, 3, 0.87, src) == pytest.approx(0.6373, abs=1e-3)

    def test_perfect_detector_posterior_is_delta(self):
        src = SqueezedSource(r=1.0)
        assert herald_posterior(2, 2, 1.0, src) == pytest.approx(1.0)

    def test_detection_prob_total(self):
        src = SqueezedSource(r=1.0)
        total = sum(spdc_detection_prob(t, 0.6, src) for t in range(src.cutoff + 1))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_closed_form_evidence(self):
        # [DERIVED] negative binomial series, summed to infinity:
        # sum_n C(n,t) (eta x)^t ((1-eta) x)^(n-t) (1-x)
        #   = (1-x) (eta x)^t / (1 - (1-eta) x)^(t+1),  x = tanh^2 r
        for r in (0.8, 1.2):
            x = math.tanh(r) ** 2
            for eta in (0.6, 0.87):
                for t in (0, 1, 5, 30):
                    want = (1 - x) * (eta * x) ** t / (1 - (1 - eta) * x) ** (t + 1)
                    got = spdc_detection_prob(t, eta, SqueezedSource(r=r, cutoff=400))
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_large_counts_against_mpmath(self):
        # C(1500, 500) overflows a float
        mpmath = pytest.importorskip("mpmath")
        t, eta, src = 500, 0.8, SqueezedSource(r=3.0, cutoff=1500)
        with mpmath.workdps(40):
            r = mpmath.mpf(src.r)
            x, norm = mpmath.tanh(r) ** 2, mpmath.cosh(r) ** 2
            e, q = mpmath.mpf(eta), 1 - mpmath.mpf(eta)
            w = {n: math.comb(n, t) * e ** t * q ** (n - t) * x ** n / norm
                 for n in range(t, src.cutoff + 1)}
            evidence = mpmath.fsum(w.values())
            got = spdc_detection_prob(t, eta, src)
            assert got == pytest.approx(float(evidence), rel=1e-12, abs=0.0)
            for n_prime in (t, t + 100, 1500):
                want = float(w[n_prime] / evidence)
                assert herald_posterior(n_prime, t, eta, src) == \
                    pytest.approx(want, rel=1e-12, abs=0.0)

    @staticmethod
    def _mpmath_posteriors(t, eta, src, n_primes):
        """w_n' / sum_n w_n from the binomial terms, w_t factored out, at 40 digits."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            x = mpmath.tanh(mpmath.mpf(src.r)) ** 2
            q = 1 - mpmath.mpf(eta)
            w = {n: math.comb(n, t) * (q * x) ** (n - t)
                 for n in range(t, src.cutoff + 1)}
            evidence = mpmath.fsum(w.values())
            return {n: float(w[n] / evidence) for n in n_primes}, max(w.values())

    def test_underflowing_first_term_against_mpmath(self):
        # w_t = (eta tanh^2 r)^t / cosh^2 r is about 1e-561, below any float
        t, eta, src = 400, 0.5, SqueezedSource(r=0.5, cutoff=1500)
        assert (eta * math.tanh(src.r) ** 2) ** t == 0.0
        want, _ = self._mpmath_posteriors(t, eta, src, (t, t + 1, t + 40, t + 100))
        for n_prime, value in want.items():
            assert herald_posterior(n_prime, t, eta, src) == \
                pytest.approx(value, rel=1e-12, abs=0.0)

    def test_relative_terms_beyond_float_range_against_mpmath(self):
        t, eta, src = 300, 0.05, SqueezedSource(r=3.0, cutoff=6000)
        want, largest = self._mpmath_posteriors(t, eta, src, (4000, 4700, 6000))
        assert largest > 1e308
        for n_prime, value in want.items():
            assert herald_posterior(n_prime, t, eta, src) == \
                pytest.approx(value, rel=1e-12, abs=0.0)

    def test_validation(self):
        src = SqueezedSource(r=1.0)
        with pytest.raises(ValueError):
            herald_posterior(1, 2, 0.5, src)
        with pytest.raises(ValueError):
            herald_posterior(2, 1, 0.0, src)


class TestSqueezingDb:
    def test_frozen_values(self):
        assert squeezing_db(1.5) == pytest.approx(-13.0, abs=0.1)
        assert squeezing_db(0.35) == pytest.approx(-3.0, abs=0.1)
        assert squeezing_db(0.0) == 0.0

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            squeezing_db(-0.1)
