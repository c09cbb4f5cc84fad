import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from homlab import MAX_CUTOFF, detector
from homlab.bs_core import BALANCED, BeamSplitterSetting
from homlab.detector import (LossConfig, SqueezedSource, bernoulli_matrix,
                             herald_posterior, lossy_distribution,
                             spdc_detection_prob, squeezing_db)
from homlab.joint_dist import JointDistribution, joint_fs_pure, joint_general
from homlab.states import DiagonalState, coherent, fock, thermal


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


def _traced_peak(call):
    """The result of ``call()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _thermal_cutoff(nbar: float) -> int:
    """The smallest N whose thermal tail (nbar / (1 + nbar))^(N + 1) is below 1e-20."""
    return math.ceil(math.log(1e-20) / math.log(nbar / (1.0 + nbar)))


def _poisson_cutoff(mean: float) -> int:
    """An N >= mean whose Poisson tail, at most p_(N+1) / (1 - mean / (N + 2)),
    is below 1e-20."""
    n = math.ceil(mean)
    while (math.exp((n + 1) * math.log(mean) - mean - math.lgamma(n + 2))
           / (1.0 - mean / (n + 2)) >= 1e-20):
        n += 1
    return n


def _with_loss(kind: str, value, eta: float):
    """A mode's input and, built apart from the loss model, that input after
    loss eta: Fock |n> thinned binomially, thermal nbar as thermal(eta nbar),
    coherent beta as coherent(sqrt(eta) beta); each cut where its tail is below
    1e-20."""
    if kind == "fock":
        return fock(value), DiagonalState(
            [math.comb(value, k) * eta ** k * (1.0 - eta) ** (value - k)
             for k in range(value + 1)])
    if kind == "thermal":
        return (thermal(value, _thermal_cutoff(value)),
                thermal(eta * value, _thermal_cutoff(eta * value)))
    mean = abs(value) ** 2
    return (coherent(value, _poisson_cutoff(mean)),
            coherent(math.sqrt(eta) * value, _poisson_cutoff(eta * mean)))


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
        d = JointDistribution(grid, BALANCED)
        assert self._support(d.grid) == 25
        ea, eb = 0.9, 0.35
        want = bernoulli_matrix(ea, 25) @ d.grid @ bernoulli_matrix(eb, 25).T
        got = lossy_distribution(d, LossConfig(ea, eb)).grid
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cell, k", [((0, 29), 30), ((29, 0), 30), ((3, 4), 5), (None, 0)],
                             ids=["last-column", "last-row", "inside", "all-zero"])
    def test_loss_matrices_span_the_support(self, monkeypatch, cell, k):
        # the only entry that is not +0.0 is a -0.0, which is support
        grid = np.zeros((30, 30))
        if cell is not None:
            grid[cell] = -0.0
        sizes = []
        bernoulli = detector.bernoulli_matrix
        monkeypatch.setattr(detector, "bernoulli_matrix",
                            lambda eta, size: sizes.append(size) or bernoulli(eta, size))
        d = JointDistribution(grid, BALANCED)
        out = lossy_distribution(d, LossConfig(0.9, 0.6)).grid
        assert sizes == [k, k] == [self._support(grid)] * 2
        assert out.tobytes() == np.zeros((30, 30)).tobytes()

    def test_memory_holds_no_grid_sized_index_arrays(self):
        # the output, two loss matrices and the product a @ grid, with the
        # second product written straight into the output: four grids beside
        # the input, three when equal efficiencies share one loss matrix, and
        # no mask or index array of the grid's cells
        d = joint_general((fock(1), thermal(60)), BALANCED)
        for etas, grids in (((0.9, 0.8), 4), ((0.9, 0.9), 3)):
            _, peak = _traced_peak(lambda: lossy_distribution(d, LossConfig(*etas)))
            assert peak < grids * d.grid.nbytes, etas

    def test_perfect_detectors_return_the_input_bit_for_bit(self):
        d = joint_fs_pure(1, coherent(1.5), BALANCED, grid_max=80)
        out = lossy_distribution(d, LossConfig(1.0, 1.0))
        assert out.grid.tobytes() == d.grid.tobytes()

    @pytest.mark.parametrize("grid_max, match", [
        (11585, "^grid_max=11585 needs 134235396 cells for its grid"),
        (-1, "^grid_max=-1 must be non-negative")])
    def test_output_grid_is_checked_before_it_exists(self, monkeypatch, grid_max, match):
        # the output grid counts against GRID_CELLS however small the input's
        d = joint_general((fock(1), fock(0)), BALANCED)

        def no_grid(shape, *args, **kwargs):
            raise AssertionError(f"allocated {shape}")
        monkeypatch.setattr(np, "zeros", no_grid)
        with pytest.raises(ValueError, match=match):
            lossy_distribution(d, LossConfig(0.9, 0.9), grid_max)

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

    # Loss of equal efficiency on both outputs is the same as that loss on
    # both inputs, so the lossy grid must be the engine's grid of the
    # attenuated inputs.  Both sides get explicit cutoffs: with automatic ones
    # they truncate differently and differ by up to 6.7e-12.
    @pytest.mark.parametrize("eta", [0.83, 0.5])
    @pytest.mark.parametrize("bs", [BALANCED,
                                    BeamSplitterSetting.from_transmittance(Fraction(2, 7)),
                                    BeamSplitterSetting.from_angle(1.1)],
                             ids=["T1/2", "T2/7", "theta1.1"])
    @pytest.mark.parametrize("a, b", [
        (("fock", 1), ("thermal", 5.0)), (("fock", 3), ("thermal", 20.0)),
        (("fock", 1), ("coherent", 2.0)), (("fock", 3), ("coherent", 3 + 1j)),
        (("thermal", 2.0), ("thermal", 3.0)), (("coherent", 1.5), ("thermal", 2.0))],
        ids=["fock1-thermal5", "fock3-thermal20", "fock1-coherent2", "fock3-coherent3+1j",
             "thermal2-thermal3", "coherent1.5-thermal2"])
    def test_equal_loss_is_loss_on_the_inputs(self, a, b, bs, eta):
        (state_a, lost_a), (state_b, lost_b) = _with_loss(*a, eta), _with_loss(*b, eta)
        full = joint_general((state_a, state_b), bs,
                             grid_max=max(30, state_a.weights.size + state_b.weights.size - 2))
        got = lossy_distribution(full, LossConfig(eta, eta)).grid[:31, :31]
        want = joint_general((lost_a, lost_b), bs, grid_max=30).grid
        assert np.max(np.abs(got - want)) <= 1e-15


class TestSqueezedSource:
    """The source's pair weights, read as the posterior at eta = 0, which is the prior."""

    def test_pair_weights_normalized(self):
        src = SqueezedSource(r=1.5)
        total = sum(herald_posterior(n, 0, 0.0, src) for n in range(401))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_geometric_form(self):
        src = SqueezedSource(r=0.8)
        x = math.tanh(0.8) ** 2
        for n in range(5):
            assert herald_posterior(n, 0, 0.0, src) == pytest.approx(x ** n / math.cosh(0.8) ** 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            SqueezedSource(r=-1)

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), 356.0, 1e300])
    def test_r_without_float_weights_rejected(self, r):
        # cosh(r)^2 overflows past r = 355.3
        with pytest.raises(ValueError, match=re.escape(f"r={r:g}")):
            SqueezedSource(r=r)


class TestHeralding:
    def test_detection_prob_sums_posterior_to_one(self):
        src = SqueezedSource(r=1.2)
        t, eta = 2, 0.8
        total = sum(herald_posterior(n, t, eta, src) for n in range(t, 401))
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
        total = sum(spdc_detection_prob(t, 0.6, src) for t in range(401))
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
                    got = spdc_detection_prob(t, eta, SqueezedSource(r=r))
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @staticmethod
    def _mpmath_reference(t, eta, r, n_primes):
        """[ORACLE] the evidence sum_(n >= t) w_n of the binomial terms
        w_n = C(n, t) eta^t (1-eta)^(n-t) tanh^(2n) r / cosh^2 r, the posteriors
        w_n' / evidence and the largest w_n / w_t, at 50 digits.  The term ratio
        falls with n, so once it is below 1 it bounds the rest of the series by
        a geometric one; the sum stops when that bound is below 1e-45 of it,
        which leaves the reference untruncated to its precision."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            x = mpmath.tanh(mpmath.mpf(r)) ** 2
            lost = (1 - mpmath.mpf(eta)) * x
            first = (mpmath.mpf(eta) * x) ** t / mpmath.cosh(mpmath.mpf(r)) ** 2

            def w(n):
                return math.comb(n, t) * lost ** (n - t) * first

            terms = {t: first}
            total, n = first, t
            while True:
                ratio = lost * (n + 1) / (n + 1 - t)  # w_(n+1) / w_n
                if ratio < 1 and terms[n] * ratio / (1 - ratio) < 1e-45 * total:
                    break
                n += 1
                terms[n] = w(n)
                total += terms[n]
            posteriors = {m: float(w(m) / total) for m in n_primes}
            return float(total), posteriors, max(terms.values()) / first

    def _check_against_mpmath(self, t, eta, r, n_primes):
        src = SqueezedSource(r=r)
        evidence, posteriors, largest = self._mpmath_reference(t, eta, r, n_primes)
        assert spdc_detection_prob(t, eta, src) == pytest.approx(evidence, rel=1e-12, abs=0.0)
        for n_prime, value in posteriors.items():
            assert herald_posterior(n_prime, t, eta, src) == \
                pytest.approx(value, rel=1e-12, abs=0.0)
        return largest

    def test_large_counts_against_mpmath(self):
        # C(1500, 500) overflows a float, and the posterior there is 1e-341
        self._check_against_mpmath(500, 0.8, 3.0, (500, 600, 1500))

    def test_underflowing_first_term_against_mpmath(self):
        # w_t = (eta tanh^2 r)^t / cosh^2 r is about 1e-561, below any float
        t, eta, r = 400, 0.5, 0.5
        assert (eta * math.tanh(r) ** 2) ** t == 0.0
        self._check_against_mpmath(t, eta, r, (t, t + 1, t + 40, t + 100))

    def test_relative_terms_beyond_float_range_against_mpmath(self):
        # the terms peak near n = 5000 and a sum cut at n = 6000 loses 9.1e-4
        # of the evidence
        largest = self._check_against_mpmath(300, 0.05, 3.0, (4000, 4700, 6000))
        assert largest > 1e308

    def test_slowly_converging_series_against_mpmath(self):
        # q = 0.99 tanh^2 5 = 0.9898: the terms past n = 400 carry q^401 = 1.7 %
        # of the evidence
        self._check_against_mpmath(0, 0.01, 5.0, (0, 1, 100, 2000))

    def test_validation(self):
        src = SqueezedSource(r=1.0)
        with pytest.raises(ValueError):
            herald_posterior(1, 2, 0.5, src)
        with pytest.raises(ValueError):
            herald_posterior(2, 1, 0.0, src)
        with pytest.raises(ValueError, match="t must be non-negative"):
            herald_posterior(-1, -1, 0.5, src)
        # no pair at r = 0: a count t > 0 has probability 0, as at eta = 0
        vacuum = SqueezedSource(r=0.0)
        assert spdc_detection_prob(3, 1.0, vacuum) == 0.0
        for eta in (1.0, 0.5, 0.0):
            with pytest.raises(ValueError, match="only t = 0 is observable"):
                herald_posterior(3, 3, eta, vacuum)
        assert herald_posterior(0, 0, 0.5, vacuum) == 1.0
        with pytest.raises(ValueError, match="^n_prime=100001 exceeds the cutoff bound"):
            herald_posterior(MAX_CUTOFF + 1, 1, 0.5, src)

    @pytest.mark.parametrize("eta", [1.5, -0.1, float("nan")])
    def test_posterior_checks_efficiency(self, eta):
        with pytest.raises(ValueError, match="efficiency"):
            herald_posterior(2, 2, eta, SqueezedSource(r=1.0))

    @pytest.mark.parametrize("r", [20.0, 300.0, 355.0])
    def test_strong_squeezing_against_mpmath(self, r):
        # tanh^2 r rounds to 1 and 1 / cosh^2 r falls to 1e-308 at r = 355
        self._check_against_mpmath(2, 0.87, r, (2, 5, 40))


class TestSqueezingDb:
    def test_frozen_values(self):
        assert squeezing_db(1.5) == pytest.approx(-13.0, abs=0.1)
        assert squeezing_db(0.35) == pytest.approx(-3.0, abs=0.1)
        assert squeezing_db(0.0) == 0.0

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            squeezing_db(-0.1)
