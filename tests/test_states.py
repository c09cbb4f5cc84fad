import cmath
import json
import math

import numpy as np
import pytest
from scipy.stats import poisson

from homlab.states import (EPS_NORM, MixedState, Parity, PureState, coherent,
                           fock, fock_superposition, load_custom, odd_cat,
                           parse_state, photon_added_smss, thermal, validate)


class TestFock:
    def test_basic(self):
        s = fock(3)
        assert s.cutoff == 3
        assert s.norm_squared == 1.0
        assert s.mean_photon_number == 3.0
        assert s.parity_of() is Parity.ODD

    def test_validation(self):
        with pytest.raises(ValueError):
            fock(-1)
        with pytest.raises(ValueError):
            fock(5, cutoff=3)


class TestCoherent:
    def test_poisson_weights(self):
        beta = 1.3
        s = coherent(beta)
        mean = abs(beta) ** 2
        for m in range(6):
            # [DERIVED] Poisson: e^-mean mean^m / m!
            want = math.exp(-mean) * mean ** m / math.factorial(m)
            assert abs(s.amplitudes[m]) ** 2 == pytest.approx(want, rel=1e-12)

    def test_norm_and_mean(self):
        s = coherent(3)
        assert 1.0 - s.norm_squared < EPS_NORM
        assert s.mean_photon_number == pytest.approx(9.0, abs=1e-6)

    def test_vacuum(self):
        s = coherent(0)
        assert s.cutoff == 0
        assert s.amplitudes[0] == 1.0

    def test_complex_amplitude(self):
        s = coherent(1 + 1j)
        assert 1.0 - s.norm_squared < EPS_NORM
        assert s.mean_photon_number == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("modulus", [5, 27, 28, 40])
    def test_cutoff_against_poisson_tail(self, modulus):
        # exp(-|beta|^2) is subnormal from |beta|^2 ~ 708 and 0 from 745, so
        # neither the cutoff nor the amplitudes may start from it
        mean = modulus ** 2
        s = coherent(modulus)
        deficit = poisson.sf(s.cutoff, mean)
        assert deficit < EPS_NORM <= poisson.sf(s.cutoff - 1, mean)
        assert abs(s.norm_squared - (1.0 - deficit)) <= 1e-12

    def test_amplitude_ratios(self):
        # c_m / c_(m-1) = beta / sqrt(m), phase included
        beta = cmath.rect(2.5, 2.0)
        amps = coherent(beta).amplitudes
        np.testing.assert_allclose(amps[1:] / amps[:-1],
                                   beta / np.sqrt(np.arange(1, amps.size)), rtol=1e-12)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), complex(1, float("nan"))])
    def test_non_finite_rejected(self, beta):
        with pytest.raises(ValueError):
            coherent(beta)


class TestThermal:
    def test_geometric_weights(self):
        nbar = 2.0
        s = thermal(nbar)
        diag = np.real(np.diag(s.rho))
        for m in range(5):
            want = nbar ** m / (1 + nbar) ** (m + 1)
            assert diag[m] == pytest.approx(want, rel=1e-12)

    def test_trace_and_mean(self):
        s = thermal(9)
        assert 1.0 - s.trace < EPS_NORM
        assert s.mean_photon_number == pytest.approx(9.0, abs=1e-6)
        assert s.parity_of() is Parity.MIXED

    def test_zero_temperature(self):
        s = thermal(0)
        assert s.cutoff == 0
        assert s.trace == 1.0


class TestOddCat:
    def test_odd_support_and_norm(self):
        s = odd_cat(2)
        assert np.all(s.amplitudes[0::2] == 0)
        assert 1.0 - s.norm_squared < EPS_NORM
        assert s.parity_of() is Parity.ODD

    def test_frozen_amplitude(self):
        # [DERIVED] c_1 = 2 e^{-a^2/2} a / sqrt(2 - 2 e^{-2 a^2}), a = 2
        a = 2.0
        want = 2 * math.exp(-a * a / 2) * a / math.sqrt(2 - 2 * math.exp(-2 * a * a))
        s = odd_cat(a)
        assert s.amplitudes[1].real == pytest.approx(want, rel=1e-12)

    def test_degenerate_alpha(self):
        with pytest.raises(ValueError):
            odd_cat(0)

    @pytest.mark.parametrize("modulus", [27, 38.5, 40])
    def test_bright_cat(self, modulus):
        # |c_m|^2 = 2 Poisson(m; |alpha|^2) on odd m once e^(-2|alpha|^2) = 0;
        # e^(-|alpha|^2/2), the old start of the recurrence, is subnormal at
        # 38.5 and 0 at 40
        s = odd_cat(modulus)
        odd = np.arange(1, s.cutoff + 1, 2)
        np.testing.assert_allclose(np.abs(s.amplitudes[odd]) ** 2,
                                   2 * poisson.pmf(odd, modulus ** 2), rtol=1e-11, atol=1e-300)
        assert 0.0 <= 1.0 - s.norm_squared < EPS_NORM


class TestPhotonAddedSqueezed:
    def test_odd_support_and_norm(self):
        s = photon_added_smss(0.5)
        assert np.all(s.amplitudes[0::2] == 0)
        assert 1.0 - s.norm_squared < EPS_NORM
        assert s.parity_of() is Parity.ODD

    def test_frozen_amplitudes(self):
        # [DERIVED] c_{2k+1} = tanh^k r sqrt((2k+1)!) / (2^k k!) / cosh^{3/2} r
        r = 0.5
        s = photon_added_smss(r)
        for k in range(4):
            want = (math.tanh(r) ** k * math.sqrt(math.factorial(2 * k + 1))
                    / (2 ** k * math.factorial(k)) / math.cosh(r) ** 1.5)
            assert s.amplitudes[2 * k + 1].real == pytest.approx(want, rel=1e-12)

    def test_r_zero_is_single_photon(self):
        s = photon_added_smss(0.0)
        assert abs(s.amplitudes[1]) == pytest.approx(1.0)


class TestSuperposition:
    def test_normalized(self):
        s = fock_superposition({1: 1, 3: 1})
        assert s.norm_squared == pytest.approx(1.0)
        assert abs(s.amplitudes[1]) ** 2 == pytest.approx(0.5)
        assert s.parity_of() is Parity.ODD

    def test_rejects_negative_photon_numbers_and_zero_weight(self):
        # amps[-1] would alias the top photon number; all-zero weights give NaN
        for terms in ({1: 1, -1: 1}, {1: 0}, {0: 0, 2: 0}):
            with pytest.raises(ValueError):
                fock_superposition(terms)
        with pytest.raises(ValueError):
            parse_state("super:1,-1")


class TestValidate:
    def test_pure_report(self):
        rep = validate(coherent(2))
        assert rep.ok()
        assert rep.deficit < EPS_NORM

    def test_mixed_report(self):
        rep = validate(thermal(3))
        assert rep.ok()
        assert rep.hermiticity_residual == 0.0

    def test_truncation_deficit_detected(self):
        clipped = coherent(3, cutoff=4)
        rep = validate(clipped)
        assert not rep.ok()
        assert rep.deficit > 1e-3


class TestParseState:
    def test_descriptors(self):
        assert parse_state("fock:3").label == "fock:3"
        assert parse_state("coherent:beta=3").label == "coherent:beta=3"
        assert parse_state("thermal:nbar=9").label == "thermal:nbar=9"
        assert parse_state("oddcat:alpha=2").label == "oddcat:alpha=2"
        assert parse_state("pasmss:r=0.5").label == "pasmss:r=0.5"
        assert parse_state("super:1,3").norm_squared == pytest.approx(1.0)

    def test_cutoff_override(self):
        s = parse_state("coherent:beta=1", cutoff=5)
        assert s.cutoff == 5

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_state("wigner:q=1")

    @pytest.mark.parametrize("descriptor", ["fock:1", "coherent:beta=1",
                                            "thermal:nbar=1", "oddcat:alpha=1",
                                            "pasmss:r=0.5", "super:1,3"])
    def test_negative_cutoff_rejected(self, descriptor):
        with pytest.raises(ValueError):
            parse_state(descriptor, cutoff=-1)
        # a cutoff below a listed photon number is raised to it, as for fock:
        want = 3 if descriptor == "super:1,3" else 1
        assert parse_state(descriptor, cutoff=1).cutoff == want


class TestCustomFiles:
    def test_pure_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(
            {"type": "pure", "amplitudes": [[0.6, 0.0], [0.0, 0.8]]}))
        s = load_custom(str(path))
        assert isinstance(s, PureState)
        assert s.amplitudes[1] == 0.8j
        via_descriptor = parse_state(f"custom:file={path}")
        assert np.array_equal(via_descriptor.amplitudes, s.amplitudes)

    def test_mixed(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(
            {"type": "mixed", "rho": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}))
        s = load_custom(str(path))
        assert isinstance(s, MixedState)
        assert s.trace == pytest.approx(1.0)

    def test_unknown_type(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "stabilizer"}))
        with pytest.raises(ValueError):
            load_custom(str(path))
