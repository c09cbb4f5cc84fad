import cmath
import json
import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import poisson

from homlab import states
from homlab.bs_core import BALANCED
from homlab.joint_dist import joint_general
from homlab.states import (EPS_NORM, HERMITICITY_TOL, MAX_CUTOFF, DiagonalState, MixedState,
                           PureState, coherent, fock, fock_superposition, load_custom, odd_cat,
                           parse_state, photon_added_smss, thermal)
from test_joint_dist import _mean_photons


def _odd_support(s):
    """All of the state's weight is on odd photon numbers, and some of it is."""
    return not s.weights[0::2].any() and s.weights[1::2].any()


def _cutoff(s):
    """The state's largest photon number, read from its weights."""
    return s.weights.size - 1


def _ok(s):
    """Trace deficit below EPS_NORM and Hermiticity residual within HERMITICITY_TOL."""
    return 1.0 - s.trace < EPS_NORM and s.hermiticity_residual() <= HERMITICITY_TOL


class TestFock:
    def test_basic(self):
        s = fock(3)
        assert _cutoff(s) == 3
        assert not hasattr(s, "rho")
        assert s.trace == 1.0
        assert _mean_photons(s) == 3.0
        assert _odd_support(s)

    def test_validation(self):
        # a negative n is refused before the cutoff, which defaults to n
        with pytest.raises(ValueError, match=r"^fock number n=-1 must be non-negative$"):
            fock(-1)
        with pytest.raises(ValueError, match=r"must lie in \[0, cutoff=3\]"):
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
        assert 1.0 - s.trace < EPS_NORM
        assert _mean_photons(s) == pytest.approx(9.0, abs=1e-6)

    def test_vacuum(self):
        s = coherent(0)
        assert _cutoff(s) == 0
        assert s.amplitudes[0] == 1.0

    def test_complex_amplitude(self):
        s = coherent(1 + 1j)
        assert 1.0 - s.trace < EPS_NORM
        assert _mean_photons(s) == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("modulus", [5, 27, 28, 40])
    def test_cutoff_against_poisson_tail(self, modulus):
        # exp(-|beta|^2) is subnormal from |beta|^2 ~ 708 and 0 from 745, so
        # neither the cutoff nor the amplitudes may start from it
        mean = modulus ** 2
        s = coherent(modulus)
        deficit = poisson.sf(_cutoff(s), mean)
        assert deficit < EPS_NORM <= poisson.sf(_cutoff(s) - 1, mean)
        assert abs(s.trace - (1.0 - deficit)) <= 1e-12

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
        diag = s.weights
        for m in range(5):
            want = nbar ** m / (1 + nbar) ** (m + 1)
            assert diag[m] == pytest.approx(want, rel=1e-12)

    def test_trace_and_mean(self):
        s = thermal(9)
        assert 1.0 - s.trace < EPS_NORM
        assert _mean_photons(s) == pytest.approx(9.0, abs=1e-6)
        assert s.weights[0::2].any() and s.weights[1::2].any()

    def test_is_its_weights(self):
        s = thermal(1)
        assert isinstance(s, DiagonalState)
        assert s.weights.dtype == float and s.weights.ndim == 1
        assert not hasattr(s, "rho")  # only a MixedState stores a dense rho
        assert _ok(s)
        dense = MixedState(np.diag(s.weights))
        assert 1.0 - s.trace == pytest.approx(1.0 - dense.trace, abs=1e-15)

    def test_zero_temperature(self):
        s = thermal(0)
        assert _cutoff(s) == 0
        assert s.trace == 1.0


class TestOddCat:
    def test_odd_support_and_norm(self):
        s = odd_cat(2)
        assert np.all(s.amplitudes[0::2] == 0)
        assert 1.0 - s.trace < EPS_NORM
        assert _odd_support(s)

    def test_frozen_amplitude(self):
        # [DERIVED] c_1 = 2 e^{-a^2/2} a / sqrt(2 - 2 e^{-2 a^2}), a = 2
        a = 2.0
        want = 2 * math.exp(-a * a / 2) * a / math.sqrt(2 - 2 * math.exp(-2 * a * a))
        s = odd_cat(a)
        assert s.amplitudes[1].real == pytest.approx(want, rel=1e-12)

    def test_degenerate_alpha(self):
        with pytest.raises(ValueError):
            odd_cat(0)
        # |alpha|^2 = 1e-320 is subnormal: the cat's norm would be off by 1e-5
        with pytest.raises(ValueError, match="degenerate at"):
            odd_cat(1e-160)

    @pytest.mark.parametrize("alpha, cutoff", [(0.001, 1), (0.01, 3), (0.3, 7), (1, 13), (2, 23),
                                               (3, 33), (5, 63)])
    def test_automatic_cutoff_keeps_the_cat_within_eps(self, alpha, cutoff):
        # [DERIVED] the cat's weights are |alpha|^(2m) / (m! sinh |alpha|^2) on odd
        # m, so its minimal cutoff is odd; below |alpha| = 0.6 renormalising
        # scales the coherent tail by more than 4
        s = odd_cat(alpha)
        assert _cutoff(s) == cutoff
        assert 0.0 <= 1.0 - s.trace <= EPS_NORM
        a2 = abs(alpha) ** 2
        odd = np.arange(1, cutoff + 1, 2)
        want = np.exp(odd * math.log(a2) - np.array([math.lgamma(m + 1) for m in odd]))
        np.testing.assert_allclose(s.weights[odd], want / math.sinh(a2), rtol=1e-12)

    @pytest.mark.parametrize("modulus", [27, 38.5, 40])
    def test_bright_cat(self, modulus):
        # |c_m|^2 = 2 Poisson(m; |alpha|^2) on odd m once e^(-2|alpha|^2) = 0;
        # e^(-|alpha|^2/2), the old start of the recurrence, is subnormal at
        # 38.5 and 0 at 40
        s = odd_cat(modulus)
        odd = np.arange(1, _cutoff(s) + 1, 2)
        np.testing.assert_allclose(np.abs(s.amplitudes[odd]) ** 2,
                                   2 * poisson.pmf(odd, modulus ** 2), rtol=1e-11, atol=1e-300)
        assert 0.0 <= 1.0 - s.trace < EPS_NORM


class TestPhotonAddedSqueezed:
    def test_odd_support_and_norm(self):
        s = photon_added_smss(0.5)
        assert np.all(s.amplitudes[0::2] == 0)
        assert 1.0 - s.trace < EPS_NORM
        assert _odd_support(s)

    def test_frozen_amplitudes(self):
        # [DERIVED] c_{2k+1} = tanh^k r sqrt((2k+1)!) / (2^k k!) / cosh^{3/2} r
        r = 0.5
        s = photon_added_smss(r)
        for k in range(4):
            want = (math.tanh(r) ** k * math.sqrt(math.factorial(2 * k + 1))
                    / (2 ** k * math.factorial(k)) / math.cosh(r) ** 1.5)
            assert s.amplitudes[2 * k + 1].real == pytest.approx(want, rel=1e-12)

    def test_label_names_a_nonzero_phase(self):
        assert photon_added_smss(0.5).label == "pasmss:r=0.5"
        assert photon_added_smss(0.5, phi=0.0).label == "pasmss:r=0.5"
        s = photon_added_smss(0.5, phi=0.25)
        assert s.label == "pasmss:r=0.5,phi=0.25"
        assert parse_state(s.label).amplitudes.tobytes() == s.amplitudes.tobytes()

    def test_huge_phase_is_a_phase(self):
        # k phi passes the float range at phi = 1e308
        s = photon_added_smss(0.5, phi=1e308)
        assert 1.0 - s.trace <= EPS_NORM
        np.testing.assert_allclose(np.abs(s.amplitudes), np.abs(photon_added_smss(0.5).amplitudes),
                                   rtol=1e-15, atol=0)

    def test_r_zero_is_single_photon(self):
        s = photon_added_smss(0.0)
        assert abs(s.amplitudes[1]) == pytest.approx(1.0)


def _poisson_deficit(beta, n):
    return poisson.sf(n, abs(beta) ** 2)


def _thermal_deficit(nbar, n):
    # [DERIVED] the geometric tail beyond n is ratio^(n+1), ratio = nbar / (1+nbar)
    with mp.workdps(30):
        return float((mp.mpf(nbar) / (1 + mp.mpf(nbar))) ** (n + 1))


def _cat_deficit(alpha, n):
    # [DERIVED] the odd cat's weights are 2 Poisson(m; |alpha|^2) / (1 - exp(-2|alpha|^2)) on odd m
    a2 = abs(alpha) ** 2
    m = np.arange(n + 1, int(a2 + 40 * math.sqrt(a2) + 100))
    return 2 * float(np.sum(poisson.pmf(m[m % 2 == 1], a2))) / -math.expm1(-2 * a2)


def _pasmss_deficit(r, n):
    """[DERIVED] The mass beyond photon number n of a^dag|xi> / cosh r.  Its
    weight on 2k+1 is (2k+1) sech^2 r p_k, where p_k = C(2k, k) (t/4)^k sech r,
    t = tanh^2 r, is the squeezed vacuum's negative binomial NB(1/2, t), whose
    tail P(X > K) is I_t(K + 1, 1/2); and k p_k = t / (2 sech^2 r) q_(k-1) with
    q = NB(3/2, t).  So the mass beyond k = K is
    t I_t(K, 3/2) + sech^2 r I_t(K + 1, 1/2), I the regularised incomplete beta."""
    if n == 0:
        return 1.0
    k = (n - 1) // 2
    with mp.workdps(30):
        t = mp.tanh(mp.mpf(r)) ** 2
        beyond_k = mp.betainc(k, 1.5, 0, t, regularized=True) if k else 1
        return float(t * beyond_k + (1 - t) * mp.betainc(k + 1, 0.5, 0, t, regularized=True))


#: each automatic kind: its constructor, an exact oracle of the deficit
#: 1 - (w_0 + ... + w_N), and how far the float weights the cutoff rule sums
#: may put N on the wrong side of EPS_NORM: the thermal weights carry the
#: rounded ratio raised to the m-th power (at most nbar 2^-53), the others only
#: the rounding of their sum at 1.0, as every coherent and cat weight is a
#: Poisson weight from Loader's form, within a few ulp of the exact one.  Over
#: the moduli 0.016 i, i = 1 .. 2500, and 38, 41, ..., 311, each with a seeded
#: phase, every coherent cutoff is the exact minimum and every cat cutoff meets
#: its deficit; the amplitude recurrence these weights replaced drifted by up
#: to 2.1e-12 and left 28 coherent cutoffs off the minimum and 7 cats above it
AUTOMATIC = {"coherent": (coherent, _poisson_deficit, 1e-15),
             "thermal": (thermal, _thermal_deficit, 5e-14),
             "oddcat": (odd_cat, _cat_deficit, 1e-15),
             "pasmss": (photon_added_smss, _pasmss_deficit, 1e-15),
             "bright coherent": (coherent, _poisson_deficit, 1e-15),
             "bright oddcat": (odd_cat, _cat_deficit, 1e-15)}


class TestAutomaticCutoffs:
    """One rule: the smallest N with 1 - (w_0 + ... + w_N) <= EPS_NORM."""

    @pytest.mark.parametrize("kind, param", [
        # 25.16 and the cat's 19.04: log-space Poisson weights left the built
        # state's deficit at 1.004e-10 and 1.000e-10
        *[("coherent", b) for b in (0, 0.5, 2, 5, 10, 15, 20, 25, 25.16, 30, 35, 40)],
        # moduli and phases of the sweep whose recurrence-built cutoff was off the minimum
        *[("coherent", cmath.rect(r, phi)) for r, phi in (
            (17.392, 0.908813520413446), (19.824, 0.9865636467613399),
            (32.96, 2.1564520647667598))],
        *[("bright coherent", cmath.rect(r, phi)) for r, phi in (
            (116, -0.008163581955893395), (191, 1.4061345483850047),
            (278, -1.3003947286289645))],
        # a start from m log(mean) - mean - lgamma(m + 1) gave 100 a cutoff
        # too small for the exact tail, and 281, 300 and 311 none up to MAX_CUTOFF
        *[("bright coherent", b) for b in (100, 200, 212, 266, 281, 299, 300, 311)],
        # 381.2: the summed weights of the rounded ratio move the closed form's cutoff by one
        *[("thermal", n) for n in (0, 0.01, 0.5, 1, 4, 20, 60, 100, 250, 381.2, 400)],
        *[("oddcat", a) for a in (0.001, 0.01, 0.1, 0.3, 0.6, 1, 2, 3, 5, 10, 19.04, 20, 40)],
        *[("bright oddcat", a) for a in (224, 300)],
        # cats of the sweep that the recurrence left above EPS_NORM
        *[("oddcat", cmath.rect(37.312, -1.0034750732682887))],
        *[("bright oddcat", cmath.rect(r, phi)) for r, phi in (
            (101, 2.6863390785792154), (173, 2.403624026672216), (251, 1.9266212102686477))],
        # 3.44: the exact deficit at N - 2 is within 5e-16 of EPS_NORM
        *[("pasmss", r) for r in (0, 0.05, 0.1, 0.5, 1, 1.5, 2, 2.5, 3, 3.44, 4.4)]])
    def test_cutoff_is_minimal(self, kind, param):
        build, deficit, tol = AUTOMATIC[kind]
        state = build(param)
        n = _cutoff(state)
        assert deficit(param, n) <= EPS_NORM + tol
        assert n == 0 or deficit(param, n - 1) > EPS_NORM - tol
        assert 1.0 - state.trace <= EPS_NORM
        if kind.endswith(("oddcat", "pasmss")):
            assert n % 2 == 1 and _odd_support(state)

    def test_pasmss_oracle_sums_the_weights(self):
        # (2k+1)! / (4^k k!^2) tanh^(2k) r / cosh^3 r, summed term by term
        with mp.workdps(30):
            r = mp.mpf(0.5)
            weights = [mp.factorial(2 * k + 1) / (4 ** k * mp.factorial(k) ** 2)
                       * mp.tanh(r) ** (2 * k) / mp.cosh(r) ** 3 for k in range(20)]
            for n in range(1, 40):
                want = 1 - mp.fsum(weights[:(n + 1) // 2])
                assert _pasmss_deficit(0.5, n) == pytest.approx(float(want), rel=1e-12)

    def test_pasmss_within_the_bound_builds(self):
        # the power-of-two probe refused r = 4.3 and 4.4 at 131072 photons
        assert _cutoff(parse_state("pasmss:r=4.4")) == 82169
        assert _pasmss_deficit(4.5, 100000) > EPS_NORM
        with pytest.raises(ValueError, match=re.escape("pasmss:r=4.5")):
            parse_state("pasmss:r=4.5")

    def test_underflowed_weights_are_not_computed(self, monkeypatch):
        # past the mean, the Poisson weights stop at the first that underflows
        # (m = 178 for mean 1); below a bright state's first float weight a
        # bisection replaces the scan
        calls = []

        def counted(m, mean):
            calls.append(m)
            return log_poisson(m, mean)

        log_poisson = states._log_poisson
        monkeypatch.setattr(states, "_log_poisson", counted)
        assert _cutoff(coherent(1, cutoff=MAX_CUTOFF)) == MAX_CUTOFF
        assert len(calls) < 300
        calls.clear()
        assert _cutoff(coherent(300)) == 91915
        assert len(calls) < 20000

    def test_coherent_beyond_the_bound_is_refused(self):
        # Poisson mean 102400: the exact tail at MAX_CUTOFF is far above EPS_NORM
        assert _poisson_deficit(320, MAX_CUTOFF) > EPS_NORM
        with pytest.raises(ValueError, match=re.escape("no cutoff up to 100000 holds all but "
                                                       "1e-10 of coherent:beta=320")):
            parse_state("coherent:beta=320")
        # (m - mean) / mean rounds to -1 here, where log1p raised "math domain error"
        with pytest.raises(ValueError, match=re.escape("of coherent:beta=1e+11")):
            parse_state("coherent:beta=1e11")


class TestCutoffBound:
    """No state is built with a cutoff above MAX_CUTOFF: an explicit cutoff, a
    Fock number or a superposition's largest photon number beyond it is a
    ValueError that names it, raised before any array exists."""

    @pytest.mark.parametrize("descriptor", ["fock:1", "coherent:beta=1", "thermal:nbar=1",
                                            "oddcat:alpha=1", "pasmss:r=0.5", "super:1,3"])
    def test_explicit_cutoff(self, descriptor):
        assert _cutoff(parse_state(descriptor, cutoff=MAX_CUTOFF)) == MAX_CUTOFF
        with pytest.raises(ValueError, match=r"^cutoff=100001 exceeds the cutoff bound"):
            parse_state(descriptor, cutoff=MAX_CUTOFF + 1)

    def test_photon_numbers(self):
        assert _cutoff(fock(MAX_CUTOFF)) == MAX_CUTOFF
        with pytest.raises(ValueError, match=r"^fock number n=100001 exceeds"):
            parse_state("fock:100001")
        with pytest.raises(ValueError, match=r"^superposition photon number n=100001 exceeds"):
            parse_state("super:1,100001")


class TestSuperposition:
    def test_normalized(self):
        s = fock_superposition({1: 1, 3: 1})
        assert s.trace == pytest.approx(1.0)
        assert abs(s.amplitudes[1]) ** 2 == pytest.approx(0.5)
        assert _odd_support(s)

    def test_rejects_negative_photon_numbers_and_zero_weight(self):
        # amps[-1] would alias the top photon number; all-zero weights give NaN
        for terms in ({1: 1, -1: 1}, {1: 0}, {0: 0, 2: 0}):
            with pytest.raises(ValueError):
                fock_superposition(terms)
        with pytest.raises(ValueError):
            parse_state("super:1,-1")


class TestTraceAndHermiticity:
    def test_pure_state(self):
        s = coherent(2)
        assert _ok(s)
        assert 1.0 - s.trace < EPS_NORM

    def test_mixed_state(self):
        s = thermal(3)
        assert _ok(s)
        assert s.hermiticity_residual() == 0.0

    def test_hermiticity_verdict_matches_the_engine(self):
        # residual 5e-11: within the one tolerance, HERMITICITY_TOL, that joint_general reads
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = 5e-11
        state = MixedState(rho)
        assert state.hermiticity_residual() == 5e-11
        assert _ok(state)
        assert joint_general((fock(1), state), BALANCED).total_mass == pytest.approx(1.0)
        rho[0, 1] = 2e-10
        assert not _ok(MixedState(rho))
        with pytest.raises(ValueError, match="Hermitian"):
            joint_general((fock(1), MixedState(rho)), BALANCED)

    @pytest.mark.parametrize("row", [0, 2])
    def test_nan_anywhere_is_not_hermitian(self, row):
        # the check reads rho a row at a time; a NaN in any row must not be
        # dropped by the maximum over rows
        rho = np.diag([0.25, 0.25, 0.5]).astype(complex)
        rho[row, 1] = rho[1, row] = np.nan
        assert math.isnan(MixedState(rho).hermiticity_residual())
        with pytest.raises(ValueError, match="Hermitian"):
            joint_general((fock(1), MixedState(rho)), BALANCED)

    def test_truncation_deficit_detected(self):
        clipped = coherent(3, cutoff=4)
        assert not _ok(clipped)
        assert 1.0 - clipped.trace > 1e-3


#: descriptors refused with a message that names the parameter, and the
#: cutoff they are parsed with
BEYOND_FLOATS = [
    ("coherent:beta=1e200", "beta=1e+200", None), ("coherent:beta=1.5e308+1.5e308j", "beta=", None),
    ("oddcat:alpha=1e200", "alpha=1e+200", None), ("pasmss:r=1e6", "r=1e+06", None),
    # nbar = 1e308 rounds the geometric ratio to 1; 1e12 needs a cutoff of 2e13
    ("thermal:nbar=1e308", "nbar=1e+308", None), ("thermal:nbar=1e12", "nbar=1e+12", None),
    ("thermal:nbar=inf", "nbar=inf", None),
    # a NaN would build NaN weights, whether or not the cutoff is given
    ("thermal:nbar=nan", "nbar=nan", None), ("thermal:nbar=nan", "nbar=nan", 5),
    ("pasmss:r=0.5,phi=nan", "phi=nan", None), ("pasmss:r=0.5,phi=nan", "phi=nan", 5),
]


class TestParseState:
    def test_descriptors(self):
        assert parse_state("fock:3").label == "fock:3"
        assert parse_state("coherent:beta=3").label == "coherent:beta=3"
        assert parse_state("thermal:nbar=9").label == "thermal:nbar=9"
        assert parse_state("oddcat:alpha=2").label == "oddcat:alpha=2"
        assert parse_state("pasmss:r=0.5").label == "pasmss:r=0.5"
        assert parse_state("super:1,3").trace == pytest.approx(1.0)

    def test_cutoff_override(self):
        s = parse_state("coherent:beta=1", cutoff=5)
        assert _cutoff(s) == 5

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_state("wigner:q=1")

    @pytest.mark.parametrize("descriptor, name, cutoff", BEYOND_FLOATS,
                             ids=[f"{d}-{n}" + (f"-cutoff={c}" if c is not None else "")
                                  for d, n, c in BEYOND_FLOATS])
    def test_parameter_beyond_floats_is_named(self, descriptor, name, cutoff):
        with pytest.raises(ValueError, match=re.escape(name)):
            parse_state(descriptor, cutoff=cutoff)

    @pytest.mark.parametrize("descriptor", ["fock:1", "coherent:beta=1",
                                            "thermal:nbar=1", "oddcat:alpha=1",
                                            "pasmss:r=0.5", "super:1,3"])
    def test_negative_cutoff_rejected(self, descriptor):
        with pytest.raises(ValueError):
            parse_state(descriptor, cutoff=-1)
        # a cutoff below a listed photon number is raised to it, as for fock:
        want = 3 if descriptor == "super:1,3" else 1
        assert _cutoff(parse_state(descriptor, cutoff=1)) == want


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
