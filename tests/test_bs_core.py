import math
from fractions import Fraction

import numpy as np
import pytest

from homlab.bs_core import (BALANCED, BeamSplitterSetting, amplitude_blocks,
                            bs_coefficient, bs_prob_exact, cos_factor_residual,
                            g_poly, measured_amplitude, transform_fock_pair)
from homlab.numerics import binomial, falling_factorial


class TestBeamSplitterSetting:
    def test_exact_mode(self):
        bs = BeamSplitterSetting.from_transmittance(Fraction(3, 4))
        assert bs.is_exact
        assert bs.transmittance == Fraction(3, 4)
        assert bs.reflectance == Fraction(1, 4)
        assert bs.cos_half == pytest.approx(math.sqrt(0.75))

    def test_angle_mode(self):
        bs = BeamSplitterSetting.from_angle(math.pi / 3)
        assert not bs.is_exact
        # T = cos^2(pi/6) = 3/4
        assert bs.transmittance == pytest.approx(0.75)

    def test_parse(self):
        assert BeamSplitterSetting.parse("1/2").exact_t == Fraction(1, 2)
        assert BeamSplitterSetting.parse("theta=1.0472").theta == 1.0472

    def test_validation(self):
        with pytest.raises(ValueError):
            BeamSplitterSetting(exact_t=Fraction(3, 2))
        with pytest.raises(ValueError):
            BeamSplitterSetting(theta=-0.1)
        with pytest.raises(ValueError):
            BeamSplitterSetting()
        with pytest.raises(ValueError):
            BeamSplitterSetting(exact_t=Fraction(1, 2), theta=1.0)

    def test_angle_round_trip(self):
        assert BALANCED.angle == pytest.approx(math.pi / 2)


def _g_oracle(m_a, m_b, n, t):
    """Independent evaluation from the defining sum with explicit Fractions."""
    t = Fraction(t)
    r = 1 - t
    return sum(binomial(n, q) * (-1) ** q * falling_factorial(m_a, n - q)
               * t ** (n - q) * falling_factorial(m_b, q) * r ** q
               for q in range(n + 1))


class TestGPoly:
    def test_frozen_values(self):
        # [DERIVED] n=1: T m_a - R m_b; n=2 balanced: ((m_a-m_b)^2-(m_a+m_b))/4
        assert g_poly(1, 1, 1, BALANCED) == 0
        assert g_poly(3, 1, 1, BALANCED) == 1
        assert g_poly(2, 2, 2, BALANCED) == Fraction(-1)
        assert g_poly(1, 0, 2, BALANCED) == 0
        bs34 = BeamSplitterSetting.from_transmittance(Fraction(3, 4))
        assert g_poly(1, 1, 1, bs34) == Fraction(1, 2)
        assert g_poly(1, 3, 1, bs34) == 0

    def test_matches_defining_sum(self):
        for t in (Fraction(1, 2), Fraction(3, 4), Fraction(2, 7)):
            bs = BeamSplitterSetting.from_transmittance(t)
            for n in range(5):
                for m_a in range(7):
                    for m_b in range(7):
                        assert g_poly(m_a, m_b, n, bs) == _g_oracle(m_a, m_b, n, t)

    def test_float_mode(self):
        bs = BeamSplitterSetting.from_angle(1.234)
        t = bs.transmittance
        val = g_poly(2, 3, 2, bs)
        oracle = float(t ** 2 * 2 - 2 * t * (1 - t) * 6 + (1 - t) ** 2 * 6)
        assert val == pytest.approx(oracle, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            g_poly(-1, 0, 1, BALANCED)


def _amplitude_oracle(n, m, p, t):
    """Exact-arithmetic expansion of the transformed-state amplitude.

    All terms of the double sum share the parities of the two trig exponents,
    so the amplitude factors as sqrt(T)^ea sqrt(R)^eb times a rational sum;
    every piece is computed with Fractions and rooted only at the end.
    """
    t = Fraction(t)
    r = 1 - t
    norm2 = Fraction(math.factorial(p) * math.factorial(n + m - p),
                     math.factorial(n) * math.factorial(m))
    qs = range(max(0, p - m), min(n, p) + 1)
    terms = [(binomial(n, q) * binomial(m, p - q) * (-1) ** (p - q),
              m + 2 * q - p, n + p - 2 * q) for q in qs]
    if not terms:
        return 0.0
    ea = terms[0][1] % 2
    eb = terms[0][2] % 2
    rational = sum(c * t ** ((a - ea) // 2) * r ** ((b - eb) // 2)
                   for c, a, b in terms)
    sign = 1.0 if rational >= 0 else -1.0
    return sign * math.sqrt(float(norm2 * rational ** 2 * t ** ea * r ** eb))


class TestAmplitudes:
    def test_symbolic_expansion_oracle(self):
        # every amplitude up to n + m <= 12 against the exact-root expansion
        for t in (Fraction(1, 2), Fraction(3, 4)):
            bs = BeamSplitterSetting.from_transmittance(t)
            for n in range(13):
                for m in range(13 - n):
                    for p in range(n + m + 1):
                        got = bs_coefficient(n, m, p, bs)
                        want = _amplitude_oracle(n, m, p, t)
                        assert got == pytest.approx(want, abs=1e-12), (n, m, p)

    def test_compact_and_expanded_agree_at_angle(self):
        bs = BeamSplitterSetting.from_angle(0.777)
        t = Fraction(bs.transmittance).limit_denominator(10 ** 15)
        for n in range(7):
            for m in range(7):
                for p in range(n + m + 1):
                    got = bs_coefficient(n, m, p, bs) ** 2
                    want = float(bs_prob_exact(n, p, n + m - p, t))
                    assert got == pytest.approx(want, abs=1e-10)

    def test_unitarity(self):
        for bs in (BALANCED, BeamSplitterSetting.from_angle(1.0),
                   BeamSplitterSetting.from_transmittance(Fraction(2, 7))):
            for n in range(16):
                for m in range(16):
                    if n + m > 30:
                        continue
                    vec = transform_fock_pair(n, m, bs)
                    assert float((vec ** 2).sum()) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_angles(self):
        # theta = 0: perfect transmission, |n, m> stays put (p = n)
        bs0 = BeamSplitterSetting.from_transmittance(Fraction(1))
        assert bs_coefficient(2, 3, 2, bs0) == pytest.approx(1.0)
        assert bs_coefficient(2, 3, 4, bs0) == pytest.approx(0.0)
        bs1 = BeamSplitterSetting.from_transmittance(Fraction(0))
        assert abs(bs_coefficient(2, 3, 3, bs1)) == pytest.approx(1.0)

    def test_rejects_negative_photon_numbers(self):
        for n, m in ((-1, 3), (2, -1)):
            with pytest.raises(ValueError):
                bs_coefficient(n, m, 0, BALANCED)
            with pytest.raises(ValueError):
                transform_fock_pair(n, m, BALANCED)

    def test_measured_amplitude_below_threshold(self):
        assert measured_amplitude(3, 1, 1, BALANCED) == 0.0

    def test_hom(self):
        amp = measured_amplitude(1, 1, 1, BALANCED)
        assert amp == 0.0
        assert measured_amplitude(1, 2, 0, BALANCED) ** 2 == pytest.approx(0.5)


def _wigner_d_mp(s, p, n, theta):
    """d^J_{M', M}(theta) with J = s/2, M' = p - J, M = n - J, from Wigner's
    explicit sum in the working precision of mpmath."""
    import mpmath
    c, sn = mpmath.cos(mpmath.mpf(theta) / 2), mpmath.sin(mpmath.mpf(theta) / 2)
    norm = mpmath.sqrt(mpmath.factorial(p) * mpmath.factorial(s - p)
                       * mpmath.factorial(n) * mpmath.factorial(s - n))
    total = mpmath.mpf(0)
    for k in range(max(0, n - p), min(n, s - p) + 1):
        term = norm / (mpmath.factorial(n - k) * mpmath.factorial(k)
                       * mpmath.factorial(s - p - k) * mpmath.factorial(k - n + p))
        total += (-1) ** (k - n + p) * term * c ** (s - 2 * k + n - p) * sn ** (2 * k - n + p)
    return total


class TestAmplitudeBlocks:
    """The block recurrence against oracles that share none of its code."""

    @pytest.mark.parametrize("bs", [BALANCED, BeamSplitterSetting.from_angle(1.1)])
    def test_orthogonal_up_to_400(self, bs):
        for s, u in enumerate(amplitude_blocks(bs, 400)):
            assert np.max(np.abs(u.T @ u - np.eye(s + 1))) <= 1e-12, s

    def test_central_element_at_200_photons_per_mode(self):
        # d^J_00(pi/2) = P_J(0) = C(J, J/2) / 2^J for J = 200
        want = math.comb(200, 100) / 2 ** 200
        assert bs_coefficient(200, 200, 200, BALANCED) == pytest.approx(want, rel=1e-12)

    def test_mpmath_wigner_sum(self):
        mpmath = pytest.importorskip("mpmath")
        theta = 1.1
        blocks = list(amplitude_blocks(BeamSplitterSetting.from_angle(theta), 120))
        with mpmath.workdps(50):
            for s, stride in ((40, 1), (120, 7)):
                for p in range(0, s + 1, stride):
                    for n in range(0, s + 1, stride):
                        want = float(_wigner_d_mp(s, p, n, theta))
                        assert abs(blocks[s][p, n] - want) <= 1e-13, (s, p, n)


class TestParitySymmetry:
    def test_exact_swap_relation(self):
        # swapping the photon labels and T <-> R flips the sign by (-1)^n
        for t in (Fraction(1, 2), Fraction(3, 4), Fraction(1, 3)):
            bs = BeamSplitterSetting.from_transmittance(t)
            swapped = BeamSplitterSetting.from_transmittance(1 - t)
            for n in range(7):
                for m_a in range(13):
                    for m_b in range(13):
                        lhs = g_poly(m_b, m_a, n, swapped)
                        rhs = (-1) ** n * g_poly(m_a, m_b, n, bs)
                        assert lhs == rhs


class TestExactProbability:
    def test_frozen_values(self):
        # [DERIVED] single photon through T=3/4: P(transmit) = 3/4;
        # |1,1> coincidence P(1,1) = (T-R)^2 = 1/4
        assert bs_prob_exact(1, 1, 0, Fraction(3, 4)) == Fraction(3, 4)
        assert bs_prob_exact(1, 1, 1, Fraction(3, 4)) == Fraction(1, 4)
        assert bs_prob_exact(1, 1, 1, Fraction(1, 2)) == 0
        # [DERIVED] |2,2> balanced: P(2,2)=1/4, P(4,0)=P(0,4)=3/8, odd=0
        assert bs_prob_exact(2, 2, 2, Fraction(1, 2)) == Fraction(1, 4)
        assert bs_prob_exact(2, 4, 0, Fraction(1, 2)) == Fraction(3, 8)
        assert bs_prob_exact(2, 3, 1, Fraction(1, 2)) == 0

    def test_row_sums_to_one(self):
        for t in (Fraction(1, 2), Fraction(2, 5)):
            for n in range(4):
                for m in range(4):
                    total = sum(bs_prob_exact(n, p, n + m - p, t)
                                for p in range(n + m + 1))
                    assert total == 1

    def test_matches_float_amplitude(self):
        t = Fraction(3, 4)
        bs = BeamSplitterSetting.from_transmittance(t)
        for n in range(5):
            for m_a in range(6):
                for m_b in range(6):
                    exact = float(bs_prob_exact(n, m_a, m_b, t))
                    approx = measured_amplitude(n, m_a, m_b, bs) ** 2
                    assert approx == pytest.approx(exact, abs=1e-12)


class TestCosFactorResidual:
    def test_factorization(self):
        # (T - R) * residual reproduces the diagonal polynomial for odd n
        for t in (Fraction(1, 2), Fraction(3, 4), Fraction(2, 7)):
            bs = BeamSplitterSetting.from_transmittance(t)
            for n in (1, 3, 5, 7):
                for mp in range(13):
                    lhs = (t - (1 - t)) * cos_factor_residual(mp, n, bs)
                    assert lhs == g_poly(mp, mp, n, bs)

    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            cos_factor_residual(2, 2, BALANCED)
