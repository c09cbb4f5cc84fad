import math
from fractions import Fraction

import numpy as np
import pytest

from homlab.bs_core import (BALANCED, BeamSplitterSetting, amplitude_blocks, bs_prob_exact,
                            measured_amplitude)
from homlab.nodal import cos_factor_residual, g_poly


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
        with pytest.raises(ValueError, match="denominator is 0"):
            BeamSplitterSetting.parse("1/0")

    def test_validation(self):
        with pytest.raises(ValueError):
            BeamSplitterSetting(exact_t=Fraction(3, 2))
        with pytest.raises(ValueError):
            BeamSplitterSetting(theta=-0.1)
        with pytest.raises(ValueError):
            BeamSplitterSetting()
        with pytest.raises(ValueError):
            BeamSplitterSetting(exact_t=Fraction(1, 2), theta=1.0)


def _falling(x, q):
    return math.prod(range(x - q + 1, x + 1))


def _g_oracle(m_a, m_b, n, t):
    """Independent evaluation from the defining sum with explicit Fractions."""
    t = Fraction(t)
    r = 1 - t
    return sum(math.comb(n, q) * (-1) ** q * _falling(m_a, n - q)
               * t ** (n - q) * _falling(m_b, q) * r ** q
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

    def test_rejects_angle(self):
        # g is exact only; an angle has no rational T
        bs = BeamSplitterSetting.from_angle(1.234)
        with pytest.raises(ValueError, match="rational"):
            g_poly(2, 3, 2, bs)
        with pytest.raises(ValueError, match="rational"):
            cos_factor_residual(2, 3, bs)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            g_poly(-1, 0, 1, BALANCED)


def _expansion(n, m, p):
    """The amplitude f^(n,m)_p as norm2^(1/2) times the sum of
    k cos(theta/2)^i sin(theta/2)^j over the returned (k, i, j): the binomial
    expansion of (c a^dag + s b^dag)^n (c b^dag - s a^dag)^m at a^dag^p."""
    norm2 = Fraction(math.factorial(p) * math.factorial(n + m - p),
                     math.factorial(n) * math.factorial(m))
    return norm2, [(math.comb(n, q) * math.comb(m, p - q) * (-1) ** (p - q),
                    m + 2 * q - p, n + p - 2 * q)
                   for q in range(max(0, p - m), min(n, p) + 1)]


def _amplitude_oracle(n, m, p, t):
    """Exact-arithmetic expansion of the transformed-state amplitude.

    All terms of the sum share the parities of the two trig exponents,
    so the amplitude factors as sqrt(T)^ea sqrt(R)^eb times a rational sum;
    every piece is computed with Fractions and rooted only at the end.
    """
    t = Fraction(t)
    r = 1 - t
    norm2, terms = _expansion(n, m, p)
    if not terms:
        return 0.0
    ea = terms[0][1] % 2
    eb = terms[0][2] % 2
    rational = sum(c * t ** ((a - ea) // 2) * r ** ((b - eb) // 2)
                   for c, a, b in terms)
    sign = 1.0 if rational >= 0 else -1.0
    return sign * math.sqrt(float(norm2 * rational ** 2 * t ** ea * r ** eb))


def _last_block(bs, s):
    """U_s, the last block of ``amplitude_blocks(bs, s)``."""
    for u in amplitude_blocks(bs, s):
        pass
    return u


class TestAmplitudes:
    """Single amplitudes f^(n,m)_p, read as U_{n+m}[p, n] off ``amplitude_blocks``."""

    def test_symbolic_expansion_oracle(self):
        # every amplitude up to n + m <= 12 against the exact-root expansion
        for t in (Fraction(1, 2), Fraction(3, 4)):
            bs = BeamSplitterSetting.from_transmittance(t)
            for s, u in enumerate(amplitude_blocks(bs, 12)):
                for n in range(s + 1):
                    for p in range(s + 1):
                        want = _amplitude_oracle(n, s - n, p, t)
                        assert u[p, n] == pytest.approx(want, abs=1e-12), (n, s - n, p)

    def test_compact_and_expanded_agree_at_angle(self):
        bs = BeamSplitterSetting.from_angle(0.777)
        t = Fraction(bs.transmittance).limit_denominator(10 ** 15)
        blocks = list(amplitude_blocks(bs, 12))
        for n in range(7):
            for m in range(7):
                u = blocks[n + m]
                for p in range(n + m + 1):
                    want = float(bs_prob_exact(n, p, n + m - p, t))
                    assert u[p, n] ** 2 == pytest.approx(want, abs=1e-10)

    def test_unitarity(self):
        # each column is a transformed input |n, s - n>, so has unit norm
        for bs in (BALANCED, BeamSplitterSetting.from_angle(1.0),
                   BeamSplitterSetting.from_transmittance(Fraction(2, 7))):
            for s, u in enumerate(amplitude_blocks(bs, 30)):
                for n in range(max(0, s - 15), min(s, 15) + 1):
                    assert float((u[:, n] ** 2).sum()) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_angles(self):
        # theta = 0: perfect transmission, |n, m> stays put (p = n)
        bs0 = BeamSplitterSetting.from_transmittance(Fraction(1))
        assert _last_block(bs0, 5)[2, 2] == pytest.approx(1.0)
        assert _last_block(bs0, 5)[4, 2] == pytest.approx(0.0)
        bs1 = BeamSplitterSetting.from_transmittance(Fraction(0))
        assert abs(_last_block(bs1, 5)[3, 2]) == pytest.approx(1.0)
        assert measured_amplitude(2, 3, 2, bs1) ** 2 == pytest.approx(1.0)

    def test_rejects_negative_photon_numbers(self):
        for n, m_a, m_b in ((-1, 3, 0), (2, -1, 0), (1, -1, 0), (1, 0, -1)):
            with pytest.raises(ValueError):
                measured_amplitude(n, m_a, m_b, BALANCED)

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
        assert _last_block(BALANCED, 400)[200, 200] == pytest.approx(want, rel=1e-12)

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


def _full_blocks_reference(bs, s_max):
    """The full-block recurrence U_s, s = 0 .. s_max, frozen as it stood
    before the band: every column of every block."""
    c, sn = bs.cos_half, bs.sin_half
    u = np.ones((1, 1))
    for s in range(s_max + 1):
        if s:
            root = np.sqrt(np.arange(s + 1.0))
            up = np.zeros((s + 1, s))
            up[1:] = root[1:, None] * u
            down = np.zeros((s + 1, s))
            down[:-1] = root[:0:-1, None] * u
            u = np.zeros((s + 1, s + 1))
            u[:, 1:] = (c * up + sn * down) * root[1:]
            u[:, :-1] += (c * down - sn * up) * root[:0:-1]
            u /= s
        yield u


def _same_bits(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


T27 = BeamSplitterSetting.from_transmittance(Fraction(2, 7))
THETA = BeamSplitterSetting.from_angle(1.1)


class TestBandBlocks:
    """Band blocks against the frozen full-block recurrence, bit for bit
    (uint64 views, so signed zeros count), and against mpmath."""

    @pytest.mark.parametrize("bs, shapes", [
        (BALANCED, [(2, 473), (4, 300), (300, 4), (201, 201), (41, 41), (1, 50), (50, 1),
                    (10, 11)]),
        (THETA, [(3, 200)]),
        (T27, [(61, 61)])])
    def test_band_is_the_full_blocks_columns(self, bs, shapes):
        # one reference pass per setting serves every shape
        bands = {dims: amplitude_blocks(bs, sum(dims) - 2, dims) for dims in shapes}
        for s, full in enumerate(_full_blocks_reference(bs, max(map(sum, shapes)) - 2)):
            for (dim_a, dim_b), blocks in bands.items():
                if s <= dim_a + dim_b - 2:
                    lo, hi = max(0, s - dim_b + 1), min(dim_a - 1, s)
                    assert _same_bits(next(blocks), full[:, lo:hi + 1]), (dim_a, dim_b, s)
        assert all(next(blocks, None) is None for blocks in bands.values())

    @pytest.mark.parametrize("bs", [BALANCED, THETA, T27])
    def test_full_blocks_unchanged(self, bs):
        pairs = zip(_full_blocks_reference(bs, 150), amplitude_blocks(bs, 150))
        assert all(_same_bits(band, full) for full, band in pairs)

    @pytest.mark.parametrize("bs", [BALANCED, THETA, BeamSplitterSetting.from_transmittance(0)])
    def test_measured_amplitude_is_the_block_entry(self, bs):
        for s, full in enumerate(_full_blocks_reference(bs, 12)):
            for n in range(s + 1):
                for m_a in range(s + 1):
                    assert _same_bits(measured_amplitude(n, m_a, s - m_a, bs), full[m_a, n])

    @pytest.mark.parametrize("bs", [BALANCED, T27, THETA])
    def test_window_and_band_are_the_full_blocks_slice(self, bs):
        # random dims and windows: every block is the slice of amplitude_blocks(bs, s_max)
        # on the window's rows and the band's columns, and a single amplitude is its entry
        rng = np.random.default_rng(32)
        full = list(amplitude_blocks(bs, 116))
        for dims, window in rng.integers(1, 60, (12, 2, 2)).tolist():
            s_max = min(sum(dims), sum(window)) - 2
            (w_a, w_b), (d_a, d_b) = window, dims
            for s, u in enumerate(amplitude_blocks(bs, s_max, dims, window)):
                want = full[s][max(0, s - w_b + 1):min(w_a, s + 1),
                               max(0, s - d_b + 1):min(d_a, s + 1)]
                assert _same_bits(u, want), (dims, window, s)
            assert s == s_max
        for n, m_a, m_b in rng.integers(0, 40, (40, 3)).tolist():
            if n <= m_a + m_b:
                assert _same_bits(measured_amplitude(n, m_a, m_b, bs), full[m_a + m_b][m_a, n])

    def test_lopsided_band_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for s, u in enumerate(amplitude_blocks(THETA, 120, (3, 200))):
                assert u.shape == (s + 1, min(s, 2) + 1)
                for p in range(0, s + 1, 1 + s // 20):
                    for n in range(u.shape[1]):
                        want = float(_wigner_d_mp(s, p, n, 1.1))
                        assert abs(u[p, n] - want) <= 1e-13, (s, p, n)


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


def _prob_oracle(n, m_a, m_b, t):
    """|f^(n, m)_{m_a}|^2 as the double sum over pairs of ``_expansion``
    terms: every square root appears squared, so each product is an exact T/R
    monomial.  It shares no code with the zero polynomial."""
    t = Fraction(t)
    r = 1 - t
    m = m_a + m_b - n
    if m < 0:
        return Fraction(0)
    norm, terms = _expansion(n, m, m_a)
    total = Fraction(0)
    for c1, a1, b1 in terms:
        for c2, a2, b2 in terms:
            total += c1 * c2 * t ** ((a1 + a2) // 2) * r ** ((b1 + b2) // 2)
    return norm * total


class TestExactProbability:
    @pytest.mark.parametrize("t", ["0", "1", "1/2", "3/4", "2/7", "1/3", "5/9"])
    def test_double_sum_oracle(self, t):
        # the whole box, T = 0 and 1 included, where the powers of T or R in
        # the g identity would go negative
        t = Fraction(t)
        for n in range(9):
            for m_a in range(13):
                for m_b in range(13):
                    got = bs_prob_exact(n, m_a, m_b, t)
                    assert type(got) is Fraction
                    assert got == _prob_oracle(n, m_a, m_b, t), (n, m_a, m_b)

    @pytest.mark.parametrize("n", [40, 80, 150])
    def test_mpmath_wigner_sum_at_large_n(self, n):
        # (n, n) measured from |n, n> at T = 1/3: d^n_00 of the 2n-photon block
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(120):
            theta = 2 * mpmath.acos(mpmath.sqrt(mpmath.mpf(1) / 3))
            want = _wigner_d_mp(2 * n, n, n, theta) ** 2
            got = bs_prob_exact(n, n, n, Fraction(1, 3))
            assert want > 0
            got = mpmath.mpf(got.numerator) / got.denominator
            assert abs(got - want) <= want * mpmath.mpf(10) ** -75

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
