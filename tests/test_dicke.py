import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from homlab import MAX_CUTOFF
from homlab.bs_core import BALANCED, BeamSplitterSetting, amplitude_blocks, measured_amplitude
from homlab.dicke import (_photon_numbers, central_probability_exact, central_zero_sweep,
                          fock_to_jm, wigner_d)


class TestMapping:
    def test_round_trip(self):
        for n in range(6):
            for m in range(6):
                j, m_spin = fock_to_jm(n, m)
                assert type(j) is Fraction and type(m_spin) is Fraction
                assert _photon_numbers(j, m_spin) == (n, m)

    def test_known_pairs(self):
        assert _photon_numbers(1, 0) == (1, 1)
        assert _photon_numbers(Fraction(1, 2), Fraction(1, 2)) == (1, 0)
        assert _photon_numbers(2, -1) == (1, 3)
        assert fock_to_jm(3, 0) == (Fraction(3, 2), Fraction(3, 2))

    def test_validation(self):
        for j, m, message in [(1, 2, "|M| must not exceed J"),
                              (1, Fraction(1, 2), "J - M must be an integer"),
                              (Fraction(1, 3), 0, "J and M must be integers or half-integers"),
                              (-1, 0, "J must be non-negative")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                _photon_numbers(j, m)
        with pytest.raises(ValueError, match="photon numbers must be non-negative"):
            fock_to_jm(-1, 2)


def _jy_matrix(tj: int) -> tuple[np.ndarray, list[Fraction]]:
    """Spin-y generator in the M-descending basis (independent oracle)."""
    dim = tj + 1
    j = Fraction(tj, 2)
    ms = [j - i for i in range(dim)]
    jy = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        lower = ms[i + 1]
        amp = math.sqrt(float(j * (j + 1) - lower * (lower + 1)))
        jy[i, i + 1] = -0.5j * amp
        jy[i + 1, i] = 0.5j * amp
    return jy, ms


class TestWignerD:
    def test_matrix_exponential_oracle(self):
        theta = 1.1
        bs = BeamSplitterSetting.from_angle(theta)
        for tj in range(0, 9):
            jy, ms = _jy_matrix(tj)
            rot = expm(-1j * theta * jy)
            for i, mp in enumerate(ms):
                for k, m in enumerate(ms):
                    got = wigner_d(Fraction(tj, 2), mp, m, bs)
                    assert got == pytest.approx(rot[i, k].real, abs=1e-12)
                    assert abs(rot[i, k].imag) < 1e-12

    def test_closed_forms(self):
        # [DERIVED] d^1_{0,0} = cos t, d^1_{1,0} = -sin t / sqrt(2),
        # d^(1/2)_{1/2,1/2} = cos(t/2)
        theta = 0.83
        bs = BeamSplitterSetting.from_angle(theta)
        assert wigner_d(1, 0, 0, bs) == pytest.approx(math.cos(theta))
        assert wigner_d(1, 1, 0, bs) == pytest.approx(-math.sin(theta) / math.sqrt(2))
        assert wigner_d(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), bs) == \
            pytest.approx(math.cos(theta / 2))

    def test_unitarity(self):
        # rotating |J, 0> spreads it over M' = -J .. J with total weight 1:
        # the column J of the block U_2J
        bs = BeamSplitterSetting.from_angle(0.6)
        blocks = list(amplitude_blocks(bs, 6))
        for j in (1, 2, 3):
            column = blocks[2 * j][:, j]
            assert float(np.sum(column ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_j_rejected(self):
        with pytest.raises(ValueError):
            wigner_d(1, 2, 0, BALANCED)


class TestCentralZero:
    def test_exact_zero_for_odd_excitation(self):
        # integer J; J + M odd means an odd number of excited atoms
        for j in range(1, 11):
            for tm in range(-j, j + 1):
                if (j + tm) % 2 == 1:
                    assert central_probability_exact(j, tm, Fraction(1, 2)) == 0

    def test_random_odd_superpositions(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            j = int(rng.integers(1, 11))
            odd_ns = [n for n in range(0, 2 * j + 1) if n % 2 == 1]
            coeffs = rng.normal(size=len(odd_ns)) + 1j * rng.normal(size=len(odd_ns))
            coeffs /= np.linalg.norm(coeffs)
            # amplitude onto the central (M' = 0) component after the rotation
            amp = sum(c * measured_amplitude(n, j, j, BALANCED)
                      for c, n in zip(coeffs, odd_ns))
            assert abs(amp) ** 2 < 1e-14

    def test_sweep_shape(self):
        sweep = np.asarray(central_zero_sweep(6))
        assert sweep.shape == (7,)
        assert sweep[0] == 1.0
        # odd J = odd excitation number at M = 0 -> exact zeros
        assert sweep[1] == 0.0 and sweep[3] == 0.0 and sweep[5] == 0.0
        assert sweep[2] > 0 and sweep[4] > 0

    @pytest.mark.parametrize("bs", [BALANCED, BeamSplitterSetting.parse("3/4"),
                                    BeamSplitterSetting.parse("theta=1.1")])
    def test_sweep_matches_block_path(self, bs):
        # reference: P(M' = 0) read off the even blocks U_2J at column J
        want = [u[s // 2, s // 2] ** 2
                for s, u in enumerate(amplitude_blocks(bs, 200)) if s % 2 == 0]
        sweep = np.asarray(central_zero_sweep(100, bs))
        assert sweep.shape == (101,)
        assert np.max(np.abs(sweep - want)) <= 1e-15
        if bs == BALANCED:
            assert not sweep[1::2].any() and not np.signbit(sweep).any()

    def test_negative_j_max_rejected(self):
        with pytest.raises(ValueError):
            central_zero_sweep(-1)
        assert np.asarray(central_zero_sweep(0)).tolist() == [1.0]

    def test_j_max_bounded_by_max_cutoff(self):
        # 2J photons at most MAX_CUTOFF, refused before any work
        with pytest.raises(ValueError, match=re.escape(
                f"j_max={MAX_CUTOFF // 2 + 1}: 2J={MAX_CUTOFF + 2} exceeds the cutoff bound")):
            central_zero_sweep(MAX_CUTOFF // 2 + 1)

    def test_sweep_is_a_list_of_floats(self):
        sweep = central_zero_sweep(4, BeamSplitterSetting.parse("theta=1.1"))
        assert type(sweep) is list and len(sweep) == 5
        assert all(type(p) is float for p in sweep)

    def test_legendre_closed_form_to_j100(self):
        # balanced rotation of |J, 0>: P(M' = 0) = P_J(0)^2 = (C(J, J/2) / 2^J)^2
        sweep = np.asarray(central_zero_sweep(100))
        for j in range(101):
            if j % 2:
                assert sweep[j] == 0.0
            else:
                want = (math.comb(j, j // 2) / 2 ** j) ** 2
                assert sweep[j] == pytest.approx(want, rel=1e-12), j
        want = (math.comb(100, 50) / 2 ** 100) ** 2
        assert wigner_d(100, 0, 0, BALANCED) ** 2 == pytest.approx(want, rel=1e-12)

    def test_half_integer_rejected(self):
        with pytest.raises(ValueError):
            central_probability_exact(Fraction(3, 2), Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            wigner_d(Fraction(3, 2), 0, Fraction(1, 2), BALANCED)
