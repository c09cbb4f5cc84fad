"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured quantities once its assertions have held."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

import homlab as h

HALF = Fraction(1, 2)
THREE_Q = Fraction(3, 4)


def test_criterion_1_hom_limit():
    h.joint_fs_fs_exact(1, 1, HALF)  # warm-up
    t0 = time.perf_counter()
    table = h.joint_fs_fs_exact(1, 1, HALF)
    elapsed = time.perf_counter() - t0
    assert table[(1, 1)] == Fraction(0, 1)
    assert table[(2, 0)] == HALF
    assert table[(0, 2)] == HALF
    assert elapsed < 1e-3
    print(f"\nPASS: criterion 1 — HOM limit exact (0, 1/2, 1/2) in "
          f"{elapsed * 1e6:.0f} us")


def test_criterion_2_central_nodal_line():
    a_states = [h.fock(1), h.fock(3), h.fock(5),
                h.fock_superposition({1: 1, 3: 1}),
                h.odd_cat(2), h.photon_added_smss(0.5)]
    b_states = [h.coherent(3), h.thermal(9), h.fock(4)]
    t0 = time.perf_counter()
    worst = 0.0
    for sa in a_states:
        for sb in b_states:
            d = h.joint_general((sa, sb), h.BALANCED, grid_max=40)
            worst = max(worst, float(np.max(np.abs(d.diagonal()))))
    # exact certification for rational-weight (Fock) cases
    for n in (1, 3, 5):
        for mp in range(41):
            assert h.bs_prob_exact(n, mp, mp, HALF) == 0
    elapsed = time.perf_counter() - t0
    assert worst < 1e-14
    assert elapsed < 30.0
    print(f"\nPASS: criterion 2 — CNL: max diagonal {worst:.2e} over 18 "
          f"input combinations (grid_max=40) in {elapsed:.1f} s")


def test_criterion_3_even_n_no_cnl():
    d = h.joint_fs_pure(2, h.coherent(3), h.BALANCED)
    peak = float(np.max(d.diagonal()))
    assert peak > 1e-4
    print(f"\nPASS: criterion 3 — even n=2 diagonal reaches {peak:.3e} > 1e-4")


def test_criterion_4_table_certification():
    t0 = time.perf_counter()
    count = 0
    for families in h.KNOWN_FAMILIES.values():
        for sol in families:
            res = h.verify_parametric(sol)
            assert res.valid and res.certificates_agree, sol
            count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS: criterion 4 — all {count} built-in polynomial families "
          f"certified exactly in {elapsed * 1e3:.0f} ms")


def test_criterion_5_diophantine_scan():
    zs = h.bfs_zeros(3, THREE_Q, 200)
    expected = {(1, 0), (1, 1), (1, 11), (2, 0), (3, 1), (11, 55), (70, 162)}
    assert set(zs.zeros) == expected
    print("\nPASS: criterion 5 — bfs_zeros(3, 3/4, 200) returns exactly the "
          "seven known pairs")


def test_criterion_5_extended_scan():
    zs = h.bfs_zeros(3, THREE_Q, 10 ** 4)
    expected = {(1, 0), (1, 1), (1, 11), (2, 0), (3, 1), (11, 55), (70, 162)}
    assert set(zs.zeros) == expected
    print("\nPASS: criterion 5 (extended) — no additional zeros up to "
          "m_max = 10^4")


def test_criterion_6_negative_parametric_search():
    t0 = time.perf_counter()
    sols = h.search_parametric(3, THREE_Q, 2, (-10, 10))
    elapsed = time.perf_counter() - t0
    assert sols == []
    assert elapsed < 600.0
    print(f"\nPASS: criterion 6 — search_parametric(3, 3/4, deg 2, [-10,10]) "
          f"empty in {elapsed:.2f} s")


def test_criterion_7_heralding_numbers():
    src = h.SqueezedSource(r=1.5)
    p2 = h.herald_posterior(2, 2, 0.87, src)
    p3 = h.herald_posterior(3, 3, 0.87, src)
    db15 = h.squeezing_db(1.5)
    db035 = h.squeezing_db(0.35)
    assert p2 == pytest.approx(0.71, abs=0.01)
    assert p3 == pytest.approx(0.63, abs=0.01)
    assert db15 == pytest.approx(-13.0, abs=0.1)
    assert db035 == pytest.approx(-3.0, abs=0.1)
    print(f"\nPASS: criterion 7 — posteriors {p2:.4f}/{p3:.4f}, squeezing "
          f"{db15:.2f}/{db035:.2f} dB")


def test_criterion_8_loss_sanity():
    d = h.joint_fs_pure(1, h.coherent(1), h.BALANCED)
    ident = h.lossy_distribution(d, h.LossConfig(1.0, 1.0))
    assert float(np.max(np.abs(ident.grid - d.grid))) < 1e-12
    out = h.lossy_distribution(d, h.LossConfig(0.95, 0.95))
    for s in range(0, 9, 2):
        mp = s // 2
        row = [out.grid[m_a, s - m_a] for m_a in range(s + 1)]
        assert out.grid[mp, mp] > 0.0
        assert out.grid[mp, mp] == min(row)
    print("\nPASS: criterion 8 — eta=1 identity < 1e-12; eta=0.95 diagonal "
          "positive yet anti-diagonal minimum for m_a+m_b <= 8")


def test_criterion_9_property_suites():
    # unitarity, n + m <= 30
    for bs in (h.BALANCED, h.BeamSplitterSetting.from_angle(1.0)):
        for s in range(31):
            u = h.amplitude_block(bs, s)
            for n in range(max(0, s - 15), min(s, 15) + 1):
                assert float((u[:, n] ** 2).sum()) == pytest.approx(1.0, abs=1e-9)
    # parity symmetry, exact, n <= 6
    for t in (HALF, THREE_Q):
        bs = h.BeamSplitterSetting.from_transmittance(t)
        swapped = h.BeamSplitterSetting.from_transmittance(1 - t)
        for n in range(7):
            for m_a in range(13):
                for m_b in range(13):
                    assert h.g_poly(m_b, m_a, n, swapped) == \
                        (-1) ** n * h.g_poly(m_a, m_b, n, bs)
    # five specialized paths against the general bipartite formula, 50 trials
    from test_joint_dist import _random_mixed, _random_pure
    rng = np.random.default_rng(987)
    settings = [h.BALANCED, h.BeamSplitterSetting.from_transmittance(THREE_Q),
                h.BeamSplitterSetting.from_angle(0.9)]
    for trial in range(50):
        bs = settings[trial % 3]
        kind = trial % 5
        if kind == 0:
            n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            got = h.joint_fs_fs(n, m, bs)
            ref = h.joint_general((h.fock(n), h.fock(m)), bs)
        elif kind == 1:
            n = int(rng.integers(0, 4))
            phi = _random_pure(rng, int(rng.integers(1, 5)))
            got = h.joint_fs_pure(n, phi, bs)
            ref = h.joint_general((h.fock(n), phi), bs, grid_max=got.grid_max)
        elif kind == 2:
            n = int(rng.integers(0, 4))
            mixed = _random_mixed(rng, int(rng.integers(1, 5)))
            diag = h.MixedState(
                np.diag(np.real(np.diag(mixed.rho))).astype(complex)
                / np.real(np.trace(mixed.rho)), label="diag")
            got = h.joint_fs_mixed(n, diag, bs)
            ref = h.joint_general((h.fock(n), diag), bs, grid_max=got.grid_max)
        elif kind == 3:
            psi = _random_pure(rng, int(rng.integers(1, 4)))
            phi = _random_pure(rng, int(rng.integers(1, 4)))
            got = h.joint_pure_pure(psi, phi, bs)
            ref = h.joint_general((psi, phi), bs, grid_max=got.grid_max)
        else:
            psi = _random_pure(rng, int(rng.integers(1, 4)))
            mixed = _random_mixed(rng, int(rng.integers(1, 4)))
            got = h.joint_pure_mixed(psi, mixed, bs)
            ref = h.joint_general((psi, mixed), bs, grid_max=got.grid_max)
        assert float(np.max(np.abs(got.grid - ref.grid))) < 1e-10
    # symbolic-expansion oracle for the amplitudes, n + m <= 12
    from test_bs_core import _amplitude_oracle
    for t in (HALF, THREE_Q):
        bs = h.BeamSplitterSetting.from_transmittance(t)
        for s in range(13):
            u = h.amplitude_block(bs, s)
            for n in range(s + 1):
                for p in range(s + 1):
                    assert u[p, n] == pytest.approx(
                        _amplitude_oracle(n, s - n, p, t), abs=1e-12)
    # rotation-matrix oracle via the matrix exponential, 2J <= 8
    from test_dicke import _jy_matrix
    theta = 1.1
    bsa = h.BeamSplitterSetting.from_angle(theta)
    for tj in range(9):
        jy, ms = _jy_matrix(tj)
        rot = expm(-1j * theta * jy)
        for i, mp in enumerate(ms):
            for k, m in enumerate(ms):
                assert h.wigner_d(Fraction(tj, 2), mp, m, bsa) == \
                    pytest.approx(rot[i, k].real, abs=1e-12)
    # energy and mass conservation, 1e-9
    for bs in settings:
        psi = h.odd_cat(1.2)
        phi = h.coherent(1.1)
        d = h.joint_pure_pure(psi, phi, bs)
        assert d.total_mass == pytest.approx(
            psi.norm_squared * phi.norm_squared, abs=1e-9)
        assert d.mean_total_photons() == pytest.approx(
            psi.mean_photon_number + phi.mean_photon_number, abs=1e-9)
    print("\nPASS: criterion 9 — unitarity, parity symmetry, five-path oracle "
          "equivalence (50 trials), amplitude expansion oracle, rotation "
          "oracle, conservation laws")


def test_criterion_10_collective_spin_analogue():
    rng = np.random.default_rng(4321)
    worst = 0.0
    for _ in range(100):
        j = int(rng.integers(1, 11))
        odd_ns = [n for n in range(2 * j + 1) if n % 2 == 1]
        coeffs = rng.normal(size=len(odd_ns)) + 1j * rng.normal(size=len(odd_ns))
        coeffs /= np.linalg.norm(coeffs)
        amp = sum(c * h.measured_amplitude(n, j, j, h.BALANCED)
                  for c, n in zip(coeffs, odd_ns))
        worst = max(worst, abs(amp) ** 2)
    assert worst < 1e-14
    print(f"\nPASS: criterion 10 — collective-spin central probability "
          f"max {worst:.2e} < 1e-14 over 100 odd-support trials, J <= 10")
