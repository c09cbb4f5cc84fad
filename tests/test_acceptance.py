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


def _odd_support_states(rng, count, dim=9):
    """``count`` random pairs of states on odd photon numbers below ``dim``:
    a dense rho of rank 3 with odd-odd coherences, then a diagonal state."""
    odd = np.arange(dim) % 2 == 1
    for _ in range(count):
        rho = np.zeros((dim, dim), dtype=complex)
        for w in rng.dirichlet(np.ones(3)):
            v = np.where(odd, rng.normal(size=dim) + 1j * rng.normal(size=dim), 0)
            rho += w * np.outer(v, v.conj()) / np.vdot(v, v).real
        yield h.MixedState(rho, label="odd-mixed")
        weights = np.zeros(dim)
        weights[odd] = rng.dirichlet(np.ones(dim // 2))
        yield h.DiagonalState(weights, label="odd-diagonal")


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
    # the parity claim for any state on odd photon numbers, in either mode:
    # U_s[s/2, n] is exactly 0.0 for odd n at T = 1/2, so every diagonal cell
    # is exactly 0.0, on the dense-rho path and the weights path alike
    coherent = h.coherent(1.7)
    partners = [coherent, h.thermal(2), h.photon_added_smss(0.6),
                h.MixedState(np.outer(coherent.amplitudes, coherent.amplitudes.conj()),
                             label="dense-coherent")]
    cases = 0
    for odd in _odd_support_states(np.random.default_rng(2), 5):
        for partner in partners:
            for pair in ((odd, partner), (partner, odd)):
                d = h.joint_general(pair, h.BALANCED)
                assert not d.diagonal().any(), (pair[0].label, pair[1].label)
                cases += 1
    elapsed = time.perf_counter() - t0
    assert worst < 1e-14
    assert elapsed < 30.0
    print(f"\nPASS: criterion 2 — CNL: max diagonal {worst:.2e} over 18 "
          f"input combinations (grid_max=40); every diagonal cell exactly 0.0 in {cases} grids "
          f"of 10 random odd-support states, in mode a and in mode b, against coherent, "
          f"thermal, pasmss and dense coherent partners; in {elapsed:.1f} s")


def _double_factorial(k):
    return math.prod(range(k, 0, -2))  # 1 for k <= 0


def _central_closed_form(n, big_n):
    """P(N/2, N/2) of fock:n x fock:N-n at T = 1/2, |d^(N/2)_(0, N/2-n)(pi/2)|^2
    from the associated Legendre values at 0: n!/(N-n)! ((N-n-1)!!/n!!)^2 for
    even n, 0 for odd n."""
    if n % 2:
        return Fraction(0)
    return Fraction(math.factorial(n), math.factorial(big_n - n)) \
        * Fraction(_double_factorial(big_n - n - 1), _double_factorial(n)) ** 2


def test_criterion_3_even_n_no_cnl():
    # the paper's even-n claim with both partners of criterion 2
    peaks = [float(np.max(h.joint_general((h.fock(2), partner), h.BALANCED).diagonal()))
             for partner in (h.coherent(3), h.thermal(9))]
    assert min(peaks) > 1e-4
    # the central cell in closed form, exactly, for every even N < 60 and n <= N
    for big_n in range(0, 60, 2):
        for n in range(big_n + 1):
            assert h.bs_prob_exact(n, big_n // 2, big_n // 2, HALF) \
                == _central_closed_form(n, big_n), (n, big_n)
    # and the float diagonal of fock:2 x fock:N-2, whose one cell off 0 is the central one
    worst = 0.0
    for big_n in range(2, 60, 2):
        diagonal = h.joint_general((h.fock(2), h.fock(big_n - 2)), h.BALANCED).diagonal()
        want = np.zeros_like(diagonal)
        want[big_n // 2] = float(_central_closed_form(2, big_n))
        worst = max(worst, float(np.max(np.abs(diagonal - want))))
    assert worst <= 1e-12
    print(f"\nPASS: criterion 3 — even n=2 diagonal reaches {peaks[0]:.3e} with "
          f"coherent:beta=3 and {peaks[1]:.3e} with thermal:nbar=9, both > 1e-4; "
          f"P(N/2, N/2) of fock:n x fock:N-n equals its closed form exactly for even "
          f"N < 60, and the float diagonal of fock:2 x fock:N-2 within {worst:.1e}")


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
        for s, u in enumerate(h.amplitude_blocks(bs, 30)):
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
    # five specialized paths against the general bipartite formula, 50 trials;
    # the pairs that joint_general reads directly are computed by another path
    from test_joint_dist import (_as_pure_mixture, _dense, _mean_photons, _mean_total_photons,
                                 _random_mixed, _random_pure)
    rng = np.random.default_rng(987)
    settings = [h.BALANCED, h.BeamSplitterSetting.from_transmittance(THREE_Q),
                h.BeamSplitterSetting.from_angle(0.9)]
    for trial in range(50):
        bs = settings[trial % 3]
        kind = trial % 5
        if kind == 0:
            n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            ref = h.joint_general((h.fock(n), h.fock(m)), bs)
            got = h.joint_general((_dense(h.fock(n)), _dense(h.fock(m))), bs)
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
            ref = h.joint_general((psi, phi), bs)
            got = h.joint_general((_dense(psi), _dense(phi)), bs)
        else:
            psi = _random_pure(rng, int(rng.integers(1, 4)))
            mixed = _random_mixed(rng, int(rng.integers(1, 4)))
            ref = h.joint_general((psi, mixed), bs)
            got = _as_pure_mixture(psi, mixed, bs, ref.grid_max)
        assert float(np.max(np.abs(got.grid - ref.grid))) < 1e-10
    # symbolic-expansion oracle for the amplitudes, n + m <= 12
    from test_bs_core import _amplitude_oracle
    for t in (HALF, THREE_Q):
        bs = h.BeamSplitterSetting.from_transmittance(t)
        for s, u in enumerate(h.amplitude_blocks(bs, 12)):
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
        d = h.joint_general((psi, phi), bs)
        assert d.total_mass == pytest.approx(psi.trace * phi.trace, abs=1e-9)
        assert _mean_total_photons(d) == pytest.approx(
            _mean_photons(psi) + _mean_photons(phi), abs=1e-9)
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


def test_criterion_11_pseudo_nodal_curves():
    # fock:n in mode a: grid(m_a, m_b) is the partner's weight w_b(s - n) times
    # |U_s[m_a, n]|^2, a positive multiple of g(m_a, m_b | n)^2, so g's real
    # zero curves are valleys of the grid whatever the partner.  At each sign
    # change of g along an anti-diagonal, a cell beside it is a local minimum,
    # except at the pinned low-s cells (s, m_a left of the change)
    misses_by_n = {2: [], 3: [(3, 1), (4, 0), (4, 3), (5, 2)],
                   4: [(4, 1), (4, 2), (6, 0), (6, 5)]}
    counts, zeros = [], 0
    for n, pinned in misses_by_n.items():
        for partner in (h.coherent(3), h.thermal(4)):
            d = h.joint_general((h.fock(n), partner), h.BALANCED)
            grid, changes, misses = d.grid, 0, []
            for s in range(n, d.grid_max + 1):
                g = [h.g_poly(m_a, s - m_a, n, h.BALANCED) for m_a in range(s + 1)]
                p = [grid[m_a, s - m_a] for m_a in range(s + 1)]

                def is_minimum(i):
                    return all(p[i] <= p[j] for j in (i - 1, i + 1) if 0 <= j <= s)

                for m_a in range(s):
                    if g[m_a] * g[m_a + 1] < 0:
                        changes += 1
                        if not (is_minimum(m_a) or is_minimum(m_a + 1)):
                            misses.append((s, m_a))
                for m_a in range(s + 1):
                    if g[m_a] == 0:
                        zeros += 1
                        assert grid[m_a, s - m_a] <= 1e-14 * grid.max(), (n, s, m_a)
            assert misses == pinned, (n, partner.label, misses)
            counts.append(f"{changes - len(misses)}/{changes}")
    print(f"\nPASS: criterion 11 — pseudo-nodal curves: a local minimum beside "
          f"every sign change of g for n = 2, 3, 4 (coherent:beta=3, thermal:nbar=4): "
          f"{', '.join(counts)}; the same {len(misses_by_n[3]) + len(misses_by_n[4])} "
          f"low-s misses for both partners; all {zeros} exact zeros of g are cells "
          f"<= 1e-14 of the grid's maximum")


def test_criterion_12_noise_partly_fills_the_central_nodal_line():
    # the paper's "small amount of noise": the depth max(diagonal) / max(grid)
    # of |1> x coherent(beta=2) at T = 1/2 is 0 without noise and rises as
    # equal loss grows; a heralded t = 1 photon (weights from the posterior)
    # fills it in to the depths measured for demo 04
    partner = h.coherent(2)

    def depth(dist):
        return float(dist.diagonal().max() / dist.grid.max())

    single = h.joint_fs_pure(1, partner, h.BALANCED)
    etas = (1.0, 0.99, 0.95, 0.9, 0.8, 0.6)
    lossy = [depth(h.lossy_distribution(single, h.LossConfig(eta, eta))) for eta in etas]
    assert lossy[0] == 0.0
    assert all(a < b for a, b in zip(lossy, lossy[1:]))
    heralded = {}
    for (eta_h, r), measured in {(0.6, 0.1): 5.28e-3, (0.6, 0.3): 4.38e-2,
                                 (0.9, 0.5): 2.79e-2}.items():
        source = h.SqueezedSource(r=r)
        weights = [0.0] + [h.herald_posterior(k, 1, eta_h, source) for k in range(1, 30)]
        state = h.DiagonalState(weights, label="heralded")
        heralded[eta_h, r] = depth(h.joint_general((state, partner), h.BALANCED))
        assert heralded[eta_h, r] == pytest.approx(measured, rel=0.1)
    print(f"\nPASS: criterion 12 — CNL depth 0 at eta = 1, rising strictly to "
          f"{', '.join(f'{d:.3g}' for d in lossy[1:])} at eta = {etas[1:]}; heralded t = 1 "
          f"{', '.join(f'{d:.3g} at (eta_h, r) = {k}' for k, d in heralded.items())}")
