import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from homlab import nodal
from homlab.bs_core import BeamSplitterSetting
from homlab.nodal import (BALANCED_N2_FAMILIES, BALANCED_N3_FAMILIES,
                          KNOWN_FAMILIES, ParametricSolution,
                          T34_N2_FAMILIES, ZeroSet, _candidates, _g_int, _int_weights,
                          _root_table, _scan_primes, bfs_zeros, canonical_form,
                          extremal_branch_points, g_poly, search_parametric,
                          verify_parametric)

HALF = Fraction(1, 2)
THREE_Q = Fraction(3, 4)


class TestBfsZeros:
    def test_seven_pair_set(self):
        zs = bfs_zeros(3, THREE_Q, 200)
        assert set(zs.zeros) == {(1, 0), (1, 1), (1, 11), (2, 0), (3, 1),
                                 (11, 55), (70, 162)}

    def test_physical_flags(self):
        zs = bfs_zeros(3, THREE_Q, 200)
        assert zs.physical() == ((1, 11), (3, 1), (11, 55), (70, 162))

    def test_balanced_n2_closed_form(self):
        # [DERIVED] balanced n=2 zeros satisfy (m_a - m_b)^2 == m_a + m_b
        zs = bfs_zeros(2, HALF, 60)
        assert zs.zeros
        for m_a, m_b in zs.zeros:
            assert (m_a - m_b) ** 2 == m_a + m_b

    def test_swap_symmetry_for_even_n_balanced(self):
        zs = bfs_zeros(2, HALF, 60)
        pairs = set(zs.zeros)
        for m_a, m_b in pairs:
            if m_b >= 1 and m_b <= 60:
                assert (m_b, m_a) in pairs or m_b == 0

    def test_balanced_n3_diagonal(self):
        zs = bfs_zeros(3, HALF, 25)
        for k in range(1, 26):
            assert (k, k) in zs.zeros

    def test_json(self):
        doc = bfs_zeros(3, THREE_Q, 12).to_json()
        assert doc["T"] == {"num": 3, "den": 4}
        assert {"m_a": 1, "m_b": 11, "physical": True} in doc["zeros"]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            bfs_zeros(-1, HALF, 3)

    def test_negative_bound_rejected(self):
        # m_max = -1 would scan nothing and report an empty zero set
        with pytest.raises(ValueError):
            bfs_zeros(2, HALF, -1)
        assert bfs_zeros(2, HALF, 0).zeros == ()


@pytest.mark.parametrize("t", [Fraction(3, 2), Fraction(-1, 2)])
def test_transmittance_outside_unit_interval_rejected(t):
    # no splitter has such a T, so its "zeros" would be meaningless
    with pytest.raises(ValueError):
        bfs_zeros(3, t, 5)
    with pytest.raises(ValueError):
        search_parametric(3, t, 2, (-1, 1))
    with pytest.raises(ValueError):
        verify_parametric(ParametricSolution(a_coeffs=(0, 1), b_coeffs=(0, 1), n=1, t=t))
    # the end points are splitters: at n = 1, g = T m_a - R m_b
    assert bfs_zeros(1, Fraction(0), 3).zeros == ((1, 0), (2, 0), (3, 0))
    assert bfs_zeros(1, Fraction(1), 3).zeros == ()


class TestVerifyParametric:
    def test_builtin_families_all_valid(self):
        for families in KNOWN_FAMILIES.values():
            for sol in families:
                res = verify_parametric(sol)
                assert res.valid and res.certificates_agree

    def test_invalid_family_reports_witness(self):
        bad = ParametricSolution(a_coeffs=(0, 1, 2), b_coeffs=(1, 4, 2),
                                 n=2, t=HALF)
        res = verify_parametric(bad)
        assert not res.valid
        assert res.certificates_agree
        assert res.first_nonzero is not None
        idx, value = res.first_nonzero
        assert value != 0

    def test_family_points_are_literal_zeros(self):
        # the test file's own Fraction g: g_poly shares _g_int with the
        # evaluation certificate
        for sol in BALANCED_N2_FAMILIES + BALANCED_N3_FAMILIES:
            for k in sol.valid_k(0, 4):
                assert _g_fraction(sol.m_a(k), sol.m_b(k), sol.n, sol.t) == 0

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            ParametricSolution(a_coeffs=(0, 1, 0, 0, 1), b_coeffs=(0, 1),
                               n=2, t=HALF)


class TestCanonicalForm:
    def test_shift_and_reflection_merge(self):
        base = BALANCED_N2_FAMILIES[0]
        reflected = BALANCED_N2_FAMILIES[1]  # k -> -k image of base
        assert canonical_form(base) == canonical_form(reflected)

    def test_shifted_copy_merges(self):
        sol = BALANCED_N3_FAMILIES[1]
        shifted = ParametricSolution(
            a_coeffs=(sol.m_a(3), 6 * 2 * 3 + sol.a_coeffs[1], sol.a_coeffs[2]),
            b_coeffs=(sol.m_b(3), 6 * 2 * 3 + sol.b_coeffs[1], sol.b_coeffs[2]),
            n=3, t=HALF)
        assert verify_parametric(shifted).valid
        assert canonical_form(shifted) == canonical_form(sol)


class TestSearchParametric:
    def test_finds_balanced_families(self):
        sols = search_parametric(2, HALF, 2, (-3, 3))
        assert sols
        for sol in sols:
            assert verify_parametric(sol).valid

    def test_negative_result_at_t34_n3(self):
        assert search_parametric(3, THREE_Q, 2, (-4, 4)) == []

    def test_deterministic_order(self):
        a = search_parametric(2, HALF, 2, (-3, 3))
        b = search_parametric(2, HALF, 2, (-3, 3))
        assert a == b

    def test_certifies_without_expansion(self, monkeypatch):
        # the strip's zeros at n * degree points certify each hit, so the
        # search expands no composite and verifies nothing; of a pair and
        # its mirror in the box only one is canonicalised (2188 hits
        # without that)
        def fail(*args):
            raise AssertionError("the search expanded a composite")

        monkeypatch.setattr(nodal, "_g_composite", fail)
        monkeypatch.setattr(nodal, "verify_parametric", fail)
        canonical = []
        real = nodal._canonical_pair
        monkeypatch.setattr(nodal, "_canonical_pair",
                            lambda a, b: canonical.append(real(a, b)) or canonical[-1])
        sols = search_parametric(3, HALF, 2, (-6, 6))
        assert len(canonical) == 1172
        assert [(s.a_coeffs, s.b_coeffs) for s in sols] == sorted(set(canonical))
        assert len(sols) == 1007

    @pytest.mark.parametrize("n, t, bound", [(2, THREE_Q, 40), (3, HALF, 6), (3, THREE_Q, 10)])
    def test_one_residue_scan(self, monkeypatch, n, t, bound):
        # the benchmark's searches: the zeros at k = -1, 0, 1 come from one
        # scan of one box, g at every other k from an exact evaluation
        calls = []
        real = nodal._candidates
        monkeypatch.setattr(nodal, "_candidates", lambda *args: calls.append(args) or real(*args))
        search_parametric(n, t, 2, (-bound, bound))
        assert len(calls) == 1

    def test_constant_polynomials_excluded(self):
        # (m_a, m_b) = (0, 0) solves g = 0 trivially but is not a family
        for sol in search_parametric(3, HALF, 2, (-1, 1)):
            assert any(c != 0 for c in sol.a_coeffs[1:])
            assert any(c != 0 for c in sol.b_coeffs[1:])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            search_parametric(2, HALF, 4, (-2, 2))
        with pytest.raises(ValueError):
            search_parametric(2, HALF, 2, (3, -3))
        with pytest.raises(ValueError):
            search_parametric(-1, HALF, 2, (-1, 1))


class TestExtremalBranchPoints:
    def test_example_solution(self):
        # discriminant 1 + 8 m_a + k = 9 at (m_a, k) = (1, 0): branches 3 and 0
        assert extremal_branch_points(1, 0) == (3, 0)

    def test_non_square_discriminant(self):
        assert extremal_branch_points(1, 1) is None

    def test_even_root_rejected(self):
        # disc = 4 has root 2 (even) -> no half-integer branch
        assert extremal_branch_points(0, 3) is None

    def test_branches_bracket_zero_condition(self):
        # when both branches exist, their defining quadratic holds exactly
        for m_a in range(0, 30):
            for k in range(-5, 40):
                result = extremal_branch_points(m_a, k)
                if result is None:
                    continue
                for m_b in result:
                    # m_b solves (2(m_b - m_a) - 1)^2 = 1 + 8 m_a + k
                    assert (2 * (m_b - m_a) - 1) ** 2 == 1 + 8 * m_a + k


class TestBuiltinTables:
    def test_table_sizes(self):
        assert len(BALANCED_N2_FAMILIES) == 8
        assert len(BALANCED_N3_FAMILIES) == 3
        assert len(T34_N2_FAMILIES) == 6

    def test_serialization(self):
        doc = BALANCED_N3_FAMILIES[1].to_json()
        assert doc == {"m_a_coeffs": [2, 7, 6], "m_b_coeffs": [7, 13, 6],
                       "n": 3, "T": {"num": 1, "den": 2}}


# ---------------------------------------------------------------------------
# oracles that share no code with homlab.nodal
# ---------------------------------------------------------------------------


def _falling(x, q):
    out = 1
    for j in range(q):
        out *= x - j
    return out


def _g_fraction(x, y, n, t):
    """g(x, y | n) at transmittance t, exact, for all integers x, y; a term
    whose falling factorials vanish is skipped."""
    return sum((-1) ** q * falling * (t ** (n - q)) * ((1 - t) ** q)
               * Fraction(_falling(n, q), _falling(q, q))
               for q in range(n + 1) if (falling := _falling(x, n - q) * _falling(y, q)))


def _value(p, k):
    return sum(c * k ** i for i, c in enumerate(p))


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p)


def _compose_shift(p, c):
    """p(k + c) by Horner's rule on polynomials."""
    out = [0]
    for coeff in reversed(p):
        times = [0] * (len(out) + 1)
        for i, v in enumerate(out):  # out * (k + c)
            times[i] += c * v
            times[i + 1] += v
        times[0] += coeff
        out = times
    return _trim(out)


def _canonical(a, b):
    span = 3 * (max(abs(c) for c in a + b) + 1)
    images = [(a, b), (tuple((-1) ** i * c for i, c in enumerate(a)),
                       tuple((-1) ** i * c for i, c in enumerate(b)))]
    return min((_compose_shift(pa, c), _compose_shift(pb, c))
               for pa, pb in images for c in range(-span, span + 1))


def _brute_force_families(n, t, degree, lo, hi):
    """Every non-constant pair whose coefficients up to its degree lie in
    [lo, hi], those above it 0, and whose composite vanishes at the
    n * degree + 2 points 0 .. n * degree + 1, canonicalised.  Polynomials
    are grouped by their values at k = 0 and 1, so only pairs that vanish at
    both are expanded."""
    g_zero = lru_cache(maxsize=None)(lambda x, y: _g_fraction(x, y, n, t) == 0)
    by_head = {}
    for top in range(1, degree + 1):
        for p in itertools.product(range(lo, hi + 1), repeat=top + 1):
            if any(p[1:]):
                by_head.setdefault((p[0], _value(p, 1)), set()).add(_trim(p))
    families = set()
    for (a0, a1), (b0, b1) in itertools.product(by_head, repeat=2):
        if g_zero(a0, b0) and g_zero(a1, b1):
            for a, b in itertools.product(by_head[a0, a1], by_head[b0, b1]):
                if all(g_zero(_value(a, k), _value(b, k))
                       for k in range(2, n * degree + 2)):
                    families.add(_canonical(a, b))
    return sorted(families)


class TestExactKernelsAgainstOracles:
    def test_fraction_oracle_is_g_poly(self):
        for t in (HALF, THREE_Q, Fraction(2, 3)):
            bs = BeamSplitterSetting.from_transmittance(t)
            for x, y, n in itertools.product(range(6), range(6), range(5)):
                assert _g_fraction(x, y, n, t) == g_poly(x, y, n, bs)

    @pytest.mark.parametrize("n, t, degree, bound", [
        (2, HALF, 2, 3), (3, HALF, 2, 2), (2, THREE_Q, 2, 3), (3, THREE_Q, 2, 3),
        (2, HALF, 3, 1), (3, HALF, 3, 1), (2, HALF, 3, 2), (5, HALF, 2, 2)])
    def test_search_matches_brute_force(self, n, t, degree, bound):
        expected = _brute_force_families(n, t, degree, -bound, bound)
        found = [(s.a_coeffs, s.b_coeffs)
                 for s in search_parametric(n, t, degree, (-bound, bound))]
        assert found == expected

    # n >= 66: g is a multiple of n!, hence of 2**64; T = 2/3 and 2/7 have an
    # even numerator; T = 0 and 1 take the closed form
    @pytest.mark.parametrize("n, t, m_max", [
        (5, THREE_Q, 60), (8, Fraction(2, 3), 60), (70, HALF, 40), (66, Fraction(2, 7), 45),
        (80, Fraction(2, 3), 50), (66, HALF, 1), (3, Fraction(2, 7), 80), (4, Fraction(2, 3), 70),
        (2, Fraction(2, 7), 0), (3, Fraction(0), 12), (3, Fraction(1), 12), (0, Fraction(0), 4),
        (0, Fraction(1), 4), (0, HALF, 6), (0, THREE_Q, 1), (4, HALF, 1), (1, Fraction(1), 0),
        (70, Fraction(0), 3), (6, Fraction(1), 5)])
    def test_bfs_matches_exact_scan(self, n, t, m_max):
        # against the test file's own Fraction g, not g_poly, which shares
        # _g_int with the recheck
        expected = tuple((a, b) for a in range(1, m_max + 1) for b in range(m_max + 1)
                         if _g_fraction(a, b, n, t) == 0)
        assert bfs_zeros(n, t, m_max).zeros == expected

    def test_root_tables_are_the_roots_of_g_mod_p(self):
        # _root_table evaluates packed columns; here each cell is one exact g
        rng = random.Random(20261019)
        cases = [(3, THREE_Q, 7, 7, 0), (5, HALF, 11, 11, 0), (8, Fraction(2, 3), 17, 17, 0),
                 (2, Fraction(2, 7), 29, 12, 0), (0, HALF, 3, 3, 0), (13, Fraction(5, 9), 31, 31, 0),
                 (3, HALF, 7, 7, -90), (4, THREE_Q, 11, 11, -3), (5, HALF, 13, 9, 40)]
        for _ in range(6):
            n = rng.randint(1, 12)
            t = Fraction(rng.randint(1, 40), rng.randint(41, 80))
            num, rnum, _ = _int_weights(n, t)
            p = next(p for p in range(n + 1, 10 ** 3)
                     if all(p % d for d in range(2, p)) and num % p and rnum % p)
            cases.append((n, t, p, rng.randint(1, p), rng.randint(-200, 200)))
        for n, t, p, size, lo in cases:
            num, rnum, _ = _int_weights(n, t)
            table = _root_table(p, size, n, num, rnum, lo)
            assert table == [tuple(j for j in range(size)
                                   if _g_int(x, lo + j, n, num, rnum) % p == 0)
                             for x in range(size)], (n, t, p, size, lo)

    @pytest.mark.parametrize("primes", [(5, 7, 11), (7, 5, 13), (13, 11, 5), (7, 11, 401)])
    def test_small_primes_wrap_progressions(self, monkeypatch, primes):
        # products of the joined primes below m_max, so that each residue
        # progression has several members in a row
        monkeypatch.setattr(nodal, "_scan_primes", lambda *args: primes)
        assert bfs_zeros(3, THREE_Q, 200).zeros == (
            (1, 0), (1, 1), (1, 11), (2, 0), (3, 1), (11, 55), (70, 162))
        expected = tuple((a, b) for a in range(1, 61) for b in range(61)
                         if _g_fraction(a, b, 5, HALF) == 0)
        assert bfs_zeros(5, HALF, 60).zeros == expected

    # x = 0 and y < n are zeros, so a box holding them loses zeros if the
    # row x = 0 is dropped; boxes with negative corners, of one row or one
    # column, inside [0, p) with rows past the columns or the reverse, past
    # [0, p), narrower and wider than p; the forced primes are small against
    # the boxes, and some lie below 2n or divide rnum, which the scan allows
    BOXES = [
        (3, THREE_Q, range(0, 8), range(0, 8)), (4, HALF, range(0, 1), range(-9, 30)),
        (3, HALF, range(-12, 5), range(-9, 13)), (2, Fraction(2, 7), range(-40, -3), range(-7, 60)),
        (5, HALF, range(-3, 1), range(-50, 50)), (3, THREE_Q, range(-30, 70), range(4, 5)),
        (3, HALF, range(-2, -1), range(-2, -1)), (6, Fraction(2, 3), range(0, 5), range(3, 9)),
        (6, HALF, range(3, 12), range(0, 4)),
        (3, THREE_Q, range(1, 81), range(81)), (0, HALF, range(-3, 4), range(-3, 4)),
        (3, HALF, range(5, 5), range(0, 9)), (70, HALF, range(-5, 40), range(-3, 30))]

    @pytest.mark.parametrize("primes", [None, (5, 7, 11), (7, 5, 13), (11, 13, 401)])
    @pytest.mark.parametrize("n, t, xs, ys", BOXES)
    def test_candidates_are_the_residue_roots(self, monkeypatch, primes, n, t, xs, ys):
        # exactly the points of the box where g = 0 mod all three primes,
        # each once, by a brute-force _g_int scan; the exact zeros among them
        # are all zeros of the box, by the test file's own Fraction g
        num, rnum, _ = _int_weights(n, t)
        if primes is None:
            primes = _scan_primes(n, num, rnum, len(ys))
        monkeypatch.setattr(nodal, "_scan_primes", lambda *args: primes)
        found = list(_candidates(n, num, rnum, xs, ys))
        assert len(found) == len(set(found))
        assert set(found) == {(x, y) for x in xs for y in ys
                              if all(_g_int(x, y, n, num, rnum) % p == 0 for p in primes)}
        assert {z for z in found if not _g_int(*z, n, num, rnum)} == {
            (x, y) for x in xs for y in ys if _g_fraction(x, y, n, t) == 0}

    def test_scan_primes_conditions(self):
        for n, t, m_max in [(0, HALF, 0), (3, THREE_Q, 10 ** 4), (70, HALF, 300),
                            (5, Fraction(7, 11), 10 ** 9), (4, Fraction(2, 7), 1)]:
            num, rnum, _ = _int_weights(n, t)
            primes = _scan_primes(n, num, rnum, m_max)
            assert len(primes) == 3
            for before, p in zip([None, *primes], primes):
                assert all(p % d for d in range(2, p)) and p > max(2 * n, 1)
                assert num % p and rnum % p
                assert before is None or p > before + n // 2
            assert primes[0] <= max(2 * n, min(math.isqrt(m_max), 4096), 1) + 60

    # large n, where a sieve mod 2**64 passes every point: the counts and
    # sha256 digests that such a sieve with an exact recheck returned
    @pytest.mark.parametrize("n, t, m_max, count, digest", [
        (70, HALF, 300, 2495, "99a04d93b52c1bd1492f8121ae2e8a4a0ca03a53a01a87853f9cd6dc103ebd28"),
        (80, Fraction(2, 3), 200, 3162, "093c4c044a09de64b40c062892ecf676f697528de5e8a87acc2a5ff28b6c660c"),
        (65, HALF, 300, 2412, "c172501e5ea3745aa2f349a63c20380135b7abd1dcd0376aa925ec152b0ebeb6")])
    def test_large_n_rows_unchanged(self, n, t, m_max, count, digest):
        zeros = bfs_zeros(n, t, m_max).zeros
        assert len(zeros) == count
        assert hashlib.sha256(repr(zeros).encode()).hexdigest() == digest

    # the count and sha256 of the solutions' JSON text that the search
    # returned when it kept a class by the expansion of its composite
    @pytest.mark.parametrize("n, t, degree, lo, hi, count, digest", [
        (3, HALF, 2, -6, 6, 1007, "7702c1f76d5cf1c58ac95824f0358f65cff829c24df7a6f89af17071a6f69442"),
        (3, HALF, 3, -4, 4, 3266, "117974601281dea60b2b835eddc80c3778b113332979b46e3ce258a92484dff8"),
        (5, HALF, 3, -1, 2, 184, "ad78c0ede97f5fb8360d739d4c5e7f6a528801640d155f765b7ed19c22f9856a"),
        (2, THREE_Q, 2, -40, 40, 4, "4ca3d3e91b6514f9fc18a1212381085eb21e2a42eba1e1d868c6584c3262103e")])
    def test_search_output_unchanged(self, n, t, degree, lo, hi, count, digest):
        sols = search_parametric(n, t, degree, (lo, hi))
        assert len(sols) == count
        text = json.dumps([s.to_json() for s in sols])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # ranges without 0 or lopsided about it move the box of a(+-1) and the
    # points a(+-2) off centre; at degree 2 on (1, 6) the line a = b = 1 + 6 k has
    # a(-1) = -5, below every a(-1) of a quadratic; T = 2/3 and 2/7 have an
    # even numerator; T = 0 and 1 have no family at all
    @pytest.mark.parametrize("n, t, degree, lo, hi", [
        (3, HALF, 3, 1, 6), (3, HALF, 3, -1, 5), (2, HALF, 3, -2, 7), (3, HALF, 3, 0, 3),
        (3, HALF, 2, 1, 6), (1, HALF, 2, -1, 5), (3, HALF, 2, 2, 2), (3, HALF, 3, -1, -1),
        (1, Fraction(2, 3), 3, -2, 2), (1, Fraction(2, 7), 2, -1, 5),
        (2, Fraction(2, 7), 2, -3, 3), (0, HALF, 2, -2, 2), (5, HALF, 3, -1, 2),
        (1, Fraction(1), 2, -2, 2), (3, Fraction(0), 3, -1, 1), (2, Fraction(1), 3, 0, 2)])
    def test_search_matches_brute_force_off_centre(self, n, t, degree, lo, hi):
        expected = _brute_force_families(n, t, degree, lo, hi)
        found = [(s.a_coeffs, s.b_coeffs) for s in search_parametric(n, t, degree, (lo, hi))]
        assert found == expected
        if (n, t, lo) == (3, HALF, 0):  # a cubic family with a nonzero lead
            assert any(len(a) == 4 for a, _ in found)

    def test_canonical_form_matches_full_window_oracle(self):
        # canonical_form evaluates a(c) only at the window ends and beside the
        # critical points of a; _canonical expands every shift of the window
        rng = random.Random(7321)
        ties = 0
        for case in range(5000):
            bound = rng.choice((40, 100, 400) if case % 50 == 0 else (1, 2, 3, 5, 8, 13))
            a = [rng.randint(-bound, bound) for _ in range(rng.randint(1, 4))]
            b = [rng.randint(-bound, bound) for _ in range(rng.randint(1, 4))]
            if len(a) > 1:
                a[-1] = rng.choice((-1, 1)) * rng.randint(1, bound)
            if len(a) == 3 and case % 3 == 0:
                # a critical point at a half-integer (a tie beside it when
                # a_2 > 0) or, for a_1 = 0, an even a (a tie at the window
                # ends when a_2 < 0)
                a[2] = rng.choice((-1, 1)) * rng.randint(1, max(1, bound // 5))
                a[1] = a[2] * (2 * rng.randint(-3, 2) + 1) if case % 2 else 0
            a, b = _trim(a), _trim(b)
            span = 3 * (max(abs(c) for c in a + b) + 1)
            values = [_value(a, c) for c in range(-span, span + 1)]
            ties += values.count(min(values)) > 1
            canon = canonical_form(ParametricSolution(a_coeffs=a, b_coeffs=b, n=2, t=HALF))
            assert (canon.a_coeffs, canon.b_coeffs) == _canonical(a, b), (a, b)
        assert ties > 500


def _expansion_cases():
    """Every built-in family, each copy with one coefficient moved by +-1, and
    two degree-3 pairs (the diagonal family k^3 + k at n = 3, T = 1/2, and a
    pair that is no family)."""
    for sol in (s for families in KNOWN_FAMILIES.values() for s in families):
        yield sol
        for which, i, step in itertools.product(("a_coeffs", "b_coeffs"),
                                                range(3), (-1, 1)):
            coeffs = list(getattr(sol, which)) + [0] * (3 - len(getattr(sol, which)))
            coeffs[i] += step
            fields = {"a_coeffs": sol.a_coeffs, "b_coeffs": sol.b_coeffs, which: coeffs}
            yield ParametricSolution(n=sol.n, t=sol.t, **fields)
    yield ParametricSolution(a_coeffs=(0, 1, 0, 1), b_coeffs=(0, 1, 0, 1), n=3, t=HALF)
    yield ParametricSolution(a_coeffs=(2, -1, 0, 3), b_coeffs=(0, 1, 1, 1),
                             n=3, t=Fraction(2, 3))


def test_expansion_matches_fraction_oracle():
    # _g_fraction is g_poly (see test_fraction_oracle_is_g_poly) extended to
    # negative arguments; 15 points exceed every residual degree, so
    # agreement at them pins every coefficient
    valid = 0
    for sol in _expansion_cases():
        res = verify_parametric(sol)
        residual = res.residual_coefficients
        assert len(residual) <= 15
        scale = sol.t.denominator ** sol.n
        for k in range(-7, 8):
            assert _value(residual, k) == \
                scale * _g_fraction(sol.m_a(k), sol.m_b(k), sol.n, sol.t)
        nonzero = [i for i, c in enumerate(residual) if c != 0]
        if nonzero:
            assert res.first_nonzero == (nonzero[0], Fraction(residual[nonzero[0]], scale))
        else:
            assert res.first_nonzero is None
        assert res.valid == (not nonzero) and res.certificates_agree
        valid += res.valid
    assert valid == sum(map(len, KNOWN_FAMILIES.values())) + 1


def test_degree_three_search_has_bounded_memory():
    child = ("import json, resource; from fractions import Fraction; "
             "from homlab.nodal import search_parametric; "
             "sols = search_parametric(3, Fraction(3, 4), 3, (-10, 10)); "
             "print(json.dumps([len(sols), "
             "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                         capture_output=True, text=True).stdout
    count, max_rss_kb = json.loads(out)
    assert count == 0
    assert max_rss_kb < 400 * 1024


def test_zero_scan_has_bounded_memory():
    # an int64 row of m_max + 1 entries alone is 800 KB; the residue tables
    # and a row's candidates are far smaller
    tracemalloc.start()
    try:
        zeros = bfs_zeros(3, THREE_Q, 10 ** 5).zeros
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert zeros == ((1, 0), (1, 1), (1, 11), (2, 0), (3, 1), (11, 55), (70, 162))
    assert peak < 200_000
