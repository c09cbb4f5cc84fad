"""Locating and certifying interference zeros of the beam-splitter polynomial.

All zeros of the post-measurement amplitude live in the polynomial

    g(m_a, m_b | n) = sum_q C(n,q) (-1)^q (m_a)_{n-q} T^{n-q} (m_b)_q R^q,

which has rational value whenever T is rational: this is what makes exact
certification of destructive-interference zeros possible.  g is evaluated
here only, and only exactly: at T = num/den it is ``_g_int`` over den^n.
:func:`homlab.bs_core.bs_prob_exact` reads exact probabilities from it.

Covers: exhaustive integer (Diophantine) zero searches at rational
transmittance, verification and brute-force search of parametric
integer-polynomial zero families, and the closed-form extremal branch points
of the two-photon case at the balanced setting.  The diagonal nodal-line scan
of a computed grid is :func:`homlab.joint_dist.cnl_scan`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only
    from .bs_core import BeamSplitterSetting

# ---------------------------------------------------------------------------
# integer form of the zero polynomial at rational transmittance
# ---------------------------------------------------------------------------


def _int_weights(n: int, t: Fraction) -> tuple[int, int, int]:
    """Return (num, rnum, den^n) such that
    g = sum_q C(n,q)(-1)^q (m_a)_{n-q} num^{n-q} (m_b)_q rnum^q / den^n.
    ``t`` is None for an angle setting, which has no such form."""
    if t is None:
        raise ValueError("g needs a rational transmittance, not an angle")
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("transmittance must lie in [0, 1]")
    num, den = t.numerator, t.denominator
    return num, den - num, den ** n


def _falling(x: int, q: int) -> int:
    """(x)_q = x (x-1) ... (x-q+1), 1 for q = 0; total over all integer x,
    as ``verify_parametric`` evaluates g at negative x too."""
    if q < 0:
        raise ValueError("the falling factorial requires q >= 0")
    out = 1
    for j in range(q):
        out *= x - j
    return out


def _g_int(m_a: int, m_b: int, n: int, num: int, rnum: int) -> int:
    """Integer numerator of g at rational T; total over all integer m_a, m_b."""
    # running products (m_a)_j num^j and (m_b)_j (-rnum)^j
    ff_a, ff_b = [1], [1]
    for j in range(n):
        ff_a.append(ff_a[-1] * (m_a - j) * num)
        ff_b.append(ff_b[-1] * (j - m_b) * rnum)
    total = 0
    for q in range(n + 1):
        total += math.comb(n, q) * ff_a[n - q] * ff_b[q]
    return total


def g_poly(m_a: int, m_b: int, n: int, bs: BeamSplitterSetting) -> Fraction:
    """g(m_a, m_b | n) at the rational setting ``bs``, exactly: the bare sum,
    without the Kronecker factor that matches total photon number."""
    if m_a < 0 or m_b < 0 or n < 0:
        raise ValueError("arguments must be non-negative")
    num, rnum, scale = _int_weights(n, bs.exact_t)
    return Fraction(_g_int(m_a, m_b, n, num, rnum), scale)


def cos_factor_residual(m_prime: int, n: int, bs: BeamSplitterSetting) -> Fraction:
    """Residual Q such that (T - R) * Q = g_poly(m', m', n, bs) for odd n.

    The diagonal polynomial always factors as (T - R) times this residual,
    which is the algebraic origin of the contiguous diagonal zeros at the
    balanced setting.  Q has degree n - 1 in (T, R): an integer over den^(n-1).
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    num, rnum, scale = _int_weights(n - 1, bs.exact_t)
    total = 0
    for q in range((n + 1) // 2):
        coeff = (-1) ** q * math.comb(n, q) * _falling(m_prime, n - q) * _falling(m_prime, q)
        total += coeff * sum(num ** (n - q - k) * rnum ** (q + k - 1)
                             for k in range(1, n - 2 * q + 1))
    return Fraction(total, scale)


# ---------------------------------------------------------------------------
# exhaustive integer zero search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroSet:
    """All integer zeros of g(., .|n) at rational T within the scan bound.

    The scan runs over 1 <= m_a <= m_max, 0 <= m_b <= m_max: the m_a = 0 row
    is degenerate (it reduces to single falling-factorial roots) and is
    excluded.  A zero is flagged physical when m_a + m_b >= n, i.e. when the
    measured pair is reachable from some input with the a-mode Fock state.
    """

    n: int
    t: Fraction
    m_max: int
    zeros: tuple[tuple[int, int], ...]

    def physical(self) -> tuple[tuple[int, int], ...]:
        return tuple(z for z in self.zeros if z[0] + z[1] >= self.n)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "T": {"num": self.t.numerator, "den": self.t.denominator},
            "m_max": self.m_max,
            "zeros": [{"m_a": a, "m_b": b, "physical": a + b >= self.n}
                      for a, b in self.zeros],
        }


def _scan_primes(n: int, num: int, rnum: int, m_max: int) -> tuple[int, int, int]:
    """The three primes of the residue scan: each above 2n and prime to num
    and rnum, the first near isqrt(m_max) (at most 4097, which bounds the
    tables), each later one more than n / 2 above the one before.  A residue
    pair with x0 + y0 < n is a root mod every p, as in the proof in
    ``bfs_zeros``: a share of about n^2 / 2p^2 of a table, below 1/8 for
    p > 2n.  The gaps keep these bands of different primes from lining up
    on the rows and columns just past a prime."""
    primes, p = [], max(2 * n, min(math.isqrt(m_max), 1 << 12), 1) + 1
    while len(primes) < 3:
        if all(p % d for d in range(2, math.isqrt(p) + 1)) and num % p and rnum % p:
            primes.append(p)
            p += n // 2
        p += 1
    return tuple(primes)


def _root_table(p: int, size: int, n: int, num: int, rnum: int) -> list[tuple[int, ...]]:
    """For each x0 < size, the roots y0 < size of g(x0, .) mod p.

    In the falling-factorial basis of y, g(x0, y) = sum_q c_q (y)_q (-rnum)^q
    with c_q = C(n, q) (x0)_{n-q} num^{n-q}.  The column (y)_q (-rnum)^q mod p
    of every y is packed into one integer, a slot of ``width`` bits per y, so
    a row is n + 1 multiply-adds of c_q mod p on whole integers.  A slot then
    holds v < 2^bits, a sum of n + 1 products below p^2.  Its residue is
    v - p (v * magic >> shift), the quotient by a multiply-high that is exact
    for v < 2^bits (Granlund and Montgomery, PLDI 1994); v * magic < 2^width,
    so no slot carries into the next.  Adding 2^k - 1 to a residue sets its
    bit k exactly when it is not 0, for 2^k >= p."""
    bits = ((n + 1) * (p - 1) ** 2).bit_length()
    shift, k = bits + p.bit_length(), p.bit_length()
    magic = -(-(1 << shift) // p)
    nbytes = (2 * bits + 8) // 8
    width = 8 * nbytes
    ones = int.from_bytes(b"\1".ljust(nbytes, b"\0") * size, "little")
    quotient_mask, fill, tops = ((1 << width - shift) - 1) * ones, ((1 << k) - 1) * ones, ones << k
    column, packed = [1] * size, []
    for q in range(n + 1):
        slots = map(int.to_bytes, column, itertools.repeat(nbytes), itertools.repeat("little"))
        packed.append(int.from_bytes(b"".join(slots), "little"))
        column = [v * (y - q) * -rnum % p for y, v in enumerate(column)]
    weights = [math.comb(n, q) % p for q in range(n + 1)]
    table = []
    for x0 in range(size):
        row, ff = 0, 1  # ff = (x0)_{n-q} num^{n-q} mod p
        for q in range(n, -1, -1):
            row += weights[q] * ff % p * packed[q]
            ff = ff * (x0 - (n - q)) * num % p
            if not ff:
                break
        row -= p * ((row * magic >> shift) & quotient_mask)
        zero_tops, roots = tops ^ ((row + fill) & tops), []
        while zero_tops:
            top = zero_tops.bit_length() - 1
            roots.append(top // width)
            zero_tops ^= 1 << top
        table.append(tuple(reversed(roots)))
    return table


def bfs_zeros(n: int, t, m_max: int) -> ZeroSet:
    """Exhaustive exact scan for integer zeros of g at rational T, in pure
    integer arithmetic and in memory that does not grow with m_max.

    * m_a + m_b < n: every point is a zero.  Each term of g holds (m_a)_{n-q}
      and (m_b)_q, and (n - q) + q = n > m_a + m_b, so m_a < n - q or m_b < q:
      one of the two falling factorials has a factor 0.  This block is
      listed without a recheck.
    * T = 1 (rnum = 0) and T = 0 (num = 0): see the comment in the body.
    * Otherwise a residue scan.  Three primes p, q, r above n that divide
      neither num nor rnum (``_scan_primes``); mod each, the y^n coefficient
      of g(x, .) is (-rnum)^n != 0, so each row g(x, .) mod p is a polynomial
      of degree n with at most n roots, and it depends on x, as num is a unit.
      ``_root_table`` lists those roots for every x mod p.  Reduction mod p
      is a ring homomorphism Z -> F_p, so an integer zero (x, y) has y mod p
      among the roots of row x mod p, for every p: joining the roots mod p
      and mod q by the Chinese remainder theorem into progressions
      y = c (mod pq), and keeping the members whose residue mod r is a root,
      loses no zero.  ``_g_int`` confirms each candidate with m_a + m_b >= n.
      Memory is the tables, O(n p) with p about max(2n, min(isqrt(m_max),
      4096)), a row's candidates, O(n^2) while m_max < pq, and the zeros.
    """
    if n < 0 or m_max < 0:
        raise ValueError("n and m_max must be non-negative")
    t = Fraction(t)
    num, rnum, _ = _int_weights(n, t)
    if not num or not rnum:
        # only the term q = 0 (T = 1) or q = n (T = 0) of g survives: g is
        # num^n (m_a)_n or (-rnum)^n (m_b)_n, zero exactly on the rows m_a < n
        # or the columns m_b < n, all of them for n = 0
        rows = range(1, min(n, m_max + 1) if num else m_max + 1)
        cols = range(m_max + 1 if num else min(n, m_max + 1))
        return ZeroSet(n=n, t=t, m_max=m_max, zeros=tuple(itertools.product(rows, cols)))
    zeros = [(x, y) for x in range(1, min(n, m_max + 1)) for y in range(min(n - x, m_max + 1))]
    p, q, r = _scan_primes(n, num, rnum, m_max)
    tables = [_root_table(prime, min(prime, m_max + 1), n, num, rnum) for prime in (p, q, r)]
    # y = s mod p and y = u mod q: y = s lift_p + u lift_q mod pq
    mod, lift_p, lift_q = p * q, q * pow(q, -1, p), p * pow(p, -1, q)
    # row x reads entry x mod p of each table; a row that some table has no
    # root for holds no zero
    rows = zip(range(1, m_max + 1), *(itertools.islice(itertools.cycle(table), 1, None)
                                      for table in tables))
    for x, roots_p, roots_q, roots_r in filter(all, rows):
        if len(roots_p) * len(roots_q) * (m_max // mod + 1) <= m_max:
            starts, step = [(s * lift_p + u * lift_q) % mod
                            for s in roots_p for u in roots_q], mod
        else:  # a row with many roots, as x0 + y0 < n gives: a scan of the
            # row lists the same candidates in fewer steps
            starts, step = [y for y in range(m_max + 1)
                            if y % p in roots_p and y % q in roots_q], m_max + 1
        for start in starts:
            for y in range(start, m_max + 1, step):
                if y % r in roots_r and x + y >= n and not _g_int(x, y, n, num, rnum):
                    zeros.append((x, y))
    return ZeroSet(n=n, t=t, m_max=m_max, zeros=tuple(sorted(zeros)))


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficients low-to-high, int or Fraction)
# ---------------------------------------------------------------------------


def _ptrim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return tuple(p)


def _pmul(p, q):
    """Product of coefficient lists, untrimmed."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _shift(p, c: int):
    """Compose p(k + c) by repeated synthetic division by k - c."""
    out = list(p)
    for j in range(len(out) - 1):
        for i in range(len(out) - 2, j - 1, -1):
            out[i] += c * out[i + 1]
    return tuple(out)


def _preflect(p):
    """Compose p(-k)."""
    return _ptrim(tuple(-a if i % 2 else a for i, a in enumerate(p)))


def _peval(p, k: int):
    total = 0
    power = 1
    for a in p:
        total += a * power
        power *= k
    return total


# ---------------------------------------------------------------------------
# parametric polynomial families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParametricSolution:
    """Integer polynomial pair (m_a(k), m_b(k)) claimed to annihilate g
    identically; coefficients stored low-to-high, degree <= 3."""

    a_coeffs: tuple[int, ...]
    b_coeffs: tuple[int, ...]
    n: int
    t: Fraction

    def __post_init__(self):
        # trimmed int tuples and a Fraction, as the search passes, are kept
        for name, c in (("a_coeffs", self.a_coeffs), ("b_coeffs", self.b_coeffs)):
            if not (type(c) is tuple and all(type(x) is int for x in c) and _ptrim(c) == c):
                object.__setattr__(self, name, _ptrim(tuple(map(int, c))))
        if type(self.t) is not Fraction:
            object.__setattr__(self, "t", Fraction(self.t))
        if len(self.a_coeffs) > 4 or len(self.b_coeffs) > 4:
            raise ValueError("polynomial degree must be at most 3")

    def m_a(self, k: int) -> int:
        return _peval(self.a_coeffs, k)

    def m_b(self, k: int) -> int:
        return _peval(self.b_coeffs, k)

    def valid_k(self, lo: int, hi: int) -> tuple[int, ...]:
        """k values in [lo, hi] where both polynomials are non-negative."""
        return tuple(k for k in range(lo, hi + 1)
                     if self.m_a(k) >= 0 and self.m_b(k) >= 0)

    def to_json(self) -> dict:
        return {
            "m_a_coeffs": list(self.a_coeffs),
            "m_b_coeffs": list(self.b_coeffs),
            "n": self.n,
            "T": {"num": self.t.numerator, "den": self.t.denominator},
        }


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    residual_coefficients: tuple
    first_nonzero: tuple[int, Fraction] | None
    certificates_agree: bool


def _g_composite(sol: ParametricSolution, num: int, rnum: int):
    """Exact integer-coefficient numerator polynomial of g(m_a(k), m_b(k)), by
    Horner's rule in the falling-factorial basis of m_b on coefficient lists,
    g = d_0 + m_b (d_1 + (m_b - 1) (d_2 + ...)): 2n products, one trim."""
    n = sol.n
    a, b = list(sol.a_coeffs), list(sol.b_coeffs)
    ff_a = [[1]]
    for j in range(n):
        ff_a.append(_pmul(ff_a[-1], [a[0] - j] + a[1:]))
    total = [0]
    for q in range(n, -1, -1):
        d_q = math.comb(n, q) * (-rnum) ** q * num ** (n - q)
        total = [t + d_q * c for t, c in itertools.zip_longest(total, ff_a[n - q], fillvalue=0)]
        if q:
            total = _pmul(total, [b[0] - (q - 1)] + b[1:])
    return _ptrim(total)


def verify_parametric(sol: ParametricSolution) -> VerifyResult:
    """Certify a parametric family by two independent exact routes:
    full coefficient expansion, and evaluation at 3n + 1 integer points."""
    num, rnum, scale = _int_weights(sol.n, sol.t)
    residual = _g_composite(sol, num, rnum)
    first = next(((idx, Fraction(coeff, scale))
                  for idx, coeff in enumerate(residual) if coeff != 0), None)
    valid_expand = first is None
    valid_eval = all(_g_int(sol.m_a(k), sol.m_b(k), sol.n, num, rnum) == 0
                     for k in range(3 * sol.n + 1))
    return VerifyResult(valid=valid_expand,
                        residual_coefficients=residual,
                        first_nonzero=first,
                        certificates_agree=valid_expand == valid_eval)


def canonical_form(sol: ParametricSolution) -> ParametricSolution:
    """Representative of the family under k -> k + c and k -> -k + c with
    |c| <= span = 3 (largest |coefficient| + 1): of the shifts tying on the
    smallest a(c) in that window, the lexicographically smallest coefficient
    pair, of the family or of its reflection.  Not an orbit invariant: for
    even degree and a negative leading coefficient the smallest a(c) is at a
    window end, and the window depends on the member passed in (ROADMAP
    direction 2)."""
    a, b = _canonical_pair(sol.a_coeffs, sol.b_coeffs)
    return ParametricSolution(a_coeffs=a, b_coeffs=b, n=sol.n, t=sol.t)


def _canonical_pair(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """``canonical_form`` on the trimmed coefficient tuples a and b."""
    span = 3 * (max((abs(c) for c in a + b), default=0) + 1)
    # an integer minimiser of a(c) inside the window lies within 1 of a local
    # minimum of a; a non-constant a of degree <= 3 has at most one, the root
    # x of a' = u + v c + w c^2 where a'' = sqrt(v^2 - 4 u w), or -u / v if
    # w = 0 < v.  Floors by isqrt put x in [lo, hi + 1): lo - 1 .. hi + 2
    # holds the integers within 1 of it with one to spare on each side
    if len(a) == 1:
        near = range(-span, span + 1)
    else:
        u, v, w = (tuple(i * c for i, c in enumerate(a))[1:] + (0, 0))[:3]
        floors = [-u // v] if not w and v > 0 else []
        if w and v * v >= 4 * u * w:
            s = math.isqrt(v * v - 4 * u * w)
            floors = [(r - v) // (2 * w) for r in (s, s + 1)]
        near = [-span, span, *(range(min(floors) - 1, max(floors) + 3) if floors else ())]
    firsts = {c: _peval(a, c) for c in near if -span <= c <= span}
    lowest = min(firsts.values())
    # the shift by c has first coefficient a(c), and so has the reflection
    # of the shift, p(-k + c): only the shifts tying on the smallest one can
    # hold the minimum
    pairs = [(_shift(a, c), _shift(b, c)) for c, first in firsts.items() if first == lowest]
    return min(pairs + [(_preflect(pa), _preflect(pb)) for pa, pb in pairs])


def _row_zeros(x: int, cols: range, n: int, num: int, rnum: int) -> list[int]:
    """The y in ``cols`` with g(x, y) = 0, exactly: the difference table of
    n + 1 ``_g_int`` values, summed up n times from its constant n-th row."""
    row, heads = [_g_int(x, y, n, num, rnum) for y in range(cols[0], cols[0] + n + 1)], []
    for _ in range(n + 1):
        heads.append(row[0])
        row = [v - u for u, v in zip(row, row[1:])]
    row = [heads.pop()] * len(cols)
    while heads:
        row = list(itertools.accumulate(row[:-1], initial=heads.pop()))
    return [y for y, v in zip(cols, row) if not v]


def _search_strip(n: int, num: int, rnum: int, degree: int, lo: int, hi: int) -> list:
    """Coefficient pairs (a, b), both non-constant, whose composite
    g(a(k), b(k)) is 0 at k = -2 .. 2; ``verify_parametric`` rejects those
    that are no family.  Coefficients up to the top index D, the highest
    with (a_D, b_D) != (0, 0), lie in [lo, hi], those above it are 0, and
    num * a_D = rnum * b_D: the top homogeneous part of g is (T x - R y)^n, so
    the k^(n D) coefficient of the composite is (T a_D - R b_D)^n.

    Three zeros fix a pair: a_2 = (a(1) + a(-1)) / 2 - a_0 and a_1 + a_3 =
    (a(1) - a(-1)) / 2, likewise for b, with (a_3, b_3) = (0, 0) or a lead.
    So g is scanned exactly on the box ``near`` of every a(+-1), and on rows of
    the box ``far`` of every a(+-2) as the k = +-2 check asks for them."""
    near, far = (range(min(ends), max(ends) + 1) for ends in (
        [sum(f(lo * k ** j, hi * k ** j) for j in range(top + 1))
         for k in ks for top in range(1, degree + 1) for f in (min, max)]
        for ks in ((1, -1), (2, -2))))
    zeros = [(x, y) for x in near for y in _row_zeros(x, near, n, num, rnum)]
    far_zeros = functools.cache(lambda x: set(_row_zeros(x, far, n, num, rnum)))
    tops = [(p, q) for p in range(lo, hi + 1) for q in range(lo, hi + 1)
            if degree == 3 and (p, q) != (0, 0) and num * p == rnum * q] + [(0, 0)]
    # (a(1) + a(-1), b(1) + b(-1)) / 2 -> [(a_1, b_1, a_3, b_3)]
    halves: dict[tuple[int, int], list] = {}
    for (x1, y1), (x2, y2) in itertools.product(zeros, repeat=2):
        if (x1 + x2) % 2 == 0 == (y1 + y2) % 2:
            da, db = (x1 - x2) // 2, (y1 - y2) // 2
            halves.setdefault(((x1 + x2) // 2, (y1 + y2) // 2), []).extend(
                (da - a3, db - b3, a3, b3) for a3, b3 in tops
                if lo <= da - a3 <= hi and lo <= db - b3 <= hi)
    hits = []
    for a0, b0 in [(x, y) for x, y in zeros if lo <= x <= hi and lo <= y <= hi]:
        for (sa, sb), splits in halves.items():
            a2, b2 = sa - a0, sb - b0
            inside = lo <= a2 <= hi and lo <= b2 <= hi
            if not inside and (a2 or b2):
                continue
            for a1, b1, a3, b3 in splits:
                # the lead condition at the top index; a lead needs (a_2, b_2) inside
                pa, pb = (a3, b3) if a3 or b3 else (a2, b2) if a2 or b2 else (a1, b1)
                if ((a3 or b3) and not inside or num * pa != rnum * pb
                        or not (a1 or a2 or a3) or not (b1 or b2 or b3)):
                    continue
                if all(b0 + k * (b1 + k * (b2 + k * b3))
                       in far_zeros(a0 + k * (a1 + k * (a2 + k * a3))) for k in (2, -2)):
                    hits.append(((a0, a1, a2, a3)[:degree + 1], (b0, b1, b2, b3)[:degree + 1]))
    return hits


def search_parametric(n: int, t, degree: int,
                      coeff_range: tuple[int, int]) -> list[ParametricSolution]:
    """Exhaustive exact search for integer polynomial pairs that annihilate g
    identically: each pair is fixed by its zeros at k = -1, 0, 1, found on a
    box, and kept if it has zeros at k = +-2 too (see ``_search_strip``).

    Constant-in-k polynomials are excluded (they reduce to single integer
    zeros already covered by :func:`bfs_zeros`).  Results are canonicalized,
    deduplicated, exactly verified, and returned in deterministic order.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if degree not in (2, 3):
        raise ValueError("degree must be 2 or 3")
    num, rnum, _ = _int_weights(n, t)
    lo, hi = coeff_range
    if lo > hi:
        raise ValueError("empty coefficient range")
    if num == 0 or rnum == 0:
        # at T = 1, g = num^n (m_a)_n vanishes only for m_a in {0, .., n - 1},
        # a finite set that no non-constant a(k) stays in; T = 0 likewise in m_b
        return []
    hits = _search_strip(n, num, rnum, degree, lo, hi)
    # k -> +-k + c maps a family onto itself, so g(a(k), b(k)) vanishes for
    # every member of a canonical class or for none: verify once per class
    classes = sorted({_canonical_pair(_ptrim(a), _ptrim(b)) for a, b in hits})
    found = [ParametricSolution(a_coeffs=a, b_coeffs=b, n=n, t=t) for a, b in classes]
    return [sol for sol in found if verify_parametric(sol).valid]


# ---------------------------------------------------------------------------
# extremal branch points for n = 2 at the balanced setting
# ---------------------------------------------------------------------------


def extremal_branch_points(m_a: int, k: int) -> tuple[int, int] | None:
    """Integer solutions m_b = m_a + (1 +/- sqrt(1 + 8 m_a + k)) / 2 of the
    discrete extremal condition for the two-photon balanced case; None when
    the discriminant is not an odd perfect square or a branch goes negative."""
    disc = 1 + 8 * m_a + k
    if disc < 0:
        return None
    root = math.isqrt(disc)
    if root * root != disc or root % 2 == 0:
        return None
    plus = m_a + (1 + root) // 2
    minus = m_a + (1 - root) // 2
    if plus < 0 or minus < 0:
        return None
    return (plus, minus)


# ---------------------------------------------------------------------------
# built-in verified families (quadratics in k)
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)
_THREE_QUARTERS = Fraction(3, 4)

#: families annihilating g(., .|2) at T = 1/2  (coefficients low-to-high)
BALANCED_N2_FAMILIES = tuple(
    ParametricSolution(a_coeffs=a, b_coeffs=b, n=2, t=_HALF)
    for a, b in [
        ((0, -1, 2), (1, -3, 2)),
        ((0, 1, 2), (1, 3, 2)),
        # a_1 = 2 is forced: (m_a - m_b)^2 = m_a + m_b requires
        # (4k + 1 - a_1 k)^2 = 16 k^2 + (6 + a_1) k + 1
        ((0, 2, 8), (1, 6, 8)),
        ((3, -5, 2), (1, -3, 2)),
        ((1, 3, 2), (3, 5, 2)),
        ((1, 6, 8), (3, 10, 8)),
        ((3, 5, 2), (6, 7, 2)),
        ((6, 7, 2), (10, 9, 2)),
    ]
)

#: families annihilating g(., .|3) at T = 1/2 (first row is the diagonal line)
BALANCED_N3_FAMILIES = tuple(
    ParametricSolution(a_coeffs=a, b_coeffs=b, n=3, t=_HALF)
    for a, b in [
        ((0, 1), (0, 1)),
        ((2, 7, 6), (7, 13, 6)),
        ((1, 5, 6), (5, 11, 6)),
    ]
)

#: families annihilating g(., .|2) at T = 3/4
T34_N2_FAMILIES = tuple(
    ParametricSolution(a_coeffs=a, b_coeffs=b, n=2, t=_THREE_QUARTERS)
    for a, b in [
        ((0, 1, 12), (0, -9, 36)),
        ((0, 1, 12), (1, 15, 36)),
        ((1, 7, 12), (0, 9, 36)),
        ((1, 7, 12), (7, 33, 36)),
        ((6, 17, 12), (10, 39, 36)),
        ((11, 23, 12), (22, 57, 36)),
    ]
)

KNOWN_FAMILIES: dict[tuple[int, Fraction], tuple[ParametricSolution, ...]] = {
    (2, _HALF): BALANCED_N2_FAMILIES,
    (3, _HALF): BALANCED_N3_FAMILIES,
    (2, _THREE_QUARTERS): T34_N2_FAMILIES,
}
