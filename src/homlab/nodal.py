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
from collections import namedtuple
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
    """(x)_q = x (x-1) ... (x-q+1), 1 for q = 0; total over all integer x.
    ``cos_factor_residual`` reads it; g itself is ``_g_int``."""
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


class ZeroSet(namedtuple("ZeroSet", "n t m_max zeros")):
    """All integer zeros of g(., .|n) at rational T within the scan bound.

    The scan runs over 1 <= m_a <= m_max, 0 <= m_b <= m_max: the m_a = 0 row
    is degenerate (it reduces to single falling-factorial roots) and is
    excluded.  A zero is flagged physical when m_a + m_b >= n, i.e. when the
    measured pair is reachable from some input with the a-mode Fock state.
    """

    __slots__ = ()

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


def _scan_primes(n: int, num: int, rnum: int, cols: int) -> tuple[int, int, int]:
    """The three primes of the residue scan of a box of ``cols`` columns:
    each above 2n and prime to num and rnum, the first near isqrt(cols) (at
    most 4097, which bounds the tables), each later one more than n / 2
    above the one before.  A residue pair with x0 + y0 < n is a root mod
    every p, as in the proof in ``bfs_zeros``: a share of about n^2 / 2p^2
    of a table, below 1/8 for p > 2n.  The gaps keep these bands of
    different primes from lining up on the rows and columns just past a
    prime."""
    primes, p = [], max(2 * n, min(math.isqrt(cols), 1 << 12), 1) + 1
    while len(primes) < 3:
        if all(p % d for d in range(2, math.isqrt(p) + 1)) and num % p and rnum % p:
            primes.append(p)
            p += n // 2
        p += 1
    return tuple(primes)


def _root_table(p: int, size: int, n: int, num: int, rnum: int,
                lo: int) -> list[tuple[int, ...]]:
    """For each x0 < size, the j < size such that lo + j is a root of
    g(x0, .) mod p.

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
        column = [v * (lo + j - q) * -rnum % p for j, v in enumerate(column)]
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


def _candidates(n: int, num: int, rnum: int, xs: range, ys: range):
    """The points (x, y) of the box xs x ys (ranges of step 1), in any order,
    at which g is 0 mod three primes p, q, r: among them are the integer
    zeros of g on the box.  num and rnum must be non-zero.

    Mod a prime above 2n that divides neither num nor rnum (``_scan_primes``)
    the row g(x, .) has the y^n coefficient (-rnum)^n != 0, so at most n
    roots, which ``_root_table`` lists for every x mod p.  Reduction mod p is
    a ring homomorphism, so an integer zero (x, y) of either sign has y mod p
    among the roots of row x mod p for every p: joining the roots mod p and
    mod q by the Chinese remainder theorem into progressions y = c (mod pq),
    and keeping the members whose residue mod r is a root, loses no zero.
    Memory is the tables, O(n p) with p about max(2n, min(isqrt(len(ys)),
    4096)), and a row's candidates, O(n^2) while len(ys) <= pq."""
    p, q, r = _scan_primes(n, num, rnum, len(ys))
    # a box inside [0, stop) needs only the first stop residues: smaller
    # tables at large n
    stop = max(xs.stop, ys.stop) if min(xs.start, ys.start) >= 0 else math.inf
    # the tables and the scan run on y - lo
    lo, cols = ys.start, len(ys)
    tables = [_root_table(prime, min(prime, stop), n, num, rnum, lo) for prime in (p, q, r)]
    # y = s mod p and y = u mod q: y = s lift_p + u lift_q mod pq; a
    # progression has at most ``reach`` members in the box
    mod, lift_p, lift_q = p * q, q * pow(q, -1, p), p * pow(p, -1, q)
    reach = cols // mod + 1
    # row x reads entry x mod p of each table; a row that some table has no
    # root for holds no zero.  x rides in a 1-tuple, so that x = 0 passes
    rows = zip(zip(xs), *(itertools.islice(itertools.cycle(table), xs.start % prime, None)
                          for prime, table in zip((p, q, r), tables)))
    for (x,), roots_p, roots_q, roots_r in filter(all, rows):
        if len(roots_p) * len(roots_q) * reach < cols:
            starts, step = [(s * lift_p + u * lift_q) % mod for s in roots_p for u in roots_q], mod
        else:  # a row with many roots, as x0 + y0 < n gives: a scan of the
            # row lists the same candidates in fewer steps
            starts, step = [y for y in range(cols) if y % p in roots_p and y % q in roots_q], cols
        for start in starts:
            for y in range(start, cols, step):
                if y % r in roots_r:
                    yield x, lo + y


def bfs_zeros(n: int, t, m_max: int) -> ZeroSet:
    """Exhaustive exact scan for integer zeros of g at rational T, in pure
    integer arithmetic and in memory that does not grow with m_max.

    * m_a + m_b < n: every point is a zero.  Each term of g holds (m_a)_{n-q}
      and (m_b)_q, and (n - q) + q = n > m_a + m_b, so m_a < n - q or m_b < q:
      one of the two falling factorials has a factor 0.  This block is
      listed without a recheck.
    * T = 1 (rnum = 0) and T = 0 (num = 0): see the comment in the body.
    * Otherwise the residue scan ``_candidates`` on the box, and ``_g_int``
      confirms each candidate with m_a + m_b >= n.  Memory is the scan's and
      the zeros.
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
    zeros += [(x, y) for x, y in _candidates(n, num, rnum, range(1, m_max + 1), range(m_max + 1))
              if x + y >= n and not _g_int(x, y, n, num, rnum)]
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


def _shift(p, c: int, s: int = 1):
    """Compose p(s k + c) for p of degree <= 3 and s = +-1: the coefficient
    of k^j is s^j p^(j)(c) / j!, a Taylor coefficient.  The lead keeps its
    magnitude, so the shift of a trimmed p is trimmed."""
    p0, p1, p2, p3 = p + (0,) * (4 - len(p))
    return (p0 + c * (p1 + c * (p2 + c * p3)), s * (p1 + c * (2 * p2 + 3 * c * p3)),
            p2 + 3 * c * p3, s * p3)[:len(p)]


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


class ParametricSolution(namedtuple("ParametricSolution", "a_coeffs b_coeffs n t")):
    """Integer polynomial pair (m_a(k), m_b(k)) claimed to annihilate g
    identically; coefficients stored low-to-high, degree <= 3."""

    __slots__ = ()

    def __new__(cls, a_coeffs, b_coeffs, n, t):
        a, b = _ptrim(tuple(map(int, a_coeffs))), _ptrim(tuple(map(int, b_coeffs)))
        if len(a) > 4 or len(b) > 4:
            raise ValueError("polynomial degree must be at most 3")
        return super().__new__(cls, a, b, n, Fraction(t))

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


class VerifyResult(namedtuple("VerifyResult",
                              "valid residual_coefficients first_nonzero certificates_agree")):
    """Outcome of ``verify_parametric``: ``first_nonzero`` is the (index,
    coefficient) of the residual's lowest nonzero term, or None."""

    __slots__ = ()


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
    direction 4)."""
    a, b = _canonical_pair(sol.a_coeffs, sol.b_coeffs)
    return ParametricSolution(a_coeffs=a, b_coeffs=b, n=sol.n, t=sol.t)


def _canonical_pair(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """``canonical_form`` on the trimmed coefficient tuples a and b."""
    span = 3 * (max(map(abs, a + b), default=0) + 1)
    a0, a1, a2, a3 = a + (0,) * (4 - len(a))
    # an integer minimiser of a(c) inside the window lies within 1 of a local
    # minimum of a; a non-constant a of degree <= 3 has at most one, the root
    # x of a' = u + v c + w c^2 where a'' = sqrt(v^2 - 4 u w), or -u / v if
    # w = 0 < v.  Floors by isqrt put x in [lo, hi + 1): lo - 1 .. hi + 2
    # holds the integers within 1 of it with one to spare on each side
    if len(a) == 1:
        near = range(-span, span + 1)
    else:
        u, v, w = a1, 2 * a2, 3 * a3
        floors = [-u // v] if not w and v > 0 else []
        if w and v * v >= 4 * u * w:
            s = math.isqrt(v * v - 4 * u * w)
            floors = [(r - v) // (2 * w) for r in (s, s + 1)]
        near = [-span, span, *(range(min(floors) - 1, max(floors) + 3) if floors else ())]
    lowest, ties = math.inf, set()
    for c in near:
        if -span <= c <= span:
            first = a0 + c * (a1 + c * (a2 + c * a3))
            if first < lowest:
                lowest, ties = first, {c}
            elif first == lowest:
                ties.add(c)
    # the shift by c has first coefficient a(c), and so has its reflection
    # p(-k + c): only the shifts tying on the smallest one can hold the
    # minimum.  The reflection negates the odd coefficients, so it is the
    # smaller of the two when the first nonzero of them is positive
    pairs = []
    for c in ties:
        pa, pb = _shift(a, c), _shift(b, c)
        for x in pa[1::2] + pb[1::2]:
            if x:
                if x > 0:
                    pa, pb = _shift(a, c, -1), _shift(b, c, -1)
                break
        pairs.append((pa, pb))
    return min(pairs)


def _search_strip(n: int, num: int, rnum: int, degree: int, lo: int, hi: int) -> list:
    """Trimmed coefficient pairs (a, b), both non-constant, whose composite
    G(k) = g(a(k), b(k)) (its integer numerator) is identically 0.
    Coefficients up to the top index D, the highest with (a_D, b_D) !=
    (0, 0), lie in [lo, hi], those above it are 0, and num * a_D = rnum *
    b_D.  Of a pair and its mirror (a(-k), b(-k)), one family class, only
    one may be listed.

    Three zeros fix a pair: a_2 = (a(1) + a(-1)) / 2 - a_0 and a_1 + a_3 =
    (a(1) - a(-1)) / 2, likewise for b, with (a_3, b_3) = (0, 0) or a lead.
    So the zeros of g are listed on the box ``near`` of every a(+-1), by the
    residue scan ``_candidates`` and an exact ``_g_int`` check of each
    candidate.

    The zeros certify the pair.  g has degree n and top homogeneous part
    (num x - rnum y)^n, so G has degree <= n D and its k^(n D) coefficient
    is (num a_D - rnum b_D)^n = 0: G has degree < n D <= n * degree.  The
    pair is kept when G is 0 at the points k = -2 .. max(2, n * degree - 3),
    at least n * degree of them: k = -1, 0, 1 from the box, and every other k
    by one cached exact ``_g_int``; more zeros than its degree make G the
    zero polynomial.  Conversely a family vanishes at every k.

    k -> -k swaps (a(1), b(1)) with (a(-1), b(-1)) and negates a_1, b_1, a_3
    and b_3; it maps G to G(-k), so a pair is a family exactly when its
    mirror is.  The split with (a(1), b(1)) < (a(-1), b(-1)) is dropped when
    the mirror's coefficients lie in [lo, hi] too (each negated one up to
    D): the mirror's split has the reverse order and is kept."""
    ends = [sum(f(lo * k ** j, hi * k ** j) for j in range(top + 1))
            for k in (1, -1) for top in range(1, degree + 1) for f in (min, max)]
    near = range(min(ends), max(ends) + 1)
    zeros = {(x, y) for x, y in _candidates(n, num, rnum, near, near)
             if not _g_int(x, y, n, num, rnum)}
    coeffs = range(lo, hi + 1)
    tops = [(p, q) for p in coeffs for q in coeffs
            if degree == 3 and (p, q) != (0, 0) and num * p == rnum * q] + [(0, 0)]
    # (a(1) + a(-1), b(1) + b(-1)) / 2 -> [(a_1, b_1, a_3, b_3)], without
    # the splits whose mirror is listed; a_3 = 0 exactly when b_3 = 0
    halves: dict[tuple[int, int], list] = {}
    for (x1, y1), (x2, y2) in itertools.product(zeros, repeat=2):
        if (x1 + x2) % 2 == 0 == (y1 + y2) % 2:
            da, db = (x1 - x2) // 2, (y1 - y2) // 2
            mirrored = (x1, y1) < (x2, y2)
            halves.setdefault(((x1 + x2) // 2, (y1 + y2) // 2), []).extend(
                (da - a3, db - b3, a3, b3) for a3, b3 in tops
                if da - a3 in coeffs and db - b3 in coeffs
                and not (mirrored and a3 - da in coeffs and b3 - db in coeffs
                         and (not a3 or -a3 in coeffs and -b3 in coeffs)))
    # the hits share few of their points k = +-2, 3 .. n * degree - 3: g is
    # evaluated once at each
    zero = functools.cache(lambda x, y: not _g_int(x, y, n, num, rnum))
    extra = range(3, n * degree - 2)
    hits = []
    for a0, b0 in [(x, y) for x, y in zeros if x in coeffs and y in coeffs]:
        for (sa, sb), splits in halves.items():
            a2, b2 = sa - a0, sb - b0
            inside = a2 in coeffs and b2 in coeffs
            if not inside and (a2 or b2):
                continue
            ea, eb = a0 + 4 * a2, b0 + 4 * b2
            for a1, b1, a3, b3 in splits:
                # the lead condition at the top index; a lead needs (a_2, b_2) inside
                top, pa, pb = (3, a3, b3) if a3 or b3 else (2, a2, b2) if a2 or b2 else (1, a1, b1)
                if (top == 3 and not inside or num * pa != rnum * pb
                        or not (a1 or a2 or a3) or not (b1 or b2 or b3)):
                    continue
                # a(+-2) = ea +- oa
                oa, ob = 2 * a1 + 8 * a3, 2 * b1 + 8 * b3
                if (zero(ea + oa, eb + ob) and zero(ea - oa, eb - ob)
                        and all(zero(a0 + k * (a1 + k * (a2 + k * a3)),
                                     b0 + k * (b1 + k * (b2 + k * b3))) for k in extra)):
                    hits.append(((a0, a1, a2, a3)[:top + 1], (b0, b1, b2, b3)[:top + 1]))
    return hits


def search_parametric(n: int, t, degree: int,
                      coeff_range: tuple[int, int]) -> list[ParametricSolution]:
    """Exhaustive exact search for integer polynomial pairs that annihilate g
    identically: each pair is fixed by its zeros at k = -1, 0, 1, found on a
    box, and certified by its zeros at n * degree points (see
    ``_search_strip``), which prove that g(a(k), b(k)) is the zero
    polynomial.

    Constant-in-k polynomials are excluded (they reduce to single integer
    zeros already covered by :func:`bfs_zeros`).  Results are canonicalized,
    deduplicated and returned in deterministic order.
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
    # k -> +-k + c maps a family onto itself: each hit is a family, and
    # members of one family share a canonical class
    hits = _search_strip(n, num, rnum, degree, lo, hi)
    classes = sorted({_canonical_pair(a, b) for a, b in hits})
    # trimmed int tuples and a Fraction, as ``ParametricSolution`` keeps them
    t = Fraction(t)
    return [ParametricSolution._make((a, b, n, t)) for a, b in classes]


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
