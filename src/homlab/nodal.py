"""Locating and certifying interference zeros of the beam-splitter polynomial.

All zeros of the post-measurement amplitude live in the polynomial

    g(m_a, m_b | n) = sum_q C(n,q) (-1)^q (m_a)_{n-q} T^{n-q} (m_b)_q R^q,

which has rational value whenever T is rational: this is what makes exact
certification of destructive-interference zeros possible.  g is evaluated
here only, and only exactly: at T = num/den it is ``_g_int`` over den^n.

Covers: exhaustive integer (Diophantine) zero searches at rational
transmittance, verification and brute-force search of parametric
integer-polynomial zero families, and the closed-form extremal branch points
of the two-photon case at the balanced setting.  The diagonal nodal-line scan
of a computed grid is :func:`homlab.joint_dist.cnl_scan`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only; numpy is imported by the array kernels
    from .bs_core import BeamSplitterSetting

#: entries per block of the wrapping-int64 sieves, which bounds their memory
_BLOCK = 1 << 17

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


def _g_wrapped(x, y, n: int, num: int, rnum: int):
    """``_g_int`` at the broadcast arrays x, y in wrapping int64 arithmetic,
    i.e. modulo 2**64.  That is a ring homomorphism, so every zero of g maps
    to 0; a 0 may also be a nonzero multiple of 2**64, so callers that need
    exact zeros recheck.  Horner's rule in the falling-factorial basis of y,
    g = d_0 + y (d_1 + (y - 1) (d_2 + ...)), forms d_q on x alone."""
    import numpy as np
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    with np.errstate(over="ignore"):
        ff_x = [np.ones_like(x)]
        for j in range(n):
            ff_x.append(ff_x[-1] * (x - j))
        total = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.int64)
        for q in range(n, -1, -1):
            d_q = math.comb(n, q) * (-rnum) ** q * num ** (n - q)
            total += np.int64((d_q + 2 ** 63) % 2 ** 64 - 2 ** 63) * ff_x[n - q]
            if q:
                total *= y - (q - 1)
    return total


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


def bfs_zeros(n: int, t, m_max: int) -> ZeroSet:
    """Exhaustive exact scan for integer zeros of g at rational T: a wrapping
    int64 sieve over blocks of rows, each of its zeros confirmed by ``_g_int``."""
    import numpy as np
    if n < 0 or m_max < 0:
        raise ValueError("n and m_max must be non-negative")
    t = Fraction(t)
    num, rnum, _ = _int_weights(n, t)
    m_b = np.arange(m_max + 1, dtype=np.int64)
    step = max(1, _BLOCK // max(m_b.size, 1))
    zeros: list[tuple[int, int]] = []
    for first in range(1, m_max + 1, step):
        m_a = np.arange(first, min(first + step, m_max + 1), dtype=np.int64)
        rows, cols = np.divmod(np.flatnonzero(
            _g_wrapped(m_a[:, None], m_b, n, num, rnum) == 0), m_b.size)
        zeros.extend(z for z in zip((first + rows).tolist(), cols.tolist())
                     if _g_int(*z, n, num, rnum) == 0)
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
    the Horner scheme of ``_g_wrapped`` on coefficient lists: 2n products,
    one trim."""
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
    a, b = sol.a_coeffs, sol.b_coeffs
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
    best = min(pairs + [(_preflect(pa), _preflect(pb)) for pa, pb in pairs])
    return ParametricSolution(a_coeffs=best[0], b_coeffs=best[1], n=sol.n, t=sol.t)


def _search_strip(args):
    """Coefficient pairs (a, b), a_0 in ``a0_values``, both polynomials
    non-constant, whose composite g(a(k), b(k)) is 0 modulo 2**64 at every
    k = 0 .. degree * n.  Every family passes; ``verify_parametric`` rejects
    the rest.

    Two necessary conditions bound the enumeration.  (a_0, b_0) is a zero of
    g.  At the highest index D with (a_D, b_D) != (0, 0), num * a_D equals
    rnum * b_D: the top homogeneous part of g is (T x - R y)^n, so the
    k^(n D) coefficient of the composite is (T a_D - R b_D)^n.  Each such
    start and lead makes a head (a_0, b_0, a_top, b_top), under which the
    middle coefficients of a and of b each range over the same m tuples.  One
    sieve call at k = 1 covers a block of heads times a block of a-middles
    times all m b-middles; its survivors are filtered at each further point,
    so memory stays O(_BLOCK + heads + m).
    """
    import numpy as np
    (n, num, rnum, degree, lo, hi, a0_values) = args
    coeffs = np.arange(lo, hi + 1, dtype=np.int64)
    a0s = np.array(a0_values, dtype=np.int64)
    rows, cols = np.divmod(np.flatnonzero(
        _g_wrapped(a0s[:, None], coeffs, n, num, rnum) == 0), coeffs.size)
    starts = list(zip(a0s[rows].tolist(), coeffs[cols].tolist()))
    leads = [(p, q) for p in range(lo, hi + 1) for q in range(lo, hi + 1)
             if (p, q) != (0, 0) and num * p == rnum * q]
    heads = np.array([start + lead for start in starts for lead in leads],
                     dtype=np.int64).reshape(-1, 4)
    hits = []
    for top in range(1, degree + 1):
        tuples = list(itertools.product(range(lo, hi + 1), repeat=top - 1))
        mids = np.array(tuples, dtype=np.int64).reshape(len(tuples), top - 1)
        m = len(mids)
        # sum_{0 < j < top} c_j k^j of every middle tuple, at each point k
        mid_at = [mids @ (k ** np.arange(1, top, dtype=np.int64))
                  for k in range(degree * n + 1)]
        n_rows = min(m, max(1, _BLOCK // m))
        n_heads = max(1, _BLOCK // (n_rows * m))
        for h0, r0 in itertools.product(range(0, len(heads), n_heads), range(0, m, n_rows)):
            a0, b0, pa, pb = heads[h0:h0 + n_heads].T
            x = (a0 + pa)[:, None, None] + mid_at[1][None, r0:r0 + n_rows, None]
            y = (b0 + pb)[:, None, None] + mid_at[1][None, None, :]
            ih, ia, ib = np.unravel_index(np.flatnonzero(
                _g_wrapped(x, y, n, num, rnum) == 0), x.shape[:2] + (m,))
            ih += h0
            ia += r0
            for k in range(2, degree * n + 1):
                if ih.size == 0:
                    break
                a0, b0, pa, pb = heads[ih].T
                keep = _g_wrapped(a0 + pa * k ** top + mid_at[k][ia],
                                  b0 + pb * k ** top + mid_at[k][ib], n, num, rnum) == 0
                ih, ia, ib = ih[keep], ia[keep], ib[keep]
            pad = (0,) * (degree - top)
            hits.extend(((a0, *i, pa, *pad), (b0, *j, pb, *pad))
                        for (a0, b0, pa, pb), i, j in zip(
                            heads[ih].tolist(), mids[ia].tolist(), mids[ib].tolist()))
    return [(a, b) for a, b in hits if any(a[1:]) and any(b[1:])]


def search_parametric(n: int, t, degree: int, coeff_range: tuple[int, int],
                      workers: int = 1) -> list[ParametricSolution]:
    """Exhaustive scan of integer coefficient tuples, pruned by necessary
    conditions (see ``_search_strip``), for polynomial pairs that annihilate
    g identically.

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
    a0_values = list(range(lo, hi + 1))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        chunks = [a0_values[i::workers] for i in range(workers)]
        args = [(n, num, rnum, degree, lo, hi, chunk) for chunk in chunks if chunk]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            hits = [hit for part in pool.map(_search_strip, args) for hit in part]
    else:
        hits = _search_strip((n, num, rnum, degree, lo, hi, a0_values))
    # k -> +-k + c maps a family onto itself, so g(a(k), b(k)) vanishes for
    # every member of a canonical class or for none: verify once per class
    found: dict[tuple, ParametricSolution] = {}
    for a, b in hits:
        canon = canonical_form(ParametricSolution(a_coeffs=a, b_coeffs=b, n=n, t=t))
        found.setdefault((canon.a_coeffs, canon.b_coeffs), canon)
    return [found[key] for key in sorted(found) if verify_parametric(found[key]).valid]


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
