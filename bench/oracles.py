"""Correctness checks for the outputs of benchmark jobs.

Every check is derived from the physics or the algebra directly and imports
nothing from homlab, so a defect in the program cannot pass by being shared
with its own oracle.  A check raises ``CheckError`` with a one-line reason.

Beam-splitter convention (homlab's README): T = cos^2(theta/2), and the
b-mode reflection carries the minus sign, so coherent amplitudes map as
(alpha, beta) -> (c alpha - s beta, s alpha + c beta) with c = sqrt(T),
s = sqrt(1 - T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

#: a grid may exceed unit mass by at most this much
MASS_TOL = 1e-12
#: inputs are truncated at 1e-10 tail mass per mode, so a grid may lose that
MASS_DEFICIT_TOL = 1e-8
#: rounding allowance on top of the truncation bound of a closed-form entry
FLOAT_SLACK = 1e-14
#: Fock-pair grids against exact rational probabilities
FOCK_TOL = 1e-12
#: relative tolerance of marginal photon-number means
MOMENT_TOL = 1e-6
#: diagonal of a balanced splitter fed an odd-parity a-mode state
DARK_TOL = 1e-14
#: herald and Dicke numbers against their closed forms (relative)
SCALAR_TOL = 1e-9


class CheckError(Exception):
    """An output disagrees with its oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# input states and beam splitter, as the benchmark describes them
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mode:
    """One input mode: ``kind`` in fock/coherent/thermal/oddcat/pasmss."""

    kind: str
    value: complex | float | int

    @property
    def mean_n(self) -> float:
        """Photon-number mean of the untruncated state."""
        if self.kind == "fock":
            return float(self.value)
        if self.kind == "coherent":
            return abs(self.value) ** 2
        if self.kind == "thermal":
            return float(self.value)
        if self.kind == "oddcat":
            a2 = abs(self.value) ** 2
            return a2 / math.tanh(a2)
        if self.kind == "pasmss":
            # a^dag|xi>/cosh r has <n> = <(n+1)^2>_xi / cosh^2 r; Wick's
            # theorem on squeezed vacuum gives <n> = sh^2 and
            # <n^2> = sh^2 ch^2 + 2 sh^4 + sh^2
            sh2 = math.sinh(self.value) ** 2
            ch2 = math.cosh(self.value) ** 2
            n2 = sh2 * ch2 + 2 * sh2 * sh2 + sh2
            return (n2 + 2 * sh2 + 1) / ch2
        raise ValueError(f"unknown mode kind {self.kind!r}")

    @property
    def mean_a(self) -> complex:
        """<a>; zero for every state here except the coherent one."""
        return complex(self.value) if self.kind == "coherent" else 0j

    @property
    def odd(self) -> bool:
        """Supported on odd photon numbers only."""
        return self.kind in ("oddcat", "pasmss") or (self.kind == "fock"
                                                     and self.value % 2 == 1)


@dataclass(frozen=True)
class Splitter:
    """Exact transmittance (Fraction) or a float mixing angle."""

    t: Fraction | None = None
    theta: float | None = None

    @property
    def c(self) -> float:
        return math.sqrt(self.t) if self.t is not None else math.cos(self.theta / 2)

    @property
    def s(self) -> float:
        return math.sqrt(1 - self.t) if self.t is not None else math.sin(self.theta / 2)

    @property
    def balanced(self) -> bool:
        return self.t == Fraction(1, 2)


def output_means(a: Mode, b: Mode, bs: Splitter) -> tuple[float, float]:
    """Photon-number means of the two output modes for a product input."""
    c, s = bs.c, bs.s
    cross = 2 * c * s * (a.mean_a.conjugate() * b.mean_a).real
    return (c * c * a.mean_n + s * s * b.mean_n - cross,
            s * s * a.mean_n + c * c * b.mean_n + cross)


# ---------------------------------------------------------------------------
# grid documents
# ---------------------------------------------------------------------------


def grid_from_csv(text: str) -> list[list[float]]:
    lines = text.strip().split("\n")
    require(lines[0] == "m_a,m_b,P", f"unexpected CSV header {lines[0]!r}")
    cells = [line.split(",") for line in lines[1:]]
    size = math.isqrt(len(cells))
    require(size * size == len(cells), "CSV grid is not square")
    grid = [[0.0] * size for _ in range(size)]
    for m_a, m_b, p in cells:
        grid[int(m_a)][int(m_b)] = float(p)
    return grid


def check_distribution(grid: list[list[float]]) -> float:
    """Entries non-negative, total mass in [1 - deficit, 1 + 1e-12]."""
    require(len(grid) > 0 and all(len(row) == len(grid) for row in grid),
            "grid is not square")
    low = min(min(row) for row in grid)
    require(low >= 0.0, f"negative entry {low:.3e}")
    mass = math.fsum(math.fsum(row) for row in grid)
    require(mass <= 1.0 + MASS_TOL, f"total mass {mass!r} exceeds 1 + {MASS_TOL:g}")
    require(mass >= 1.0 - MASS_DEFICIT_TOL, f"total mass {mass!r} lost more than "
            f"{MASS_DEFICIT_TOL:g}")
    return mass


def check_means(grid, expected: tuple[float, float]) -> None:
    rows = [math.fsum(row) for row in grid]
    cols = [math.fsum(col) for col in zip(*grid)]
    for label, marginal, want in (("a", rows, expected[0]), ("b", cols, expected[1])):
        got = math.fsum(m * p for m, p in enumerate(marginal))
        require(abs(got - want) <= MOMENT_TOL * max(1.0, want),
                f"<m_{label}> = {got!r}, expected {want!r}")


def check_grid(grid, a: Mode, b: Mode, bs: Splitter,
               eta: tuple[float, float] = (1.0, 1.0)) -> None:
    """Every check that applies to the output grid of the inputs a, b."""
    check_distribution(grid)
    mean_a, mean_b = output_means(a, b, bs)
    check_means(grid, (eta[0] * mean_a, eta[1] * mean_b))
    lossless = eta == (1.0, 1.0)
    if a.kind == b.kind == "coherent":
        check_coherent_pair(grid, a, b, bs, eta)
    if a.kind == b.kind == "thermal" and a.value == b.value and lossless:
        check_thermal_pair(grid, a.value)
    if a.kind == b.kind == "fock" and bs.t is not None and lossless:
        check_fock_pair(grid, a.value, b.value, bs.t)
    if a.odd and bs.balanced and lossless:
        check_dark_diagonal(grid)


def check_dark_diagonal(grid) -> None:
    worst = max(grid[m][m] for m in range(len(grid)))
    require(worst <= DARK_TOL, f"diagonal entry {worst:.3e} should vanish")


def _poisson(mean: float, k: int) -> float:
    if mean == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


def _geometric(nbar: float, k: int) -> float:
    return nbar ** k / (1.0 + nbar) ** (k + 1)


def _deficit(grid) -> float:
    return max(0.0, 1.0 - math.fsum(math.fsum(row) for row in grid))


def check_product(grid, pa, pb, tolerance) -> None:
    """Compare with the product closed form pa(m_a) pb(m_b), entry by entry,
    within ``tolerance(p)`` of the closed-form value p."""
    worst = 0.0
    for m_a, row in enumerate(grid):
        wa = pa(m_a)
        for m_b, value in enumerate(row):
            want = wa * pb(m_b)
            worst = max(worst, abs(value - want) / tolerance(want))
    require(worst <= 1.0, f"deviation from closed form is {worst:.3g}x its "
            f"truncation bound")


def check_coherent_pair(grid, a: Mode, b: Mode, bs: Splitter,
                        eta: tuple[float, float] = (1.0, 1.0)) -> None:
    """Coherent inputs leave as coherent states: a Poisson product, with each
    mean scaled by its detector efficiency.

    Truncating the inputs drops amplitude of norm^2 d (the grid's mass
    deficit), so each output amplitude moves by at most sqrt(d) and each
    probability by at most 2 sqrt(p d) + d.  Loss sums a row of the Bernoulli
    kernel, whose entries add up to at most 1 / eta per mode.
    """
    out_a = bs.c * a.value - bs.s * b.value
    out_b = bs.s * a.value + bs.c * b.value
    mu_a, mu_b = eta[0] * abs(out_a) ** 2, eta[1] * abs(out_b) ** 2
    d = _deficit(grid) / (eta[0] * eta[1])
    check_product(grid, lambda k: _poisson(mu_a, k), lambda k: _poisson(mu_b, k),
                  lambda p: 2.0 * math.sqrt(p * d) + d + FLOAT_SLACK)


def check_thermal_pair(grid, nbar: float) -> None:
    """Equal thermal inputs are invariant under any beam splitter.  The input
    is a mixture of Fock pairs, so truncation only removes non-negative terms
    of total weight d from each entry."""
    d = _deficit(grid)
    check_product(grid, lambda k: _geometric(nbar, k), lambda k: _geometric(nbar, k),
                  lambda p: d + FLOAT_SLACK)


def fock_pair_probability(n: int, m: int, p: int, t: Fraction) -> Fraction:
    """Exact P(p, n+m-p) for input |n, m> at rational transmittance t.

    Expanding (c a^+ + s b^+)^n (-s a^+ + c b^+)^m, the a^+^p b^+^(n+m-p)
    coefficient is c^(m-p) s^(n+p) sum_i C(n,i) C(m,p-i) (-1)^(p-i) (c/s)^(2i);
    squared, every power of c and s is a power of T or R.
    """
    r = 1 - t
    inner = sum(math.comb(n, i) * math.comb(m, p - i) * (-1) ** (p - i) * (t / r) ** i
                for i in range(max(0, p - m), min(n, p) + 1))
    norm = Fraction(math.factorial(p) * math.factorial(n + m - p),
                    math.factorial(n) * math.factorial(m))
    return norm * inner * inner * t ** (m - p) * r ** (n + p)


def check_fock_pair(grid, n: int, m: int, t: Fraction) -> None:
    total = n + m
    require(len(grid) == total + 1, f"grid size {len(grid)} != {total + 1}")
    worst = 0.0
    for m_a, row in enumerate(grid):
        for m_b, value in enumerate(row):
            want = fock_pair_probability(n, m, m_a, t) if m_a + m_b == total else 0
            worst = max(worst, abs(value - float(want)))
    require(worst <= FOCK_TOL, f"max deviation from exact Fock probabilities "
            f"{worst:.3e} > {FOCK_TOL:g}")


# ---------------------------------------------------------------------------
# heralding and collective spin
# ---------------------------------------------------------------------------


def _close(got: float, want: float, what: str) -> None:
    require(abs(got - want) <= SCALAR_TOL * abs(want) + 1e-300,
            f"{what} = {got!r}, expected {want!r}")


def check_herald(doc: dict, t: int, eta: float, r: float) -> None:
    """Bayes over the two-mode squeezed pair weights p_n = (1 - x) x^n,
    x = tanh^2 r; the evidence sums in closed form over all n >= t."""
    x = math.tanh(r) ** 2
    n_prime = doc["n_prime"]
    prior = (1 - x) * x ** n_prime
    likelihood = math.comb(n_prime, t) * eta ** t * (1 - eta) ** (n_prime - t)
    evidence = (1 - x) * (eta * x) ** t / (1 - (1 - eta) * x) ** (t + 1)
    require(doc["t"] == t and n_prime == t, "herald document has wrong t / n'")
    _close(doc["detection_prob"], evidence, "detection_prob")
    _close(doc["posterior"], likelihood * prior / evidence, "posterior")
    _close(doc["squeezing_db"], -20.0 * r / math.log(10.0), "squeezing_db")


def check_dicke(doc: dict, j_max: int) -> None:
    """Balanced rotation of |J, 0>: P(M' = 0) = P_J(0)^2, the Legendre value
    C(J, J/2) / 2^J for even J and 0 for odd J."""
    sweep = doc["sweep"]
    require([row["J"] for row in sweep] == list(range(j_max + 1)), "J values wrong")
    for row in sweep:
        j = row["J"]
        want = (math.comb(j, j // 2) / 2 ** j) ** 2 if j % 2 == 0 else 0.0
        got = row["P_central"]
        if want == 0.0:
            require(abs(got) <= DARK_TOL, f"P_central(J={j}) = {got!r} should vanish")
        else:
            _close(got, want, f"P_central(J={j})")


# ---------------------------------------------------------------------------
# exact zeros and polynomial families
# ---------------------------------------------------------------------------


def _falling(x: int, q: int) -> int:
    out = 1
    for j in range(q):
        out *= x - j
    return out


def g_exact(m_a: int, m_b: int, n: int, t: Fraction) -> Fraction:
    """g(m_a, m_b | n) = sum_q C(n,q) (-1)^q (m_a)_(n-q) T^(n-q) (m_b)_q R^q."""
    r = 1 - t
    return sum((Fraction((-1) ** q * math.comb(n, q) * _falling(m_a, n - q)
                         * _falling(m_b, q)) * t ** (n - q) * r ** q
                for q in range(n + 1)), Fraction(0))


def check_zeros(doc: dict, n: int, t: Fraction, m_max: int, count: int,
                window: int = 40) -> None:
    """Every reported pair is an exact zero, the count matches the recorded
    one, and the scan is complete on the window [1, w] x [0, w]."""
    zeros = [(z["m_a"], z["m_b"]) for z in doc["zeros"]]
    require(len(zeros) == count, f"{len(zeros)} zeros, expected {count}")
    require(len(set(zeros)) == len(zeros), "duplicate zeros")
    for z, (m_a, m_b) in zip(doc["zeros"], zeros):
        require(1 <= m_a <= m_max and 0 <= m_b <= m_max, f"zero {m_a, m_b} out of range")
        require(z["physical"] == (m_a + m_b >= n), f"physical flag wrong at {m_a, m_b}")
        require(g_exact(m_a, m_b, n, t) == 0, f"g({m_a}, {m_b} | {n}) != 0")
    found = set(zeros)
    window = min(window, m_max)
    for m_a in range(1, window + 1):
        for m_b in range(window + 1):
            if (m_a, m_b) not in found:
                require(g_exact(m_a, m_b, n, t) != 0, f"missed zero {m_a, m_b}")


def _poly(coeffs, k: int) -> int:
    return sum(c * k ** i for i, c in enumerate(coeffs))


def check_family(a_coeffs, b_coeffs, n: int, t: Fraction) -> None:
    """g(m_a(k), m_b(k)) has degree at most n * deg in k, so vanishing at
    n * deg + 1 points proves it vanishes identically."""
    deg = max(len(a_coeffs), len(b_coeffs)) - 1
    require(deg >= 1, f"family {a_coeffs}, {b_coeffs} is constant")
    for k in range(n * deg + 1):
        require(g_exact(_poly(a_coeffs, k), _poly(b_coeffs, k), n, t) == 0,
                f"family {a_coeffs}, {b_coeffs} fails at k={k}")


def check_parametric(doc: dict, n: int, t: Fraction, count: int) -> None:
    sols = doc["solutions"]
    require(len(sols) == count, f"{len(sols)} families, expected {count}")
    keys = {(tuple(s["m_a_coeffs"]), tuple(s["m_b_coeffs"])) for s in sols}
    require(len(keys) == len(sols), "duplicate families")
    for sol in sols:
        require(sol["n"] == n and Fraction(sol["T"]["num"], sol["T"]["den"]) == t,
                "family carries the wrong n or T")
        check_family(sol["m_a_coeffs"], sol["m_b_coeffs"], n, t)


def check_verify(doc: dict, count: int) -> None:
    rows = doc["rows"]
    require(len(rows) == count, f"{len(rows)} verified rows, expected {count}")
    require(doc["all_valid"] is True, "verify reported a failed family")
    for row in rows:
        require(row["valid"] is True, f"row {row} not valid")
        check_family(row["m_a"], row["m_b"], row["n"], Fraction(row["T"]))
