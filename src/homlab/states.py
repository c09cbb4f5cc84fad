"""Input-state constructors: Fock, coherent, thermal, odd cat, photon-added
squeezed vacuum, plus custom states loaded from JSON and a text descriptor
parser used by the CLI.

Pure states are Fock-basis amplitude vectors, mixed states Fock-basis density
matrices or, when diagonal (thermal), only their photon-number ``weights``,
which every state has.  Constructors never renormalize after truncation: the
truncated tail is *lost* mass, so every norm / trace lies in [1 - deficit, 1]
and the deficit is 1 - ``trace``.  Coherent, odd-cat and photon-added states
are built one way, as amplitudes sqrt(w_m) e^(i phase(m)) of the weights and
phases they state.  No cutoff exceeds MAX_CUTOFF; every automatic one is the
smallest N with 1 - (w_0 + ... + w_N) <= EPS_NORM over the weights of what is
built, each pure state weighed as built, so an odd state's cutoff is odd.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import json
import math
import operator
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import MAX_CUTOFF

#: largest norm / trace deficit tolerated by default
EPS_NORM = 1e-10

#: largest Hermiticity residual max|rho - rho^dag| of a density matrix, its
#: ``hermiticity_residual()``, that the joint-distribution engine accepts
HERMITICITY_TOL = 1e-10


class _Weighted:
    """What every state reads from its photon-number weights w_m = <m|rho|m>;
    only a MixedState, which stores it, has a dense ``rho``."""

    @property
    def trace(self) -> float:
        return float(np.sum(self.weights))

    def hermiticity_residual(self) -> float:
        return 0.0


@dataclass(frozen=True)
class PureState(_Weighted):
    """Fock-basis amplitude vector c_0 .. c_cutoff."""

    amplitudes: np.ndarray
    label: str = "pure"

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty vector")

    @property
    def weights(self) -> np.ndarray:
        # c_m c_m^*, bit for bit the diagonal of rho
        return (self.amplitudes * self.amplitudes.conj()).real


@dataclass(frozen=True)
class MixedState(_Weighted):
    """Fock-basis density matrix rho[m, m'], indices 0 .. cutoff."""

    rho: np.ndarray
    label: str = "mixed"

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        object.__setattr__(self, "rho", rho)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] == 0:
            raise ValueError("rho must be a square matrix")

    @property
    def weights(self) -> np.ndarray:
        return np.diagonal(self.rho).real

    def hermiticity_residual(self) -> float:
        # a row against a column at a time, so the check holds no copy of rho
        return float(np.max([np.max(np.abs(r - c.conj())) for r, c in zip(self.rho, self.rho.T)]))


@dataclass(frozen=True)
class DiagonalState(_Weighted):
    """Density matrix diagonal in the Fock basis, as its weights w_0 .. w_cutoff."""

    weights: np.ndarray
    label: str = "diagonal"

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a non-empty vector")


State = PureState | MixedState | DiagonalState


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def fock(n: int, cutoff: int | None = None) -> PureState:
    if n < 0:
        raise ValueError(f"fock number n={n} must be non-negative")
    _bounded("fock number n", n)
    if cutoff is None:
        cutoff = n
    if n > cutoff:
        raise ValueError(f"fock number n={n} must lie in [0, cutoff={cutoff}]")
    amps = np.zeros(_bounded("cutoff", cutoff) + 1, dtype=complex)
    amps[n] = 1.0
    return PureState(amps, label=f"fock:{n}")


def coherent(beta: complex, cutoff: int | None = None) -> PureState:
    """Coherent state, c_m = exp(-|beta|^2/2) beta^m / sqrt(m!)."""
    beta = complex(beta)
    mean = _mean_photons("coherent amplitude beta", beta)
    label = f"coherent:beta={_fmt_complex(beta)}"
    return _truncated(label, _poisson_weights(mean), cutoff, lambda m: m * cmath.phase(beta))


def thermal(nbar: float, cutoff: int | None = None) -> DiagonalState:
    """Single-mode thermal state, diagonal weights nbar^m / (1+nbar)^(m+1),
    each the one before times nbar / (1+nbar)."""
    if not 0 <= nbar < math.inf:
        raise ValueError(f"thermal nbar={nbar:g} must be finite and non-negative")
    label = f"thermal:nbar={nbar:g}"
    weights = itertools.accumulate(itertools.repeat(nbar / (1.0 + nbar)), operator.mul,
                                   initial=1.0 / (1.0 + nbar))
    return _truncated(label, weights, cutoff)


def odd_cat(alpha: complex, cutoff: int | None = None) -> PureState:
    """Odd cat state (|alpha> - |-alpha>) / sqrt(2 - 2 exp(-2|alpha|^2));
    supported on odd photon numbers only."""
    alpha = complex(alpha)
    a2 = _mean_photons("cat amplitude alpha", alpha)
    if a2 < sys.float_info.min:
        # a subnormal |alpha|^2 has too few bits to normalise the cat
        raise ValueError(f"odd cat state is degenerate at |alpha|^2 = {a2:g}, "
                         f"below {sys.float_info.min:g}")
    label = f"oddcat:alpha={_fmt_complex(alpha)}"
    scale = -2.0 / math.expm1(-2.0 * a2)
    weights = (w * scale if m % 2 else 0.0 for m, w in enumerate(_poisson_weights(a2)))
    return _truncated(label, weights, cutoff, lambda m: m * cmath.phase(alpha))


def photon_added_smss(r: float, phi: float = 0.0, cutoff: int | None = None) -> PureState:
    """Photon-added single-mode squeezed vacuum, a^dag |xi> / cosh(r).

    The squeezed-vacuum expansion lives on even photon numbers; applying the
    creation operator shifts it to odd support.  <a a^dag> = cosh^2 r for the
    squeezed vacuum, so dividing by cosh r normalizes exactly (before
    truncation).  c_(2k+1) is e^(ik phi) times the root of its weight.
    """
    if r < 0:
        raise ValueError("squeezing parameter r must be non-negative")
    if not r <= 710:
        raise ValueError(f"squeezing parameter r={r:g} must be at most 710, "
                         "beyond which cosh(r) is not a float")
    if not math.isfinite(phi):
        raise ValueError(f"squeezing phase phi={phi:g} must be finite")
    label = f"pasmss:r={r:g}" + (f",phi={phi:g}" if phi else "")
    # phi reduced to [-pi, pi] (itself when it lies there), so k phi stays a float
    phi = math.remainder(phi, 2 * math.pi)
    return _truncated(label, _pasmss_weights(r), cutoff, lambda m: phi * (m // 2))


def fock_superposition(terms: dict[int, complex], cutoff: int | None = None) -> PureState:
    """Normalized superposition of Fock states, e.g. {1: 1, 3: 1}."""
    if min(terms) < 0 or not any(terms.values()):
        raise ValueError("superposition needs non-negative photon numbers "
                         "and a nonzero weight")
    top = _bounded("superposition photon number n", max(terms))
    amps = np.zeros(max(top, _bounded("cutoff", cutoff or 0)) + 1, dtype=complex)
    for n, c in terms.items():
        amps[n] = c
    amps /= np.linalg.norm(amps)
    return PureState(amps, label="super:" + ",".join(str(n) for n in sorted(terms)))


# ---------------------------------------------------------------------------
# descriptor parsing / custom files
# ---------------------------------------------------------------------------

def load_custom(path: str) -> State:
    """Load a custom state from a JSON document.

    Pure:  {"type": "pure", "amplitudes": [[re, im], ...]}
    Mixed: {"type": "mixed", "rho": [[[re, im], ...], ...]}
    Any other shape raises ValueError.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must hold a JSON object")
    kind = doc.get("type")
    try:
        if kind == "pure":
            amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
            return PureState(amps, label=f"custom:file={path}")
        if kind == "mixed":
            rho = np.array([[complex(re, im) for re, im in row] for row in doc["rho"]])
            return MixedState(rho, label=f"custom:file={path}")
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed {kind} state in {path}: {exc}") from None
    raise ValueError(f"unknown custom state type {kind!r} in {path}")


def parse_state(descriptor: str, cutoff: int | None = None) -> State:
    """Parse a state descriptor string.

    Supported: "fock:3", "coherent:beta=3", "thermal:nbar=9",
    "oddcat:alpha=2", "pasmss:r=0.5[,phi=0.1]", "super:1,3",
    "custom:file=path.json".
    """
    if cutoff is not None and cutoff < 0:
        raise ValueError(f"cutoff={cutoff} must be non-negative")
    kind, _, rest = descriptor.partition(":")
    kind = kind.strip().lower()
    params = _parse_params(rest)
    if kind == "fock":
        n = int(rest)
        return fock(n, cutoff=max(cutoff, n) if cutoff is not None else None)
    if kind == "coherent":
        return coherent(complex(params["beta"].replace(" ", "")), cutoff=cutoff)
    if kind == "thermal":
        return thermal(float(params["nbar"]), cutoff=cutoff)
    if kind == "oddcat":
        return odd_cat(complex(params["alpha"].replace(" ", "")), cutoff=cutoff)
    if kind == "pasmss":
        return photon_added_smss(float(params["r"]),
                                 phi=float(params.get("phi", 0.0)),
                                 cutoff=cutoff)
    if kind == "super":
        ns = [int(tok) for tok in rest.split(",")]
        return fock_superposition({n: 1.0 for n in ns}, cutoff=cutoff)
    if kind == "custom":
        return load_custom(params["file"])
    raise ValueError(f"unknown state descriptor {descriptor!r}")


def _parse_params(rest: str) -> dict[str, str]:
    pairs = (chunk.partition("=") for chunk in rest.split(","))
    return {key.strip(): value.strip() for key, sep, value in pairs if sep}


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}j"


# ---------------------------------------------------------------------------
# cutoff selection: smallest support with tail mass within EPS_NORM
# ---------------------------------------------------------------------------

def _mean_photons(name: str, amplitude: complex) -> float:
    """|amplitude|^2, or a ValueError that names the amplitude when it is not
    a float (abs() would raise OverflowError past |z| = 2^1024)."""
    limit = math.sqrt(sys.float_info.max)
    if math.hypot(amplitude.real, amplitude.imag) <= limit:  # False for NaN
        return abs(amplitude) ** 2
    raise ValueError(f"{name}={_fmt_complex(amplitude)} must be finite, "
                     f"of modulus at most {limit:g}")


def _bounded(name: str, n: int) -> int:
    if n > MAX_CUTOFF:
        raise ValueError(f"{name}={n} exceeds the cutoff bound MAX_CUTOFF={MAX_CUTOFF}")
    return n


def _log_poisson(m: int, mean: float) -> float:
    """log(exp(-mean) mean^m / m!) as -log(2 pi m)/2 - stirlerr(m) - bd0(m, mean),
    Loader's saddle-point form, which cancels no terms of order mean (C. Loader,
    "Fast and accurate computation of binomial probabilities", 2000)."""
    if m == 0 or mean == 0.0:
        return -mean if m == 0 else -math.inf
    # stirlerr(n) = log n! - log(sqrt(2 pi n) (n/e)^n): Stirling's series from 16, below by
    # stirlerr(k) - stirlerr(k + 1) = (k + 1/2) log(1 + 1/k) - 1
    s = 1 / (n := max(m, 16)) ** 2
    stirlerr = ((1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - s / 1188) * s) * s) * s) / n
                + sum((k + 0.5) * math.log1p(1 / k) - 1 for k in range(m, 16)))
    # bd0 = m log(m/mean) + mean - m, by its series in v where |v| < 0.1
    if abs(v := (m - mean) / (m + mean)) < 0.1:
        bd0 = (m - mean) * v + 2 * m * sum(v ** j / j for j in range(3, 21, 2))
    else:  # log(m/mean) below mean/2, where (m - mean)/mean can round to -1
        log_ratio = math.log1p((m - mean) / mean) if m > mean / 2 else math.log(m / mean)
        bd0 = m * log_ratio - (m - mean)
    return -math.log(2 * math.pi * m) / 2 - stirlerr - bd0


def _poisson_weights(mean: float) -> Iterator[float]:
    """exp(-mean) mean^m / m!, m = 0, 1, ...: 0.0, uncomputed, below the first nonzero
    one (bisected, as they rise up to the mean) and past the mean once one underflows."""
    start = bisect.bisect(range(int(min(mean, MAX_CUTOFF))), 0.0,
                          key=lambda m: math.exp(_log_poisson(m, mean)))
    yield from itertools.repeat(0.0, start)
    for m in itertools.count(start):
        yield (w := math.exp(_log_poisson(m, mean)))
        if not w and m > mean:
            yield from itertools.repeat(0.0)


def _pasmss_weights(r: float) -> Iterator[float]:
    """The photon-added squeezed vacuum's weights w_0, w_1, ...: 0 on even m,
    (2k+1)! / (4^k k!^2) tanh^(2k) r / cosh^3 r on 2k+1.  tanh^(2k) r is
    exp(k log(1 - sech^2 r)): the rounding of tanh^2 r, raised to the k-th
    power, would move the cutoff from r = 3.5 on (by 6 at r = 4.3)."""
    sech2 = math.cosh(r) ** -2
    log_tanh2 = math.log1p(-sech2) if sech2 < 1.0 else -math.inf
    c, exp = math.cosh(r) ** -3, math.exp
    for k in itertools.count():
        yield 0.0
        yield c * exp(k * log_tanh2) if k else c
        c *= (2 * k + 3) / (2 * k + 2)


def _truncated(label: str, weights: Iterable[float], cutoff: int | None = None,
               phase=None) -> PureState | DiagonalState:
    """The state of a stream of weights w_m or, given each photon number's
    ``phase`` (a function of an array of them), of amplitudes sqrt(w_m)
    e^(i phase(m)), built a block at a time up to N: ``cutoff``, if it is at
    most MAX_CUTOFF, or by the one automatic rule the smallest N <= MAX_CUTOFF
    with 1 - (w_0 + ... + w_N) <= EPS_NORM over the weights of what is built (of
    amplitudes, PureState.weights bit for bit), each sum carrying its exact error
    (Dekker's Fast2Sum), so N agrees with 1 - ``trace``; else a ValueError."""
    def built(block, start):  # the weights as they are, or the amplitudes
        return (np.sqrt(block) * np.exp(1j * phase(np.arange(start, start + len(block))))
                if phase else block)
    state = PureState if phase else DiagonalState
    if cutoff is not None:
        return state(built(list(itertools.islice(weights, _bounded("cutoff", cutoff) + 1)), 0),
                     label=label)
    weights = itertools.islice(weights, MAX_CUTOFF + 1)
    blocks, size, total, error, eps = [], 0, 0.0, 0.0, EPS_NORM
    while block := list(itertools.islice(weights, size // 2 + 32)):
        blocks.append(terms := built(block, size))
        # weighed in numpy, as PureState.weights is: numpy rounds Re(z z*) as fma(a, a, b b),
        # and Python's complex product differs in the last bit for 1 z in 6, moving cutoffs
        for n, w in enumerate((terms * terms.conj()).real.tolist() if phase else block, size):
            if not w:  # changes no sum
                continue
            new = total + w
            error += w - (new - total) if total >= w else total - (new - w)
            total = new
            if 1.0 - (total + error) <= eps:  # False once a weight is NaN
                return state((np.concatenate(blocks) if size else terms)[:n + 1], label=label)
        size += len(block)
    raise ValueError(f"no cutoff up to {MAX_CUTOFF} holds all but {EPS_NORM:g} of {label}")
