"""Input-state constructors: Fock, coherent, thermal, odd cat, photon-added
squeezed vacuum, plus custom states loaded from JSON and a text descriptor
parser used by the CLI.

Pure states are Fock-basis amplitude vectors, mixed states are Fock-basis
density matrices.  Constructors never renormalize after truncation: the
truncated tail is *lost* mass, so every norm / trace lies in [1 - deficit, 1]
and the deficit is reported by :func:`validate`.
"""

from __future__ import annotations

import cmath
import enum
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

#: largest norm / trace deficit tolerated by default
EPS_NORM = 1e-10

_HERMITICITY_TOL = 1e-12


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


def _parity(weights: np.ndarray) -> Parity:
    """Parity class of the photon-number weights w_0, w_1, ..."""
    odd_mass = float(np.sum(weights[1::2]))
    even_mass = float(np.sum(weights[0::2]))
    if even_mass == 0.0 and odd_mass > 0.0:
        return Parity.ODD
    if odd_mass == 0.0:
        return Parity.EVEN
    return Parity.MIXED


@dataclass(frozen=True)
class PureState:
    """Fock-basis amplitude vector c_0 .. c_cutoff."""

    amplitudes: np.ndarray
    label: str = "pure"

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty vector")

    @property
    def cutoff(self) -> int:
        return self.amplitudes.size - 1

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    @property
    def mean_photon_number(self) -> float:
        weights = np.abs(self.amplitudes) ** 2
        return float(np.dot(np.arange(weights.size), weights))

    def parity_of(self) -> Parity:
        return _parity(np.abs(self.amplitudes) ** 2)

    def to_mixed(self) -> "MixedState":
        rho = np.outer(self.amplitudes, np.conj(self.amplitudes))
        return MixedState(rho=rho, label=self.label)


@dataclass(frozen=True)
class MixedState:
    """Fock-basis density matrix rho[m, m'], indices 0 .. cutoff."""

    rho: np.ndarray
    label: str = "mixed"

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        object.__setattr__(self, "rho", rho)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] == 0:
            raise ValueError("rho must be a square matrix")

    @property
    def cutoff(self) -> int:
        return self.rho.shape[0] - 1

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    @property
    def mean_photon_number(self) -> float:
        diag = np.real(np.diag(self.rho))
        return float(np.dot(np.arange(diag.size), diag))

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def parity_of(self) -> Parity:
        return _parity(np.real(np.diag(self.rho)))


State = PureState | MixedState


@dataclass(frozen=True)
class ValidationReport:
    deficit: float
    hermiticity_residual: float
    parity: Parity

    def ok(self, eps_norm: float = EPS_NORM) -> bool:
        return self.deficit < eps_norm and self.hermiticity_residual < _HERMITICITY_TOL


def validate(state: State) -> ValidationReport:
    """Norm/trace deficit, Hermiticity residual, parity classification."""
    if isinstance(state, PureState):
        return ValidationReport(deficit=1.0 - state.norm_squared,
                                hermiticity_residual=0.0,
                                parity=state.parity_of())
    return ValidationReport(deficit=1.0 - state.trace,
                            hermiticity_residual=state.hermiticity_residual(),
                            parity=state.parity_of())


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def fock(n: int, cutoff: int | None = None) -> PureState:
    if cutoff is None:
        cutoff = n
    if n < 0 or n > cutoff:
        raise ValueError(f"fock number n={n} must lie in [0, cutoff={cutoff}]")
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[n] = 1.0
    return PureState(amps, label=f"fock:{n}")


def coherent(beta: complex, cutoff: int | None = None,
             eps_norm: float = EPS_NORM) -> PureState:
    """Coherent state, c_m = exp(-|beta|^2/2) beta^m / sqrt(m!), by the
    recurrence c_m = c_(m-1) beta / sqrt(m) from its first term that is a
    normal float, found in log space (c_0 underflows once |beta|^2 > 1416)."""
    beta = complex(beta)
    if not cmath.isfinite(beta):
        raise ValueError(f"coherent amplitude beta={beta} must be finite")
    mean = abs(beta) ** 2
    if cutoff is None:
        cutoff = _auto_cutoff_poisson(mean, eps_norm)
    amps = np.zeros(cutoff + 1, dtype=complex)
    for m in range(cutoff + 1):
        if m and amps[m - 1]:
            amps[m] = amps[m - 1] * beta / math.sqrt(m)
        elif (c := math.exp(_log_poisson(m, mean) / 2)) >= sys.float_info.min:
            amps[m] = cmath.rect(c, m * cmath.phase(beta))
    return PureState(amps, label=f"coherent:beta={_fmt_complex(beta)}")


def thermal(nbar: float, cutoff: int | None = None,
            eps_norm: float = EPS_NORM) -> MixedState:
    """Single-mode thermal state, diagonal weights nbar^m / (1+nbar)^(m+1)."""
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    if cutoff is None:
        cutoff = _auto_cutoff_geometric(nbar, eps_norm)
    diag = np.empty(cutoff + 1)
    diag[0] = 1.0 / (1.0 + nbar)
    ratio = nbar / (1.0 + nbar)
    for m in range(1, cutoff + 1):
        diag[m] = diag[m - 1] * ratio
    return MixedState(np.diag(diag).astype(complex), label=f"thermal:nbar={nbar:g}")


def odd_cat(alpha: complex, cutoff: int | None = None,
            eps_norm: float = EPS_NORM) -> PureState:
    """Odd cat state (|alpha> - |-alpha>) / sqrt(2 - 2 exp(-2|alpha|^2));
    supported on odd photon numbers only."""
    alpha = complex(alpha)
    a2 = abs(alpha) ** 2
    if a2 == 0.0:
        raise ValueError("odd cat state is degenerate at alpha = 0")
    if cutoff is None:
        # cat renormalization roughly doubles the coherent tail mass, so the
        # plain Poisson cutoff is not quite enough; shrink eps to compensate
        cutoff = max(_auto_cutoff_poisson(a2, eps_norm / 4), 1)
    norm = math.sqrt(2.0 - 2.0 * math.exp(-2.0 * a2))
    amps = 2.0 * coherent(alpha, cutoff).amplitudes / norm
    amps[0::2] = 0.0
    return PureState(amps, label=f"oddcat:alpha={_fmt_complex(alpha)}")


def photon_added_smss(r: float, phi: float = 0.0, cutoff: int | None = None,
                      eps_norm: float = EPS_NORM) -> PureState:
    """Photon-added single-mode squeezed vacuum, a^dag |xi> / cosh(r).

    The squeezed-vacuum expansion lives on even photon numbers; applying the
    creation operator shifts it to odd support.  <a a^dag> = cosh^2 r for the
    squeezed vacuum, so dividing by cosh r normalizes exactly (before
    truncation).
    """
    if r < 0:
        raise ValueError("squeezing parameter r must be non-negative")
    if cutoff is None:
        cutoff = max(_auto_cutoff_squeezed(r, eps_norm), 1)
    amps = np.zeros(cutoff + 1, dtype=complex)
    # squeezed-vacuum amplitude on |2k>: e^{ik phi} tanh^k r sqrt((2k)!)/(k! 2^k) / sqrt(cosh r)
    b = 1.0 / math.sqrt(math.cosh(r))
    th = math.tanh(r)
    k = 0
    while 2 * k + 1 <= cutoff:
        amps[2 * k + 1] = b * math.sqrt(2 * k + 1) / math.cosh(r)
        k += 1
        # b_{k} = b_{k-1} * e^{i phi} tanh(r) * sqrt((2k-1)/(2k)) * ... recurrence:
        b = b * cmath.exp(1j * phi) * th * math.sqrt((2 * k) * (2 * k - 1)) / (2 * k)
    return PureState(amps, label=f"pasmss:r={r:g}")


def fock_superposition(terms: dict[int, complex], cutoff: int | None = None,
                       label: str | None = None) -> PureState:
    """Normalized superposition of Fock states, e.g. {1: 1, 3: 1}."""
    if min(terms) < 0 or not any(terms.values()):
        raise ValueError("superposition needs non-negative photon numbers "
                         "and a nonzero weight")
    amps = np.zeros(max(max(terms), cutoff or 0) + 1, dtype=complex)
    for n, c in terms.items():
        amps[n] = c
    amps /= np.linalg.norm(amps)
    if label is None:
        label = "super:" + ",".join(str(n) for n in sorted(terms))
    return PureState(amps, label=label)


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
        n = int(rest) if not params else int(params["n"])
        return fock(n, cutoff=max(cutoff, n) if cutoff is not None else None)
    if kind == "coherent":
        return coherent(_parse_complex(params["beta"]), cutoff=cutoff)
    if kind == "thermal":
        return thermal(float(params["nbar"]), cutoff=cutoff)
    if kind == "oddcat":
        return odd_cat(_parse_complex(params["alpha"]), cutoff=cutoff)
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
    params: dict[str, str] = {}
    for chunk in rest.split(","):
        if "=" in chunk:
            key, _, value = chunk.partition("=")
            params[key.strip()] = value.strip()
    return params


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}j"


# ---------------------------------------------------------------------------
# cutoff selection: smallest support with tail mass below eps
# ---------------------------------------------------------------------------

def _log_poisson(m: int, mean: float) -> float:
    """log(exp(-mean) mean^m / m!), the log of a Poisson weight."""
    if mean == 0.0:
        return 0.0 if m == 0 else -math.inf
    return m * math.log(mean) - mean - math.lgamma(m + 1)


def _auto_cutoff_poisson(mean: float, eps: float) -> int:
    total, m = math.exp(_log_poisson(0, mean)), 0
    while not 1.0 - total <= eps:  # a NaN weight never converges
        m += 1
        total += math.exp(_log_poisson(m, mean))
        if m > 100000:
            raise ValueError(f"no Poisson cutoff up to 100000 for mean {mean:g}")
    return m


def _auto_cutoff_geometric(nbar: float, eps: float) -> int:
    if nbar == 0.0:
        return 0
    ratio = nbar / (1.0 + nbar)
    # tail mass beyond cutoff N is ratio^(N+1)
    return max(0, math.ceil(math.log(eps) / math.log(ratio)) - 1)


def _auto_cutoff_squeezed(r: float, eps: float) -> int:
    if r == 0.0:
        return 1
    # grow until the photon-added squeezed state's truncated norm deficit < eps
    probe = 8
    while True:
        state = photon_added_smss(r, cutoff=probe)
        if 1.0 - state.norm_squared < eps:
            break
        probe *= 2
        if probe > 100000:
            raise ValueError(f"no squeezed-state cutoff up to 100000 for r={r:g}")
    return probe
