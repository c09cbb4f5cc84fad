"""Lossy number-resolving detection and pair-source heralding statistics.

Loss is modelled by averaging the joint distribution over independent
Bernoulli thinning in each mode: a detector with efficiency eta registers
m photons out of M >= m latent ones with probability
C(M, m) eta^m (1 - eta)^(M - m).  Both the loss matrices and the heralding
sums are built by recurrences of non-negative products, with no binomial
coefficient, so neither overflows at large photon numbers.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # heralding needs only math: numpy is imported by the loss model
    import numpy as np
    from .joint_dist import JointDistribution

#: relative heralding terms are scaled down by 2^-512 once one passes this
_RESCALE_ABOVE = 2.0 ** 900


class LossConfig(namedtuple("LossConfig", "eta_a eta_b")):
    """Detector efficiencies per mode."""

    __slots__ = ()

    def __new__(cls, eta_a: float, eta_b: float):
        for eta in (eta_a, eta_b):
            if not (0.0 <= eta <= 1.0):
                raise ValueError("efficiency must lie in [0, 1]")
        return super().__new__(cls, eta_a, eta_b)


class SqueezedSource(namedtuple("SqueezedSource", "r cutoff")):
    """Two-mode squeezed vacuum pair source with photon-pair weights
    tanh^(2n)(r) / cosh^2(r)."""

    __slots__ = ()

    def __new__(cls, r: float, cutoff: int = 400):
        if r < 0:
            raise ValueError("squeezing parameter r must be non-negative")
        if not r <= 355:
            raise ValueError(f"squeezing parameter r={r:g} must be at most 355, "
                             "beyond which cosh(r)^2 is not a float")
        if cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        return super().__new__(cls, r, cutoff)


def bernoulli_matrix(eta: float, size: int) -> np.ndarray:
    """A[m, M] = C(M, m) eta^m (1-eta)^(M-m); columns sum to 1.

    Column M comes from column M - 1 by Pascal's rule for the binomial law,
    A[m, M] = (1-eta) A[m, M-1] + eta A[m-1, M-1], from A[0, 0] = 1.  The
    columns are built as the contiguous rows of the transpose.
    """
    import numpy as np
    at = np.zeros((size, size))
    if size:
        at[0, 0] = 1.0
    for big in range(1, size):
        prev = at[big - 1, :big]
        at[big, :big] = (1.0 - eta) * prev
        at[big, 1:big + 1] += eta * prev
    return at.T


def lossy_distribution(dist: JointDistribution, loss: LossConfig) -> JointDistribution:
    """Joint distribution seen by lossy detectors; total mass is preserved.

    Loss only lowers counts (A[m, M] = 0 for m > M), so it keeps the input's
    support, the smallest square [0, k)^2 outside which every entry is +0.0
    (:func:`~homlab.joint_dist.row_ends`).  Only that block is multiplied, by
    the loss matrices of size k, which are the top-left blocks of those of the
    full grid bit for bit, since each Pascal column depends only on the one
    before it.  Nothing writes the padding, so a large output grid's pages
    outside the block stay unmapped."""
    import numpy as np
    from .joint_dist import JointDistribution, row_ends
    ends = row_ends(dist.grid)
    k = max(len(np.trim_zeros(ends, "b")), int(ends.max()))
    a = bernoulli_matrix(loss.eta_a, k)
    b = bernoulli_matrix(loss.eta_b, k)
    grid = np.zeros(dist.grid.shape)
    grid[:k, :k] = a @ dist.grid[:k, :k] @ b.T
    label = f"{dist.input_label} | loss eta=({loss.eta_a:g},{loss.eta_b:g})"
    return JointDistribution(grid=grid, bs=dist.bs, input_label=label, warnings=dist.warnings)


def tmss_prob(n: int, source: SqueezedSource) -> float:
    """Photon-pair weight p_n = tanh^(2n)(r) / cosh^2(r)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return math.tanh(source.r) ** (2 * n) / math.cosh(source.r) ** 2


def spdc_detection_prob(t: int, eta: float, source: SqueezedSource) -> float:
    """Total probability of registering t photons in the heralding arm:
    sum over latent n' >= t of the Bernoulli factor times the pair weight."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if not (0.0 <= eta <= 1.0):
        raise ValueError("efficiency must lie in [0, 1]")
    return math.fsum(_herald_terms(t, eta, source, source.cutoff))


def _herald_terms(t: int, eta: float, source: SqueezedSource, n_max: int,
                  relative: bool = False) -> list[float]:
    """w_n = C(n, t) eta^t (1-eta)^(n-t) p_n for n = t..n_max, by the ratio
    w_(n+1) / w_n = (n+1) / (n+1-t) (1-eta) tanh^2 r from
    w_t = (eta tanh^2 r)^t / cosh^2 r.

    With ``relative`` the terms are w_n / w_t times one common power of two,
    which is all a ratio of them needs: w_t underflows for improbable counts,
    and w_n / w_t can pass the float range.  The run starts from the mantissa
    of w_t (from 1 when w_t is not a normal float), and every term is scaled
    by 2^-512 whenever one passes 2^900.  A power of two scales exactly, so
    those terms are the absolute ones, scaled, wherever both are normal."""
    x = math.tanh(source.r) ** 2
    step = (1.0 - eta) * x
    w = (eta * x) ** t / math.cosh(source.r) ** 2
    if relative:
        w = math.frexp(w)[0] if w >= sys.float_info.min else 1.0
    terms = []
    for n in range(t, n_max + 1):
        terms.append(w)
        w *= (n + 1) * step / (n + 1 - t)
        if w > _RESCALE_ABOVE:
            terms = [math.ldexp(v, -512) for v in terms]
            w = math.ldexp(w, -512)
    return terms


def herald_posterior(n_prime: int, t: int, eta: float, source: SqueezedSource) -> float:
    """Posterior probability that t registered photons came from the latent
    pair state with n' photons (Bayes over the pair-weight prior)."""
    if n_prime < t:
        raise ValueError("n_prime must be at least the detected count t")
    if not (0.0 <= eta <= 1.0):
        raise ValueError("efficiency must lie in [0, 1]")
    if t > source.cutoff:
        raise ValueError("t exceeds the source cutoff support")
    if eta == 0.0:
        # degenerate: nothing can be registered, the posterior is the prior
        if t != 0:
            raise ValueError("with eta = 0 only t = 0 is observable")
        return tmss_prob(n_prime, source)
    terms = _herald_terms(t, eta, source, max(n_prime, source.cutoff), relative=True)
    return terms[n_prime - t] / math.fsum(terms[:source.cutoff + 1 - t])


def squeezing_db(r: float) -> float:
    """Squeezing strength in dB: 10 log10(exp(-2 r)); 0 at r = 0, negative
    for any real squeezing."""
    if r < 0:
        raise ValueError("r must be non-negative")
    return 10.0 * math.log10(math.exp(-2.0 * r))
