"""Lossy number-resolving detection and pair-source heralding statistics.

Loss is modelled by averaging the joint distribution over independent
Bernoulli thinning in each mode: a detector with efficiency eta registers
m photons out of M >= m latent ones with probability
C(M, m) eta^m (1 - eta)^(M - m).  The loss matrices are built by a
recurrence of non-negative products, with no binomial coefficient, so they do
not overflow at large photon numbers.  The heralding sums over all latent
photon numbers are negative-binomial series, evaluated in closed form.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import TYPE_CHECKING

from . import MAX_CUTOFF

if TYPE_CHECKING:  # heralding needs only math: numpy is imported by the loss model
    import numpy as np
    from .joint_dist import JointDistribution


class LossConfig(namedtuple("LossConfig", "eta_a eta_b")):
    """Detector efficiencies per mode."""

    __slots__ = ()

    def __new__(cls, eta_a: float, eta_b: float):
        for eta in (eta_a, eta_b):
            if not (0.0 <= eta <= 1.0):
                raise ValueError("efficiency must lie in [0, 1]")
        return super().__new__(cls, eta_a, eta_b)


class SqueezedSource(namedtuple("SqueezedSource", "r")):
    """Two-mode squeezed vacuum pair source with photon-pair weights
    tanh^(2n)(r) / cosh^2(r) on every n >= 0, with no cutoff."""

    __slots__ = ()

    def __new__(cls, r: float):
        if r < 0:
            raise ValueError("squeezing parameter r must be non-negative")
        if not r <= 355:
            raise ValueError(f"squeezing parameter r={r:g} must be at most 355, "
                             "beyond which cosh(r)^2 is not a float")
        return super().__new__(cls, r)


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


def lossy_distribution(dist: JointDistribution, loss: LossConfig,
                       grid_max: int | None = None) -> JointDistribution:
    """Joint distribution seen by lossy detectors, cropped or padded last to
    counts 0 .. ``grid_max`` (default: those of ``dist``); total mass is
    preserved unless the crop drops some.

    Loss only lowers counts (A[m, M] = 0 for m > M), so it keeps the input's
    support, the smallest square [0, k)^2 outside which every entry is +0.0
    (:func:`~homlab.joint_dist.row_ends`).  Only that block is multiplied, by
    the loss matrices of size k, which are the top-left blocks of those of the
    full grid bit for bit, since each Pascal column depends only on the one
    before it; a crop keeps their first rows.  Nothing writes the padding, so
    a large output grid's pages outside the block stay unmapped.  ValueError
    is raised, before the grid exists, for a negative ``grid_max`` and for an
    output grid of more than ``GRID_CELLS`` cells."""
    import numpy as np
    from .joint_dist import JointDistribution, check_budget, row_ends
    grid_max = dist.grid_max if grid_max is None else grid_max
    if grid_max < 0:
        raise ValueError(f"grid_max={grid_max} must be non-negative")
    check_budget(grid_max)
    ends = row_ends(dist.grid)
    k = max(len(np.trim_zeros(ends, "b")), int(ends.max()))
    rows = min(k, grid_max + 1)
    a = bernoulli_matrix(loss.eta_a, k)
    b = a if loss.eta_b == loss.eta_a else bernoulli_matrix(loss.eta_b, k)
    grid = np.zeros((grid_max + 1, grid_max + 1))
    np.matmul(a[:rows] @ dist.grid[:k, :k], b[:rows].T, out=grid[:rows, :rows])
    return JointDistribution(grid=grid, bs=dist.bs, warnings=dist.warnings)


def spdc_detection_prob(t: int, eta: float, source: SqueezedSource) -> float:
    """Total probability of registering t photons in the heralding arm, the
    Bernoulli factor times the pair weight summed over every latent n' >= t:
    sech^2 r (eta x)^t / (1 - q)^(t+1) with x = tanh^2 r and q = (1-eta) x."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if not (0.0 <= eta <= 1.0):
        raise ValueError("efficiency must lie in [0, 1]")
    x, sech2 = math.tanh(source.r) ** 2, 1.0 / math.cosh(source.r) ** 2
    q_bar = eta * x + sech2  # 1 - q, as 1 - tanh^2 r rounds to 0 past r ~ 19
    # both factors are at most 1, so neither overflows
    return sech2 / q_bar * (eta * x / q_bar) ** t


def herald_posterior(n_prime: int, t: int, eta: float, source: SqueezedSource) -> float:
    """Posterior probability that t registered photons came from the latent
    pair state with n' photons (Bayes over the pair-weight prior):
    C(n', t) q^(n'-t) (1 - q)^(t+1), in log space where a factor leaves the
    float range; n' is at most MAX_CUTOFF."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if n_prime < t:
        raise ValueError("n_prime must be at least the detected count t")
    if n_prime > MAX_CUTOFF:
        raise ValueError(f"n_prime={n_prime} exceeds the cutoff bound MAX_CUTOFF={MAX_CUTOFF}")
    if not (0.0 <= eta <= 1.0):
        raise ValueError("efficiency must lie in [0, 1]")
    if t and (eta == 0.0 or source.r == 0.0):
        # nothing is registered, so no count t > 0 can be conditioned on
        raise ValueError(f"with {'eta' if eta == 0.0 else 'r'} = 0 only t = 0 is observable")
    if eta == 0.0:
        # the posterior is the prior, the pair weight tanh^(2n') r / cosh^2 r
        return math.tanh(source.r) ** (2 * n_prime) / math.cosh(source.r) ** 2
    x, sech2 = math.tanh(source.r) ** 2, 1.0 / math.cosh(source.r) ** 2
    q, q_bar = (1.0 - eta) * x, eta * x + sech2
    if q == 0.0:
        # every latent photon is registered (eta = 1), or there is none (r = 0)
        return float(n_prime == t)
    comb, lost, kept = math.comb(n_prime, t), q ** (n_prime - t), q_bar ** (t + 1)
    if comb <= sys.float_info.max and min(lost, kept) >= sys.float_info.min:
        return comb * lost * kept
    return math.exp(math.log(comb) + (n_prime - t) * math.log(q) + (t + 1) * math.log(q_bar))


def squeezing_db(r: float) -> float:
    """Squeezing strength in dB: 10 log10(exp(-2 r)); 0 at r = 0, negative
    for any real squeezing."""
    if r < 0:
        raise ValueError("r must be non-negative")
    return 10.0 * math.log10(math.exp(-2.0 * r))
