"""Lossy number-resolving detection and heralded photon sources.

Detector loss is Bernoulli thinning per mode. It softens the perfect
interference zeros but leaves the valleys of the distribution in place, and
realistic heralding efficiencies still give usefully pure photon-number
preparation from a squeezed pair source.  The last table puts numbers on the
paper's claim that a small amount of noise only partly fills the central
nodal line in.
"""

import numpy as np

import homlab as h

# Single photon + weak coherent state through a balanced splitter.
ideal = h.joint_fs_pure(1, h.coherent(1), h.BALANCED)
lossy = h.lossy_distribution(ideal, h.LossConfig(eta_a=0.95, eta_b=0.95))

print("diagonal P(m, m): ideal vs eta = 0.95 detectors")
for m in range(5):
    print(f"  m={m}: {ideal.grid[m, m]:.3e}  ->  {lossy.grid[m, m]:.3e}")

print("\nanti-diagonal m_a + m_b = 4 with loss "
      "(diagonal entry stays the minimum):")
for m_a in range(5):
    print(f"  P({m_a}, {4 - m_a}) = {lossy.grid[m_a, 4 - m_a]:.4e}")

print(f"\nmass preserved: {ideal.total_mass:.12f} -> {lossy.total_mass:.12f}")

# Heralding n photons by detecting n partners from a squeezed pair source.
src = h.SqueezedSource(r=1.5)
print(f"\npair source r=1.5 ({h.squeezing_db(1.5):.1f} dB), "
      f"heralding detector eta=0.87:")
for t in (1, 2, 3):
    post = h.herald_posterior(t, t, 0.87, src)
    rate = h.spdc_detection_prob(t, 0.87, src)
    print(f"  detect t={t}: P(exactly {t} pairs | click) = {post:.4f}, "
          f"click rate {rate:.4f}")

# The central nodal line of |1> x coherent(beta=2) under noise: equal loss on
# both detectors, or the single photon replaced by a heralded one (t = 1 click
# of a heralding detector of efficiency eta_h on a pair source r).
partner = h.coherent(2)
print("\ncentral nodal line of |1> x coherent(beta=2), T = 1/2, under noise:")
print(f"  {'input':<34}{'max diag / max grid':>20}{'diagonal mass':>15}")


def noise_row(name, dist):
    diagonal = dist.diagonal()
    print(f"  {name:<34}{diagonal.max() / dist.grid.max():>20.3e}{diagonal.sum():>15.3e}")


single = h.joint_fs_pure(1, partner, h.BALANCED)
for eta in (1.0, 0.99, 0.95, 0.9, 0.8, 0.6):
    noise_row(f"equal loss eta={eta}", h.lossy_distribution(single, h.LossConfig(eta, eta)))
for eta_h, r in ((0.6, 0.1), (0.6, 0.3), (0.9, 0.5)):
    source = h.SqueezedSource(r=r)
    weights = [0.0] + [h.herald_posterior(k, 1, eta_h, source) for k in range(1, 30)]
    heralded = h.DiagonalState(weights, label="heralded")
    noise_row(f"heralded t=1, eta_h={eta_h}, r={r}",
              h.joint_general((heralded, partner), h.BALANCED))
