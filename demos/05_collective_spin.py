"""Collective-spin analogue of the interference zeros.

Two bosonic modes with n and m photons map to an angular-momentum state
|J, M> with J = (n+m)/2, M = (n-m)/2; a beam splitter acts as a rotation and
its amplitudes are Wigner d-matrix elements. The dark diagonal reappears as
Dicke states that can never rotate into the equatorial M' = 0 component.
"""

from fractions import Fraction

import numpy as np

import homlab as h

# The photon pair (1, 1) is the Dicke state |J=1, M=0>.
print("mode picture -> spin picture:")
for n, m in [(1, 1), (3, 1), (2, 2), (1, 0)]:
    big_j, big_m = h.fock_to_jm(n, m)
    print(f"  |{n}, {m}>  ->  |J={big_j}, M={big_m}>")

# Sweep P(M' = 0) after a pi/2 rotation: odd J vanish exactly.
print("\nP(M'=0) after a pi/2 rotation of |J, 0>:")
for j in range(7):
    exact = h.central_probability_exact(j, 0, Fraction(1, 2))
    print(f"  J={j}: {exact}")

# Any superposition with an odd number of excitations shares the zero.
rng = np.random.default_rng(1)
j = 5
odd_ns = [n for n in range(2 * j + 1) if n % 2 == 1]
coeffs = rng.normal(size=len(odd_ns))
coeffs /= np.linalg.norm(coeffs)
amp = sum(c * h.measured_amplitude(n, j, j, h.BALANCED)
          for c, n in zip(coeffs, odd_ns))
print(f"\nrandom odd-excitation superposition at J={j}: "
      f"P(M'=0) = {abs(amp) ** 2:.2e}")

# The rotation amplitudes are ordinary Wigner d elements.
theta = 1.1
bs = h.BeamSplitterSetting.from_angle(theta)
print(f"\nd^1_(0,0)({theta}) = {h.wigner_d(1, 0, 0, bs):.6f} "
      f"(= cos theta = {np.cos(theta):.6f})")
