"""Closed-form convergence picture of the weighted two-sided Robin sweep.

Walks the mode algebra on the uniform half-and-half split: the tridiagonal
eigenvalues, the interface response factors (a_j, b_j), the per-mode
contraction c_j, and the damped radius max_j |theta + (1-theta) c_j|.
Everything here is arithmetic on scalars; no mesh is ever assembled.
"""

import numpy as np

from robinlab import DDParams, corollary_rate, reduction_spectrum, split_modes
from robinlab.spectral import mode_arrays

THETA = 3.0 / 7.0


def rates(n, theta=THETA):
    # the symmetric split's damped spectrum at gamma1 = 1 and gamma2 = 64/h,
    # the pairing the 1/7 bound is built on
    params = DDParams(gamma1=1.0, gamma2=128.0 * n, theta=theta)
    return reduction_spectrum(split_modes(2 * n - 1, n, n), params)


print("per-mode data on the coarsest grids")
for n in (1, 2, 4):
    lam, tlam, a, b = mode_arrays(n)
    vals, radius = rates(n)
    print(f"  n={n}  h=1/{2*n}")
    for j in range(2 * n - 1):
        print(f"    j={j+1}: a={a[j]:.6f}  b={b[j]:.6f}  z=b/a={b[j]/a[j]:8.3f}"
              f"  damped={vals[j]:+.6f}")
    print(f"    radius {radius:.6f}")

print()
print("the radius is h-independent and stays under 1/7")
for n in (1, 4, 16, 64, 256):
    _, radius = rates(n)
    h = 1.0 / (2 * n)
    lo, hi = 3.0 + 7.0 * h / 16.0, 21.0 / (2.0 * h)
    print(f"  n={n:4d}: radius {radius:.8f}  (z in [{lo:.4f}, {hi:.1f}])")

print()
print("damping sweep at n=64: the discrete radius vs the limiting envelope")
print("  the envelope is approached from below, slowly near theta=0")
for k in range(7):
    theta = k / 7.0
    _, radius = rates(64, theta)
    env = corollary_rate(theta)
    print(f"  theta={theta:.4f}: radius {radius:.4f}  envelope {env:.4f}"
          f"  gap {env - radius:.4f}")

print()
print("sign margins 3a_j - b_j that the bound rests on")
for n in (1, 11, 128, 1024):
    _, _, a, b = mode_arrays(n)
    margins = 3.0 * a - b
    first = float(margins[0])
    h = 1.0 / (2 * n)
    print(f"  n={n:4d}: first margin {first:+.6e}"
          f"  decreasing={bool(np.all(np.diff(margins) < 0.0))}"
          f"  < -7h^2/16: {first < -7.0 * h * h / 16.0}"
          f"  < -0.049h: {first < -0.049 * h if n >= 11 else None}")
