"""Relaxed Dirichlet-Neumann baseline next to the weighted Robin sweep.

On this symmetric split the relaxed alternating update contracts every
interface mode by the same factor |2 theta - 1|: counts depend on theta
only, theta = 1/2 converges in two sweeps, and theta = 0 never converges.
The Robin sweep needs no such luck with the relaxation parameter.
"""

import numpy as np

from robinlab import (DDParams, build_grid, build_subdomain_system,
                      dirichlet_neumann_solve, robin_robin_solve)
from robinlab.experiments import manufactured_solution

_, f = manufactured_solution()

print("alternating sweep counts (cap 500) against the damped Robin sweep")
print("theta:        " + "  ".join(f"{t:5.2f}" for t in
                                   (0.25, 0.4, 0.5, 0.55, 0.75)))
for n in (2, 6, 10):
    grid = build_grid(n)
    left = build_subdomain_system(grid, f, "left")
    right = build_subdomain_system(grid, f, "right")
    counts = []
    for theta in (0.25, 0.4, 0.5, 0.55, 0.75):
        p = DDParams(1.0, 128.0 * n, theta, max_iter=500)
        rep = dirichlet_neumann_solve(left, right, p)
        counts.append(f"{rep.iterations:5d}" if rep.converged
                      else f"{rep.iterations:4d}*")
    robin = robin_robin_solve(left, right, DDParams(1.0, 128.0 * n, 3.0 / 7.0))
    print("h=1/%-3d  DN: " % (2 * n) + "  ".join(counts)
          + f"   Robin(3/7): {robin.iterations}")

print()
print("predicted counts from |2 theta - 1|^m <= 1e-11:")
for theta in (0.25, 0.4, 0.55, 0.75):
    rho = abs(2.0 * theta - 1.0)
    print(f"  theta={theta:.2f}: rho={rho:.2f} -> "
          f"{int(np.ceil(np.log(1e-11) / np.log(rho)))} sweeps")
print("theta=0 flips the sign of the error every sweep and stalls forever")
