"""Trace-operator view of the sweep: equivalence constants, and the damped
iteration radius with recommended weights.

Each strip's Dirichlet-to-Neumann map, in mass-orthonormal coordinates, is
diagonal in the sine basis of the interface, with eigenvalue z_j in mode j.
On the symmetric split the two maps coincide; on an off-center split they
differ and the pair (s, t), the extremes of z2_j / z1_j, measures how far
apart they sit.  theta = (2t-1)/(2t+1) then bounds the damped radius.  The
undamped double sweep T is diagonal in the same basis, its eigenvalue in
mode j being -c_j, minus the product of the two strips' one-sided Robin
factors (SplitModes.cj_values).
"""

from robinlab import build_grid, split_modes
from robinlab.grid_fem import offcenter_columns
from robinlab.spectral import mode_study

for n in (4, 8, 16):
    grid = build_grid(n)
    print(f"n = {n}, interface nodes m = {grid.n_interface}")
    for label, (ncl, ncr) in (("half ", (n, n)),
                              ("third", offcenter_columns(grid))):
        split = split_modes(grid.n_interface, ncl, ncr)
        z1, z2 = split.sigma1 / split.mu, split.sigma2 / split.mu
        bounds, params, radius = mode_study(split)
        g1, g2 = params.gamma1, params.gamma2
        T = 0.0 - split.cj_values(g1, g2)
        print(f"  {label} split ({ncl}+{ncr} columns):"
              f"  s={bounds.s:.6f}  t={bounds.t:.10f}")
        print(f"        trace spectrum [{z1.min():.3f}, {z1.max():.3f}]"
              f"  ->  gamma1={g1:.3f}  gamma2={g2:.1f}"
              f"  theta={params.theta:.6f}")
        print(f"        radius {radius:.6f} <= theta bound {params.theta:.6f};"
              f"  sym sweep spectrum in [{T.min():.2e}, {T.max():.6f}]"
              f" (cap 2t-1 = {2*bounds.t-1:.6f})")
    print()

print("note how t on the complementary third split creeps up to 1 as the")
print("grid refines: high modes see both strips as the same half plane, so")
print("the recommended damping drifts toward the symmetric 1/3")
