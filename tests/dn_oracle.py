"""Physical-space Dirichlet-Neumann sweep, kept for the tests as an oracle.

robinlab's dirichlet_neumann_solve runs the sweep on the sine coefficients
of the interface trace and solves no strip inside its loop.  This is the
sweep as the reference description states it, two strip solves per sweep
on the physical trace, so the tests can check the mode-space sweep's
counts, histories, solutions and rates against it.  Its rate is measured
with one interface-mass form per history row, as robinlab did before it
batched them.

The oracle keeps both readings of the Neumann step.  The literal one
(include_left_interface_load=False) carries only the right-strip load on
the interface rows, and its limit misses the discrete solution by O(h);
the other adds the left interface load, solves the assembled global
system, and is the one robinlab runs.  The left strip's Dirichlet solves
factor the interior block of the assembled stiffness by SuperLU, so they
share no code with the sweep they check.
"""

from functools import cached_property

import numpy as np
import scipy.sparse.linalg

from robinlab.dd_solvers import DDParams, DDReport
from robinlab.grid_fem import SubdomainSystem
from robin_oracle import strip_stiffness


def dirichlet_neumann_oracle(left: SubdomainSystem, right: SubdomainSystem,
                             params: DDParams,
                             include_left_interface_load=False) -> DDReport:
    """Damped Dirichlet-Neumann sweep with interface values w as the state.

    One sweep: a Dirichlet solve on the left strip with trace w, then a
    Neumann-coupled solve on the right strip whose interface rows carry
    minus the left residual flux, then w <- theta w + (1 - theta) w~|_G.
    Only theta and the stopping controls of params are used; the stopping
    rule is that of robin_robin_solve.
    """
    grid = left.grid
    m = grid.n_interface
    base_l = left.n_cols * m - m
    base_r = right.n_cols * m - m
    A1 = strip_stiffness(grid, left.n_cols)
    A_IG = A1[:base_l, base_l:]
    A_GI = A1[base_l:, :base_l]
    A_GG = A1[base_l:, base_l:]
    # the interior block by SuperLU, as schur_oracle.py does, with one
    # refinement step: at theta = 0 on the half split every mode's
    # multiplier is -1, so the oracle's own roundoff never decays, and
    # unrefined solves drift 2.6e-12 from the mode sweep in 300 sweeps at
    # n = 36.  A one-column strip has no interior
    if base_l:
        A_II = A1[:base_l, :base_l]
        lu = scipy.sparse.linalg.splu(A_II.tocsc())

        def solve_dirichlet(b):
            x = lu.solve(b)
            return x + lu.solve(b - A_II @ x)
    else:
        solve_dirichlet = np.zeros_like
    solve_neumann = right.solver(0.0).solve
    F1_I = left.load[:base_l]
    F1_G = left.load[base_l:]

    w_state = np.zeros(m)
    history = [w_state.copy()]
    u = np.zeros(left.n_cols * m)
    wt = np.zeros(right.n_cols * m)
    stop_reason = "cap"
    for _ in range(params.max_iter):
        u_I = solve_dirichlet(F1_I - A_IG @ w_state)
        flux = A_GI @ u_I + A_GG @ w_state
        rhs = right.load.copy()
        rhs[base_r:] -= flux
        if include_left_interface_load:
            rhs[base_r:] += F1_G
        wt = solve_neumann(rhs)
        w_new = params.theta * w_state + (1.0 - params.theta) * wt[base_r:]
        delta = np.abs(w_new - w_state).max()
        history.append(w_new.copy())
        u = np.concatenate([u_I, w_new])
        w_state = w_new
        if not np.isfinite(delta):
            stop_reason = "non_finite"
            break
        if delta < params.stop_tol:
            stop_reason = "tol"
            break
    return OracleReport(states=np.asarray(history), stop_reason=stop_reason,
                        to_trace=lambda H: H, mass=left.interface_mass,
                        strips=lambda _: (u, wt))


class OracleReport(DDReport):
    """A DDReport on physical traces whose rate is per_row_reduction_rate's."""

    @cached_property
    def reduction_rate(self):
        if self.iterations < 4:
            return None
        return per_row_reduction_rate(self.interface_trace_history, self.mass)


def per_row_reduction_rate(history, mass) -> float:
    """measured_reduction_rate with one mass form per history row."""
    H = np.asarray(history, dtype=float)
    diffs = H[1:] - H[:-1]
    norms = np.array([np.sqrt(max(0.0, d @ mass.matvec(d))) for d in diffs])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = norms[1:] / norms[:-1]
    tail = ratios[len(ratios) // 2:]
    tail = tail[np.isfinite(tail) & (tail > 0.0)]
    if len(tail) == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(tail))))
