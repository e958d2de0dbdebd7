"""Nonoverlapping iterations on the two-strip split of the unit square.

robin_robin_solve runs the damped two-sided Robin sweep: a Robin solve on
the left strip, a nodal update of the transmission datum, a Robin solve on
the right strip, and a damped update of the left datum.  The interface
traces of the transmission data are the iteration's state; everything else
is recomputed each sweep.

dirichlet_neumann_solve is the classical damped Dirichlet-Neumann sweep on
the same split, kept as a baseline.  Its update rule is taken literally
from the reference description, where the Neumann-side right-hand side
carries only the right-strip load; the include_left_interface_load switch
(off by default) adds the left-strip interface load so the limit solves
the assembled global system.

Every strip solve runs through grid_fem.StripSolver: a sine transform in
y splits the strip into independent tridiagonal systems in x, factored
once per run by banded LAPACK, and one step of iterative refinement keeps
the result as accurate as a sparse direct solve.  SuperLU (splu/spsolve)
on the assembled matrices is kept only as the test oracle.  Both sweeps stop early, as not
converged, when the sup-norm change of their state turns non-finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grid_fem
from .grid_fem import GridSpec, SubdomainSystem, Tridiagonal


@dataclass
class DDParams:
    """Robin weights, damping, and stopping control for the sweeps."""

    gamma1: float
    gamma2: float
    theta: float
    stop_tol: float = 1e-11
    max_iter: int = 2000

    def __post_init__(self):
        # chained comparisons with inf also reject nan
        if not (0.0 < self.gamma1 < np.inf and 0.0 < self.gamma2 < np.inf):
            raise ValueError("Robin weights gamma1, gamma2 must be positive and finite")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("damping theta must lie in [0, 1)")
        if not 0.0 < self.stop_tol < np.inf:
            raise ValueError("stop_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class DDReport:
    """Outcome of one sweep iteration.

    interface_trace_history has iterations + 1 rows (initial datum plus
    one per sweep).  reduction_rate is the measured geometric-mean
    contraction factor, or None when fewer than 4 sweeps ran.
    """

    iterations: int
    interface_trace_history: np.ndarray
    solution_u: np.ndarray
    solution_w: np.ndarray
    reduction_rate: Optional[float]
    converged: bool
    interface_mass: Tridiagonal


def robin_robin_solve(left: SubdomainSystem, right: SubdomainSystem,
                      params: DDParams, g1_init=None) -> DDReport:
    """Damped two-sided Robin iteration from transmission datum g1.

    One sweep: solve the left strip with weight gamma1 and datum g1, form
    g2 = -g1 + (gamma1 + gamma2) u|_G nodally, solve the right strip with
    weight gamma2 and datum g2, then damp
    g1 <- theta g1 + (1 - theta)(-g2 + (gamma1 + gamma2) w|_G).
    Stops when the sup-norm change of g1 drops below params.stop_tol, or
    unconverged once it is not finite.
    """
    grid = left.grid
    m = grid.n_interface
    mass = left.interface_mass
    gsum = params.gamma1 + params.gamma2
    solve1 = left.solver(params.gamma1).solve
    solve2 = right.solver(params.gamma2).solve

    g1 = np.zeros(m) if g1_init is None else np.asarray(g1_init, dtype=float).copy()
    if g1.shape != (m,):
        raise ValueError("g1_init has wrong length")
    history = [g1.copy()]
    u = np.zeros(left.n_cols * m)
    w = np.zeros(right.n_cols * m)
    converged = False
    for _ in range(params.max_iter):
        rhs1 = left.load.copy()
        rhs1[-m:] += mass.matvec(g1)
        u = solve1(rhs1)
        g2 = -g1 + gsum * u[-m:]
        rhs2 = right.load.copy()
        rhs2[-m:] += mass.matvec(g2)
        w = solve2(rhs2)
        g1_new = params.theta * g1 + (1.0 - params.theta) * (-g2 + gsum * w[-m:])
        delta = np.abs(g1_new - g1).max()
        history.append(g1_new.copy())
        g1 = g1_new
        if not np.isfinite(delta):
            break
        if delta < params.stop_tol:
            converged = True
            break
    report = DDReport(
        iterations=len(history) - 1,
        interface_trace_history=np.asarray(history),
        solution_u=u,
        solution_w=w,
        reduction_rate=None,
        converged=converged,
        interface_mass=mass,
    )
    if report.iterations >= 4:
        report.reduction_rate = measured_reduction_rate(report)
    return report


def dirichlet_neumann_solve(left: SubdomainSystem, right: SubdomainSystem,
                            params: DDParams, w_init=None,
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
    A1 = left.stiffness.to_scipy_csc().tocsr()
    A_IG = A1[:base_l, base_l:]
    A_GI = A1[base_l:, :base_l]
    A_GG = A1[base_l:, base_l:]
    solve_dirichlet = left.dirichlet_solver().solve
    solve_neumann = right.solver(0.0).solve
    F1_I = left.load[:base_l]
    F1_G = left.load[base_l:]

    w_state = np.zeros(m) if w_init is None else np.asarray(w_init, dtype=float).copy()
    if w_state.shape != (m,):
        raise ValueError("w_init has wrong length")
    history = [w_state.copy()]
    u = np.zeros(left.n_cols * m)
    wt = np.zeros(right.n_cols * m)
    converged = False
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
            break
        if delta < params.stop_tol:
            converged = True
            break
    report = DDReport(
        iterations=len(history) - 1,
        interface_trace_history=np.asarray(history),
        solution_u=u,
        solution_w=wt,
        reduction_rate=None,
        converged=converged,
        interface_mass=left.interface_mass,
    )
    if report.iterations >= 4:
        report.reduction_rate = measured_reduction_rate(report)
    return report


def measured_reduction_rate(report: DDReport) -> float:
    """Geometric-mean contraction factor of the interface updates.

    Uses the interface-mass norm of successive trace differences and
    averages the ratios over the last half of the history, where the
    dominant mode has taken over.  Zero or non-finite ratios (an exactly
    converged tail) are dropped; an all-zero tail reports 0.
    """
    if report.iterations < 4:
        raise ValueError("need at least 4 iterations to measure a rate")
    H = np.asarray(report.interface_trace_history, dtype=float)
    diffs = H[1:] - H[:-1]
    norms = np.array([np.sqrt(max(0.0, report.interface_mass.quadratic_form(d)))
                      for d in diffs])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = norms[1:] / norms[:-1]
    tail = ratios[len(ratios) // 2:]
    tail = tail[np.isfinite(tail) & (tail > 0.0)]
    if len(tail) == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(tail))))


def assemble_global_solution(grid: GridSpec, u, w) -> np.ndarray:
    """Merge symmetric-split strip vectors into the interior-node vector of
    the whole square (column-major by x).  The interface column is taken
    from the right strip, whose solve saw it most recently."""
    m = grid.n_interface
    n = grid.n
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if u.shape != (n * m,) or w.shape != (n * m,):
        raise ValueError("strip vectors have wrong length")
    out = np.empty((2 * n - 1) * m)
    for gcol in range(2 * n - 1):
        if gcol < n - 1:
            block = u[gcol * m:(gcol + 1) * m]
        elif gcol == n - 1:
            block = w[(n - 1) * m:n * m]
        else:
            c = 2 * n - 2 - gcol
            block = w[c * m:(c + 1) * m]
        out[gcol * m:(gcol + 1) * m] = block
    return out


def error_norms(grid: GridSpec, u_h, exact):
    """L2 and H1-seminorm distance between a global interior-node vector
    and the nodal interpolant of a callable exact solution."""
    m = grid.n_interface
    u_h = np.asarray(u_h, dtype=float)
    if u_h.shape != (m * m,):
        raise ValueError("global vector has wrong length")
    ix, iy = np.meshgrid(np.arange(1, m + 1), np.arange(1, m + 1), indexing="ij")
    u_I = np.asarray(exact(grid.coord(ix.ravel()), grid.coord(iy.ravel())), dtype=float)
    e = u_I - u_h
    tri_x, tri_y, ids = grid_fem.global_triangles(grid)
    mass, stiff = grid_fem.assemble_p1_forms(grid, tri_x, tri_y, ids, m * m)
    l2 = float(np.sqrt(max(0.0, e @ mass.matvec(e))))
    h1 = float(np.sqrt(max(0.0, e @ stiff.matvec(e))))
    return l2, h1
