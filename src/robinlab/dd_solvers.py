"""Nonoverlapping iterations on the two-strip split of the unit square.

robin_robin_solve runs the damped two-sided Robin sweep: a Robin solve on
the left strip, a nodal update of the transmission datum, a Robin solve on
the right strip, and a damped update of the left datum.  The interface
traces of the transmission data are the iteration's state; everything else
is recomputed each sweep.

dirichlet_neumann_solve is the classical damped Dirichlet-Neumann sweep on
the same split, kept as a baseline.  Its Neumann-side right-hand side
carries the interface loads of both strips, so its limit solves the
assembled global system, as the Robin sweep's does.  Both strips'
interface Schur complements are diagonal in the sine basis of the
interface, so its sweep runs on one scalar per sine mode and needs strip
solves only before the first sweep and to recover the strip solutions
after the last.

Every strip solve runs through grid_fem.StripSolver: a sine transform in
y splits the strip into independent tridiagonal systems in x, factored
once per system by banded LAPACK, and one step of iterative refinement
keeps the result as accurate as a sparse direct solve.  The sweeps read
no assembled matrix and no block offsets: the interface couplings come
from the strips' interface blocks and SubdomainSystem.dirichlet_flux.
SuperLU (splu/spsolve) on the assembled matrices is kept only as the test
oracle.  Both sweeps run through one driver, _iterate, which owns the
loop, the stop on the sup-norm change of the interface trace (converged
below stop_tol, not converged once non-finite, with numpy's overflow
warnings silenced), the trace history and the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid_fem import GridSpec, SubdomainSystem, Tridiagonal
from .spectral import sine_basis_matrix, strip_symbol


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
        if not (float(self.max_iter).is_integer() and self.max_iter >= 1):
            raise ValueError("max_iter must be an integer of at least 1")
        self.max_iter = int(self.max_iter)


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
    _check_split(left, right)
    m = left.grid.n_interface
    mass = left.interface_mass
    gsum = params.gamma1 + params.gamma2
    solve1 = left.solver(params.gamma1).solve
    solve2 = right.solver(params.gamma2).solve

    g1 = np.zeros(m) if g1_init is None else np.asarray(g1_init, dtype=float).copy()
    if g1.shape != (m,):
        raise ValueError("g1_init has wrong length")
    u = w = None

    def sweep(g1):
        nonlocal u, w
        rhs1 = left.load.copy()
        rhs1[-m:] += mass.matvec(g1)
        u = solve1(rhs1)
        g2 = -g1 + gsum * u[-m:]
        rhs2 = right.load.copy()
        rhs2[-m:] += mass.matvec(g2)
        w = solve2(rhs2)
        return params.theta * g1 + (1.0 - params.theta) * (-g2 + gsum * w[-m:])

    return _iterate(sweep, g1, lambda g: g, params, mass, lambda history: (u, w))


def dirichlet_neumann_solve(left: SubdomainSystem, right: SubdomainSystem,
                            params: DDParams) -> DDReport:
    """Damped Dirichlet-Neumann sweep with interface values w as the state.

    One sweep: a Dirichlet solve on the left strip with trace w, then a
    Neumann-coupled solve on the right strip whose interface rows carry
    the left interface load less the left residual flux, then
    w <- theta w + (1 - theta) w~|_G; the limit solves the global system.
    The start is w = 0.  Only theta and the stopping controls of params
    are used; the stopping rule is that of robin_robin_solve.

    The sweep runs in the sine basis V of the interface, where both strips'
    interface Schur complements S_i = V diag(sigma_i) V are diagonal, with
    sigma_i the closed-form spectral.strip_symbol of strip i's width.  With
    c0 the left flux of the Dirichlet solve of the load less the left
    interface load, and t2 the trace of the Neumann solve of the right load,
    the new trace is w~|_G = t2 - S_2^-1 (c0 + S_1 w), so one sweep is a
    per-mode affine map of w^ = V w and runs no strip solve.  The history
    holds the physical traces V w^; the strip solutions of the last sweep
    are recovered by one Dirichlet and one Neumann solve.

    The left strip's Dirichlet solves and fluxes come from
    SubdomainSystem.dirichlet_flux; both strips share one Neumann interface
    block, so the right strip's interface rows carry F1_G minus that flux.
    """
    _check_split(left, right)
    m = left.grid.n_interface
    neumann = right.solver(0.0)
    F1_I, F1_G = left.load[:-m], left.load[-m:]

    V = sine_basis_matrix(m)
    c0 = left.dirichlet_flux(F1_I, np.zeros(m))[1] - F1_G
    t2 = neumann.solve(right.load)[-m:]
    sigma2 = strip_symbol(m, right.n_cols)
    alpha = V @ t2 - (V @ c0) / sigma2
    beta = strip_symbol(m, left.n_cols) / sigma2

    def sweep(w_hat):
        return params.theta * w_hat + (1.0 - params.theta) * (alpha - beta * w_hat)

    def strips(history):
        # the last sweep's strip solves, from the state it started with
        u_I, flux = left.dirichlet_flux(F1_I, history[-2])
        rhs = right.load.copy()
        rhs[-m:] += F1_G - flux
        return np.concatenate([u_I, history[-1]]), neumann.solve(rhs)

    return _iterate(sweep, np.zeros(m), lambda w_hat: V @ w_hat, params,
                    left.interface_mass, strips)


def _check_split(left: SubdomainSystem, right: SubdomainSystem):
    """The two strips must come from one grid and tile its square."""
    if left.grid != right.grid or left.n_cols + right.n_cols != 2 * left.grid.n:
        raise ValueError("the strips must share one grid, with widths summing to 2n; got "
                         f"widths {left.n_cols}, {right.n_cols} on n = {left.grid.n}, {right.grid.n}")


def _iterate(sweep, state, to_trace, params: DDParams, mass: Tridiagonal,
             strips) -> DDReport:
    """Run state <- sweep(state) until the sup-norm of to_trace(new - old)
    drops below params.stop_tol (converged), turns non-finite, or
    params.max_iter sweeps have run.  The history holds to_trace of every
    state, initial one included; strips(history) returns the strip
    solutions of the last sweep."""
    history = [to_trace(state)]
    converged = False
    # a diverging state overflows; the non-finite stop below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(params.max_iter):
            new = sweep(state)
            delta = np.abs(to_trace(new - state)).max()
            history.append(to_trace(new))
            state = new
            if not np.isfinite(delta):
                break
            if delta < params.stop_tol:
                converged = True
                break
        u, w = strips(history)
    history = np.asarray(history)
    iterations = len(history) - 1
    return DDReport(
        iterations=iterations,
        interface_trace_history=history,
        solution_u=u,
        solution_w=w,
        reduction_rate=measured_reduction_rate(history, mass) if iterations >= 4 else None,
        converged=converged,
    )


def measured_reduction_rate(history, mass: Tridiagonal) -> float:
    """Geometric-mean contraction factor of a trace history's updates.

    Uses the mass norm of the differences of successive rows and averages
    the ratios over the last half of the history, where the dominant mode
    has taken over.  A non-finite norm there (a diverged run) reports nan;
    ratios spoilt by a zero norm (an exactly converged tail) are dropped,
    and an all-zero tail reports 0.
    """
    H = np.asarray(history, dtype=float)
    if len(H) < 5:
        raise ValueError("need at least 4 sweeps (5 traces) to measure a rate")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diffs = H[1:] - H[:-1]
        squares = np.einsum("ij,ij->i", diffs, mass.matvec(diffs))
        norms = np.sqrt(np.maximum(squares, 0.0))
        ratios = norms[1:] / norms[:-1]
    start = (len(norms) - 1) // 2
    if not np.isfinite(norms[start:]).all():
        return float("nan")
    tail = ratios[start:]
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
    return np.concatenate([u[:-m], w.reshape(n, m)[::-1].ravel()])


def error_norms(grid: GridSpec, u_h, exact):
    """L2 and H1-seminorm distance between a global interior-node vector
    and the nodal interpolant of a callable exact solution, which is
    called on the interior x coordinates as a column and y as a row.

    On the criss mesh the P1 stiffness is the five-point stencil and the P1
    mass the stencil h^2/12 times 6 at the node and 1 at its E, W, N, S, NE
    and SW neighbours, so both forms are applied by stencil to the error,
    padded with its zero boundary values.
    """
    m = grid.n_interface
    u_h = np.asarray(u_h, dtype=float)
    if u_h.shape != (m * m,):
        raise ValueError("global vector has wrong length")
    x = grid.coord(np.arange(1, m + 1))
    u_I = np.broadcast_to(np.asarray(exact(x[:, None], x[None, :]), dtype=float), (m, m)).ravel()
    # a non-finite u_h (a diverged run) gives nan or inf norms, silently
    with np.errstate(over="ignore", invalid="ignore"):
        E = np.pad((u_I - u_h).reshape(m, m), 1)  # axis 0 runs in x
        e = E[1:-1, 1:-1]
        edges = E[2:, 1:-1] + E[:-2, 1:-1] + E[1:-1, 2:] + E[1:-1, :-2]
        mass_e = grid.h * grid.h / 12.0 * (6.0 * e + edges + E[2:, 2:] + E[:-2, :-2])
        forms = np.array([np.vdot(e, mass_e), np.vdot(e, 4.0 * e - edges)])
        # np.maximum clips a finite form's roundoff only; an overflowed
        # form (a diverged run) gives nan, never 0
        l2, h1 = np.sqrt(np.where(np.isfinite(forms), np.maximum(forms, 0.0), np.nan))
    return float(l2), float(h1)
