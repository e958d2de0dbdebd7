"""Nonoverlapping iterations on the two-strip split of the unit square.

robin_robin_solve runs the damped two-sided Robin sweep: a Robin solve on
the left strip, a nodal update of the transmission datum, a Robin solve on
the right strip, and a damped update of the left datum.
dirichlet_neumann_solve is the classical damped Dirichlet-Neumann sweep on
the same split, kept as a baseline.  Its Neumann-side right-hand side
carries the interface loads of both strips, so its limit solves the
assembled global system, as the Robin sweep's does.  Both strips'
interface Schur complements are diagonal in the sine basis of the
interface, so either sweep is a per-mode affine map of the sine
coefficients of its state.  The map reads each strip's load through its
closed-form sine coefficients (SubdomainSystem.load_modes), formed once
per strip for every weight, so neither sweep solves a strip; a report
solves for the last sweep's strips only when they are first read.
robin_robin_physical_solve runs the Robin sweep with its two strip solves
in every sweep; only table1 runs it, for the reason its docstring gives.

Every strip solve, the Dirichlet-Neumann sweep's included, is a Robin or
Neumann solve by SubdomainSystem.solver (grid_fem.StripSolver).  Every
sweep runs through one driver, _iterate, which owns the loop and the stop
on the sup-norm change of the interface trace: converged ("tol") below
stop_tol, stopped ("non_finite") once the change is not finite, with
numpy's overflow warnings silenced (the mode sweeps form their maps
under the same silencing), or capped ("cap") at max_iter.  It
advances in blocks of sweeps, one sweep at a time within a block, and
transforms each block's state differences to trace differences at once;
the run stops at the first row that stops it, and the states past it are
dropped.  The per-mode sweeps reach it through _mode_iterate, with blocks
that double from 8 sweeps.  The physical loop runs one sweep per block,
since a sweep past the stop would cost two strip solves and change the
strips it returns.  The report keeps the states and builds the trace
history and the measured rate from them when they are first read.
"""

from __future__ import annotations

import itertools
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .grid_fem import GridSpec, SubdomainSystem, Tridiagonal
from .spectral import robin_factor, sine_basis_matrix, strip_symbol


def is_integral(x) -> bool:
    """Whether x is an integer, or an integral real, that a float can hold.
    An integer is compared with the largest float, not converted to one,
    which would raise OverflowError past it."""
    if isinstance(x, numbers.Integral):
        return abs(x) <= sys.float_info.max
    return isinstance(x, numbers.Real) and float(x).is_integer()


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
        if not (is_integral(self.max_iter) and self.max_iter >= 1):
            raise ValueError("max_iter must be an integer from 1 to the largest float")
        self.max_iter = int(self.max_iter)


@dataclass
class DDReport:
    """Outcome of one sweep iteration.

    states has iterations + 1 rows, the initial state plus one per sweep,
    and stop_reason says why the run stopped: "tol" (converged), "cap"
    (max_iter sweeps ran) or "non_finite".  The rest is built from the
    states on its first read only, so a caller pays for what it reads:
    interface_trace_history is to_trace(states), the interface trace of
    every state; reduction_rate is its measured geometric-mean contraction
    factor in the mass norm, or None when fewer than 4 sweeps ran; and
    solution_u and solution_w, the left and right strip solutions of the
    last sweep, are strips(states).
    """

    states: np.ndarray = field(repr=False, compare=False)
    stop_reason: str
    to_trace: Callable = field(repr=False, compare=False)
    mass: Tridiagonal = field(repr=False, compare=False)
    strips: Callable = field(repr=False, compare=False)

    iterations = property(lambda self: len(self.states) - 1)
    converged = property(lambda self: self.stop_reason == "tol")

    # a diverged run's traces and strips overflow as its sweeps did; its
    # report says so
    @cached_property
    def interface_trace_history(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.to_trace(self.states)

    @cached_property
    def reduction_rate(self) -> Optional[float]:
        if self.iterations < 4:
            return None
        return measured_reduction_rate(self.interface_trace_history, self.mass)

    @cached_property
    def _solutions(self):
        with np.errstate(over="ignore", invalid="ignore"):
            return self.strips(self.states)

    solution_u = property(lambda self: self._solutions[0])
    solution_w = property(lambda self: self._solutions[1])


def robin_robin_solve(left: SubdomainSystem, right: SubdomainSystem,
                      params: DDParams, g1_init=None) -> DDReport:
    """Damped two-sided Robin iteration from transmission datum g1.

    One sweep: solve the left strip with weight gamma1 and datum g1, form
    g2 = -g1 + (gamma1 + gamma2) u|_G nodally, solve the right strip with
    weight gamma2 and datum g2, then damp
    g1 <- theta g1 + (1 - theta)(-g2 + (gamma1 + gamma2) w|_G).
    Stops when the sup-norm change of g1 drops below params.stop_tol, or
    unconverged once it is not finite.

    The sweep runs on the sine coefficients g1^ = V g1, where strip i's
    Robin Schur complement is sigma_i + gamma_i mu per mode (sigma_i its
    strip_symbol, mu the interface-mass eigenvalue): g2^ = A_1 g1^ + B_1 and
    g1^ <- A_2 g2^ + B_2 before damping, with
    B_i = (gamma1 + gamma2) strip_i.load_modes / (sigma_i + gamma_i mu), the
    sine coefficients of the trace of its load's Robin solve times
    gamma1 + gamma2, and A_i = robin_factor(sigma_i, mu, gamma_i, gamma_j),
    j the other strip.
    """
    _check_split(left, right)
    m = left.grid.n_interface
    g1 = np.zeros(m) if g1_init is None else np.asarray(g1_init, dtype=float)
    if g1.shape != (m,):
        raise ValueError("g1_init has wrong length")
    V = sine_basis_matrix(m)
    mu = left.interface_mass.eigenvalues()
    A, B = [], []
    # an overflowing gamma1 + gamma2 or a non-finite load makes the map
    # non-finite; _iterate reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for strip, gamma, other in ((left, params.gamma1, params.gamma2),
                                    (right, params.gamma2, params.gamma1)):
            sigma = strip_symbol(m, strip.n_cols)
            A.append(robin_factor(sigma, mu, gamma, other))
            B.append((params.gamma1 + params.gamma2) * (strip.load_modes / (sigma + gamma * mu)))
        alpha, beta = A[1] * B[0] + B[1], -A[0] * A[1]
    return _mode_iterate(alpha, beta, V @ g1, params, left.interface_mass,
                         lambda states: _robin_solves(left, right, params)(V @ states[-2])[:2])


def robin_robin_physical_solve(left: SubdomainSystem, right: SubdomainSystem,
                               params: DDParams) -> DDReport:
    """robin_robin_solve from g1 = 0, with both strip solves in every sweep.

    Only experiments.run_table1 runs it: the benchmark checks the h = 1/288
    row of table1 --n 36,72,108,144 at 1e-8, and this loop's roundoff sets
    that row's count and error cells.  Once ROADMAP item 1a re-derives the
    row, the loop moves to the tests, where it is the mode sweep's reference.
    """
    _check_split(left, right)
    solves = _robin_solves(left, right, params)
    last = None

    def sweep(g1):
        nonlocal last
        last = solves(g1)
        return last[2]

    return _iterate(sweep, np.zeros(left.grid.n_interface), lambda g: g, params,
                    left.interface_mass, lambda states: last[:2], itertools.repeat(1))


def _robin_solves(left: SubdomainSystem, right: SubdomainSystem, params: DDParams):
    """One Robin sweep in physical space: datum g1 -> (u, w, new g1)."""
    m, mass = left.grid.n_interface, left.interface_mass
    gsum = params.gamma1 + params.gamma2

    def solves(g1):
        rhs1 = left.load.copy()
        rhs1[-m:] += mass.matvec(g1)
        u = left.solver(params.gamma1).solve(rhs1)
        g2 = -g1 + gsum * u[-m:]
        rhs2 = right.load.copy()
        rhs2[-m:] += mass.matvec(g2)
        w = right.solver(params.gamma2).solve(rhs2)
        return u, w, params.theta * g1 + (1.0 - params.theta) * (-g2 + gsum * w[-m:])

    return solves


def dirichlet_neumann_solve(left: SubdomainSystem, right: SubdomainSystem,
                            params: DDParams) -> DDReport:
    """Damped Dirichlet-Neumann sweep with interface values w as the state.

    One sweep: a Dirichlet solve on the left strip with trace w, then a
    Neumann-coupled solve on the right strip whose interface rows carry
    the left interface load less the left residual flux, then
    w <- theta w + (1 - theta) w~|_G; the limit solves the global system.
    The start is w = 0.  Only theta and the stopping controls of params
    are used; the stopping rule is that of robin_robin_solve.

    The sweep runs on w^ = V w, V the sine basis of the interface.  Strip
    i's Schur complement is S_i = V diag(sigma_i) V (sigma_i its
    strip_symbol), and its solves are Neumann solves N_i.  With t_i the
    trace of N_i F_i, whose sine coefficients are
    t^_i = strip_i.load_modes / sigma_i, the left residual flux less F1_G
    is r = S_1 (w - t_1), so per mode w^ <- alpha - beta w^ with
    beta = sigma_1 / sigma_2 and alpha = t^_2 + beta t^_1.  The history
    holds V w^.  From the last sweep's start w, the left strip is N_1 of
    F1 plus r on the interface rows (its trace is w and its interior the
    Dirichlet solve), and the right one N_2 of F2 minus r on them.
    """
    _check_split(left, right)
    m = left.grid.n_interface
    V = sine_basis_matrix(m)
    sigma1, sigma2 = strip_symbol(m, left.n_cols), strip_symbol(m, right.n_cols)
    # a non-finite load makes the map non-finite; _iterate reports it
    with np.errstate(over="ignore", invalid="ignore"):
        t1, t2 = left.load_modes / sigma1, right.load_modes / sigma2
        beta = sigma1 / sigma2
        alpha = t2 + beta * t1

    def strips(states):
        # the last sweep's strip solves, from the state it started with
        r = V @ (sigma1 * (states[-2] - t1))
        u, w = left.load.copy(), right.load.copy()
        u[-m:] += r
        w[-m:] -= r
        u = left.solver(0.0).solve(u)
        u[-m:] = V @ states[-1]
        return u, right.solver(0.0).solve(w)

    return _mode_iterate(alpha, beta, np.zeros(m), params, left.interface_mass, strips)


def _check_split(left: SubdomainSystem, right: SubdomainSystem):
    """The two strips must come from one grid and tile its square."""
    if left.grid != right.grid or left.n_cols + right.n_cols != 2 * left.grid.n:
        raise ValueError("the strips must share one grid, with widths summing to 2n; got "
                         f"widths {left.n_cols}, {right.n_cols} on n = {left.grid.n}, {right.grid.n}")


def _mode_iterate(alpha, beta, state, params: DDParams, mass: Tridiagonal,
                  strips) -> DDReport:
    """_iterate on sine coefficients c with the sweep
    c <- theta c + (1 - theta)(alpha - beta c) and the traces V c, in
    blocks of 8, 16, 32, ... sweeps."""
    V = sine_basis_matrix(len(state))
    return _iterate(lambda c: params.theta * c + (1.0 - params.theta) * (alpha - beta * c),
                    state, lambda C: C @ V, params, mass, strips,
                    (8 << k for k in itertools.count()))


def _iterate(sweep, state, to_trace, params: DDParams, mass: Tridiagonal,
             strips, block_sizes) -> DDReport:
    """Run state <- sweep(state) until the sup-norm of to_trace(new - old)
    drops below params.stop_tol (converged), turns non-finite, or
    params.max_iter sweeps have run.

    The sweeps run one at a time in blocks of the sizes block_sizes
    yields, the last one cut to max_iter; to_trace maps a block's state
    differences, one per row, to trace differences at once, and the run
    ends at the first row that stops it.  The report keeps every state,
    initial one included, and maps them to traces with to_trace and to
    the last sweep's strip solutions with strips when they are first read.
    """
    blocks = [state[None]]
    done, reason = 0, "cap"
    # a diverging state overflows; the non-finite stop below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for size in block_sizes:
            size = min(size, params.max_iter - done)
            block = np.empty((size + 1, len(state)))
            block[0] = blocks[-1][-1]
            for k in range(size):
                block[k + 1] = sweep(block[k])
            deltas = np.abs(to_trace(block[1:] - block[:-1])).max(axis=1)
            stops = ~np.isfinite(deltas) | (deltas < params.stop_tol)
            if stops.any():
                k = int(stops.argmax())
                reason = "tol" if np.isfinite(deltas[k]) else "non_finite"
                blocks.append(block[1:k + 2])
                break
            blocks.append(block[1:])
            done += size
            if done == params.max_iter:
                break
    return DDReport(states=np.concatenate(blocks), stop_reason=reason, to_trace=to_trace,
                    mass=mass, strips=strips)


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
