"""Nonoverlapping iterations on the two-strip split of the unit square.

robin_robin_solve runs the damped two-sided Robin sweep: a Robin solve on
the left strip, a nodal update of the transmission datum, a Robin solve on
the right strip, and a damped update of the left datum.
dirichlet_neumann_solve is the classical damped Dirichlet-Neumann sweep on
the same split, kept as a baseline.  Its Neumann-side right-hand side
carries the interface loads of both strips, so its limit solves the
assembled global system, as the Robin sweep's does.  Both strips'
interface Schur complements are diagonal in the sine basis, with their
split's symbols (spectral.split_modes), so either sweep is a per-mode
affine map of the sine coefficients of its state, which reads each
strip's load through its closed-form sine coefficients (load_modes,
formed once per strip for every weight), so neither sweep solves a
strip; a report solves for the last sweep's strips only when first read.
robin_robin_physical_solve runs the Robin sweep with its two strip solves
in every sweep; only table1 runs it, for the reason its docstring gives.

Every strip solve, the Dirichlet-Neumann sweep's included, is a Robin or
Neumann solve by SubdomainSystem.solver (grid_fem.StripSolver).  Every
sweep stops on the sup-norm change of the interface trace: converged
("tol") below stop_tol, stopped ("non_finite") once the change is not
finite, with numpy's overflow warnings silenced (the mode sweeps form
their maps under the same silencing), or capped ("cap") at max_iter.
The mode sweeps run through one driver, _iterate, in blocks of 8, 16,
32, ... sweeps, and a mode sweep whose state recurs in a block is in an
exact cycle, which _iterate tiles up to max_iter.  The physical loop
runs one sweep at a time.  The report (DDReport) keeps the states as
they ran: sine coefficients for the mode sweeps, traces for the
physical loop.  measured_reduction_rate measures a mode sweep's steps
on their sine coefficients, in which the interface mass is diagonal, so
no history is mapped back to traces.  The sweep parameters (DDParams)
come from spectral, which every layer reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .grid_fem import GridSpec, SubdomainSystem
from .spectral import (DDParams, SplitModes, Tridiagonal, robin_factor, sine_basis_matrix,
                       split_modes)


@dataclass(eq=False)
class DDReport:
    """Outcome of one sweep iteration.

    states has iterations + 1 rows, the initial state plus one per sweep,
    and stop_reason says why the run stopped: "tol" (converged), "cap"
    (max_iter sweeps ran) or "non_finite".  robin_robin_solve and
    dirichlet_neumann_solve keep the sine coefficients of the interface
    trace, so states @ sine_basis_matrix(m) are the traces on m nodes and
    measured_reduction_rate(states) is the run's contraction;
    robin_robin_physical_solve keeps the traces themselves.  solution_u
    and solution_w, the left and right strip solutions of the last sweep,
    are strips(states), solved on their first read only.
    """

    states: np.ndarray = field(repr=False)
    stop_reason: str
    strips: Callable = field(repr=False)

    iterations = property(lambda self: len(self.states) - 1)
    converged = property(lambda self: self.stop_reason == "tol")

    # a diverged run's strips overflow as its sweeps did; its report says so
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
    Robin Schur complement is sigma_i + gamma_i mu per mode (split_modes):
    g2^ = A_1 g1^ + B_1 and g1^ <- A_2 g2^ + B_2 before damping, with
    B_i = (gamma1 + gamma2) strip_i.load_modes / (sigma_i + gamma_i mu), the
    sine coefficients of the trace of its load's Robin solve times
    gamma1 + gamma2, and A_i = robin_factor(sigma_i, mu, gamma_i, gamma_j),
    j the other strip; A_1 A_2 is the split's c_j.
    """
    mu, sigma1, sigma2 = split = _check_split(left, right)
    m = left.grid.n_interface
    g1 = np.zeros(m) if g1_init is None else np.asarray(g1_init, dtype=float)
    if g1.shape != (m,):
        raise ValueError("g1_init has wrong length")
    V = sine_basis_matrix(m)
    # an overflowing gamma1 + gamma2 or a non-finite load makes the map
    # non-finite; _iterate reports it
    with np.errstate(over="ignore", invalid="ignore"):
        gsum = params.gamma1 + params.gamma2
        B1 = gsum * (left.load_modes / (sigma1 + params.gamma1 * mu))
        B2 = gsum * (right.load_modes / (sigma2 + params.gamma2 * mu))
        alpha = robin_factor(sigma2, mu, params.gamma2, params.gamma1) * B1 + B2
        beta = -split.cj_values(params.gamma1, params.gamma2)
    return _mode_iterate(alpha, beta, V @ g1, params,
                         lambda states: _robin_solves(left, right, params)(V @ states[-2])[:2])


def robin_robin_physical_solve(left: SubdomainSystem, right: SubdomainSystem,
                               params: DDParams) -> DDReport:
    """robin_robin_solve from g1 = 0, with both strip solves in every sweep.

    Only experiments.run_table1 runs it: the benchmark checks the h = 1/288
    row of table1 --n 36,72,108,144 at 1e-8, and this loop's roundoff sets
    that row's count and error cells.  Once ROADMAP item 1a re-derives the
    row, the loop moves to the tests, where it is the mode sweep's reference.

    It stops as _iterate does, but sweeps one at a time, not in blocks: a
    sweep past the stop would cost two strip solves.
    """
    _check_split(left, right)
    solves = _robin_solves(left, right, params)
    states, reason = [np.zeros(left.grid.n_interface)], "cap"
    # a diverging trace overflows; the non-finite stop below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(params.max_iter):
            u, w, g1 = solves(states[-1])
            delta = np.abs(g1 - states[-1]).max()
            states.append(g1)
            if not np.isfinite(delta) or delta < params.stop_tol:
                reason = "tol" if np.isfinite(delta) else "non_finite"
                break
    return DDReport(np.array(states), reason, strips=lambda states: (u, w))


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
    i's Schur complement is S_i = V diag(sigma_i) V (sigma_i its symbol in
    split_modes), and its solves are Neumann solves N_i.  With t_i the
    trace of N_i F_i, whose sine coefficients are
    t^_i = strip_i.load_modes / sigma_i, the left residual flux less F1_G
    is r = S_1 (w - t_1), so per mode w^ <- alpha - beta w^ with
    beta = sigma_1 / sigma_2 and alpha = t^_2 + beta t^_1.  The states
    are the w^.  From the last sweep's start w, the left strip is N_1 of
    F1 plus r on the interface rows (its trace is w and its interior the
    Dirichlet solve), and the right one N_2 of F2 minus r on them.
    """
    _, sigma1, sigma2 = _check_split(left, right)
    m = left.grid.n_interface
    V = sine_basis_matrix(m)
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

    return _mode_iterate(alpha, beta, np.zeros(m), params, strips)


def _check_split(left: SubdomainSystem, right: SubdomainSystem) -> SplitModes:
    """The strips' split_modes; they must share a grid and tile its square."""
    if left.grid != right.grid:
        raise ValueError("the strips must share one grid, with widths summing to 2n; got "
                         f"widths {left.n_cols}, {right.n_cols} on n = {left.grid.n}, {right.grid.n}")
    return split_modes(left.grid.n_interface, left.n_cols, right.n_cols)


def _mode_iterate(alpha, beta, state, params: DDParams, strips) -> DDReport:
    """_iterate with the sweep c <- theta c + (1 - theta)(alpha - beta c)."""
    return _iterate(lambda c: params.theta * c + (1.0 - params.theta) * (alpha - beta * c),
                    state, params, strips)


def _iterate(sweep, state, params: DDParams, strips) -> DDReport:
    """Run the sine coefficients state <- sweep(state) until the sup-norm
    of the trace change V (new - old) drops below params.stop_tol
    (converged), turns non-finite, or params.max_iter sweeps have run.

    The sweeps run one at a time in blocks of 8, 16, 32, ... sweeps, the
    last one cut to max_iter; each block's state differences, one per row,
    go to trace differences in one product with the sine basis V, and the
    run ends at the first row that stops it.  The report keeps every
    state, initial one included, and maps them to the last sweep's strip
    solutions with strips when they are first read.

    sweep must be a function of the state alone: if a block ends nothing
    and its last state has the bits of a row p before it, its last p states,
    whose deltas stopped nothing, recur up to max_iter and are tiled.
    """
    V = sine_basis_matrix(len(state))
    blocks = [state[None]]
    done, reason = 0, "cap"
    # a diverging state overflows; the non-finite stop below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for size in (8 << k for k in itertools.count()):
            size = min(size, params.max_iter - done)
            block = np.empty((size + 1, len(state)))
            block[0] = blocks[-1][-1]
            for k in range(size):
                block[k + 1] = sweep(block[k])
            deltas = np.abs((block[1:] - block[:-1]) @ V).max(axis=1)
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
            bits = block.view(np.uint64)
            same = np.flatnonzero((bits[:-1] == bits[-1]).all(axis=1))
            if len(same):
                p = size - same[-1]
                blocks.append(np.resize(block[-p:], (params.max_iter - done, len(state))))
                break
    return DDReport(states=np.concatenate(blocks), stop_reason=reason, strips=strips)


def measured_reduction_rate(states) -> float:
    """Geometric-mean contraction factor of a mode sweep's steps.

    states holds the sine coefficients of one interface trace per row, as
    the reports of robin_robin_solve and dirichlet_neumann_solve do.  The
    steps between successive rows are measured in the interface mass
    norm.  The mass Tridiagonal.interface_mass(m) of traces on m nodes is
    diagonal in the sine basis, with eigenvalues mu_j, so a step's squared
    norm is sum_j mu_j d_j^2 over its coefficients d_j.  The ratios of the
    norms are averaged over the last half of the run, where the dominant
    mode has taken over.  A non-finite norm there (a diverged run) reports
    nan; ratios spoilt by a zero norm (an exactly converged tail) are
    dropped, and an all-zero tail reports 0.
    """
    C = np.asarray(states, dtype=float)
    if C.ndim != 2:
        raise ValueError("states must be 2-D, one trace per row (its sine coefficients); "
                         f"got {C.ndim} dimensions")
    if len(C) < 5:
        raise ValueError("need at least 4 sweeps (5 states) to measure a rate")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diffs = C[1:] - C[:-1]
        norms = np.sqrt((diffs * diffs) @ Tridiagonal.interface_mass(C.shape[1]).eigenvalues())
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
