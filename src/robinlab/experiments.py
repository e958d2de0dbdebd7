"""Reproduction drivers for the convergence study on the unit square.

Each run_* function sweeps a mesh family and returns a TableResult that
the CLI renders as CSV or markdown.  The canonical weights throughout are
gamma1 = 1 and gamma2 = 64/h, for which the damped double sweep contracts
at a grid-independent rate: at theta = 3/7 it stays below 1/7, the
symmetric split's envelope (a fixed off-center split has its own).

Everything here is deterministic: no randomness, fixed summation orders,
so repeated runs produce byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spectral
from .dd_solvers import (assemble_global_solution, dirichlet_neumann_solve, error_norms,
                         measured_reduction_rate, robin_robin_physical_solve, robin_robin_solve)
from .grid_fem import SubdomainSystem, build_grid, build_subdomain_system, offcenter_columns
from .spectral import DDParams, is_integral

DEFAULT_N_LIST = (2, 6, 10, 14, 18, 22, 26)
DEEP_N_LIST = (36, 144, 576)
SEVENTHS = tuple(k / 7.0 for k in range(7))
DN_THETAS = (0.0, 0.25, 0.35, 0.4, 0.45, 0.5, 0.55, 0.75)


def manufactured_solution():
    """Polynomial test pair: u = 64 (x^3 - x^4)(y - y^2) vanishing on the
    boundary with u(1/2, 1/2) = 1, and f = -Laplacian u."""

    def u(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return 64.0 * (x ** 3 - x ** 4) * (y - y * y)

    def f(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return 64.0 * ((12.0 * x * x - 6.0 * x) * (y - y * y)
                       + 2.0 * (x ** 3 - x ** 4))

    return u, f


@dataclass
class ExperimentConfig:
    """Sweep description shared by all drivers.

    gamma2_rule is either "constant" (gamma2 = gamma2_coefficient) or
    "scale_inv_h" (gamma2 = gamma2_coefficient / h).  theta_list defaults
    depend on the table; n_list entries are strip widths n with h = 1/(2n).
    For the von_neumann driver the n_list entries are read as band limits K.
    deep appends DEEP_N_LIST to n_list, and a repeated entry is kept once,
    so n_list is the list every driver runs.
    """

    table: str
    n_list: tuple = DEFAULT_N_LIST
    gamma1: float = 1.0
    gamma2_rule: str = "scale_inv_h"
    gamma2_coefficient: float = 64.0
    theta_list: Optional[tuple] = None
    stop_tol: float = DDParams.stop_tol
    max_iter: int = DDParams.max_iter
    deep: bool = False

    def __post_init__(self):
        if self.table not in RUNNERS:
            raise ValueError(f"table must be one of {tuple(RUNNERS)}, got {self.table!r}")
        if not all(is_integral(n) for n in self.n_list):
            raise ValueError("n_list entries must be integers no larger than the largest float")
        self.n_list = tuple(int(n) for n in self.n_list)
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ValueError("n_list must be a nonempty list of positive integers")
        self.n_list = tuple(dict.fromkeys(self.n_list + (DEEP_N_LIST if self.deep else ())))
        if self.gamma2_rule not in ("constant", "scale_inv_h"):
            raise ValueError(f"unknown gamma2_rule {self.gamma2_rule!r}")
        if self.theta_list is None:
            self.theta_list = {"table2": SEVENTHS, "table3": DN_THETAS}.get(
                self.table, (3.0 / 7.0,))
        self.theta_list = tuple(float(t) for t in self.theta_list)
        if not self.theta_list:
            raise ValueError("theta_list must be a nonempty list")
        if self.table == "table1" and len(self.theta_list) > 1:
            raise ValueError(f"table1 runs one theta, got {len(self.theta_list)} in theta_list")
        # DDParams checks the weights, damping and stopping controls
        for n in self.n_list:
            for theta in self.theta_list:
                self.params(n, theta)

    def gamma2(self, n: int) -> float:
        if self.gamma2_rule == "constant":
            return self.gamma2_coefficient
        return self.gamma2_coefficient * 2.0 * n  # coefficient / h

    def params(self, n: int, theta: float) -> DDParams:
        return DDParams(gamma1=self.gamma1, gamma2=self.gamma2(n), theta=theta,
                        stop_tol=self.stop_tol, max_iter=self.max_iter)


@dataclass
class TableResult:
    """Formatted-table payload: header names, raw-value rows, printf-style
    pretty formats per column (None means str), and whether every run
    converged (the CLI exits 3 when one did not)."""

    columns: list
    rows: list
    pretty: list
    all_converged: bool = True


def _fmt(value, spec):
    if value is None:
        return ""
    if isinstance(value, str) or spec is None:
        return str(value)
    return spec % value


def format_csv(result: TableResult) -> str:
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_fmt(v, "%.10g" if isinstance(v, float) else None) for v in row))
    return "\n".join(lines) + "\n"


def format_markdown(result: TableResult) -> str:
    header = "| " + " | ".join(result.columns) + " |"
    rule = "|" + "|".join(["---"] * len(result.columns)) + "|"
    lines = [header, rule]
    for row in result.rows:
        cells = [_fmt(v, s) for v, s in zip(row, result.pretty)]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def render(result: TableResult, output_format: str) -> str:
    if output_format in ("markdown", "md"):
        return format_markdown(result)
    return format_csv(result)


def _manufactured_strips(grid):
    """The left and right strips of the symmetric split of grid, loaded by
    the manufactured right-hand side."""
    _, f = manufactured_solution()
    return build_subdomain_system(grid, f, "left"), build_subdomain_system(grid, f, "right")


def _count_cell(report):
    """A run's sweep count, starred when the run did not converge."""
    return str(report.iterations) if report.converged else f"{report.iterations}*"


def run_table1(config: ExperimentConfig) -> TableResult:
    """Discretization errors against the nodal interpolant, their observed
    orders from consecutive mesh pairs, and the sweep counts."""
    u, _ = manufactured_solution()
    theta = config.theta_list[0]
    rows = []
    all_converged = True
    prev = None
    for n in config.n_list:
        grid = build_grid(n)
        # the strips are freed once solved; the report holds their solutions
        report = robin_robin_physical_solve(*_manufactured_strips(grid), config.params(n, theta))
        u_h = assemble_global_solution(grid, report.solution_u, report.solution_w)
        l2, h1 = error_norms(grid, u_h, u)
        order_l2 = order_h1 = None
        if prev is not None:
            h_ratio = math.log(prev[0] / grid.h)
            order_l2 = math.log(prev[1] / l2) / h_ratio
            order_h1 = math.log(prev[2] / h1) / h_ratio
        prev = (grid.h, l2, h1)
        all_converged &= report.converged
        rows.append([f"1/{2 * n}", l2, order_l2, h1, order_h1, _count_cell(report)])
    return TableResult(
        columns=["h", "||u_I-u_h||_L2", "h^n", "|u_I-u_h|_H1", "h^n", "#DD"],
        rows=rows,
        pretty=[None, "%.7f", "%.2f", "%.6f", "%.2f", None],
        all_converged=all_converged,
    )


def run_table2(config: ExperimentConfig) -> TableResult:
    """Measured contraction factors over a theta grid, one row per mesh,
    with the grid-independent envelope as the last row; the runs and the
    envelope are those of the symmetric split.

    Rates are measured on homogeneous runs (f = 0, exact limit 0) started
    from the slowest interface sine mode, picked per (n, theta) from the
    closed-form one-sweep spectrum, by measured_reduction_rate on the sine
    coefficients the sweep keeps; a run of fewer than 4 sweeps reads
    n/a.  Driving the iteration with the worst
    mode makes every trace ratio reflect the contraction factor itself;
    forcing-driven runs underread it when the history is short, because
    the slow mode takes a while to dominate whatever mixture the load
    excites.
    """

    thetas = config.theta_list
    rows = []
    all_converged = True
    for n in config.n_list:
        grid = build_grid(n)
        # a zero load needs no quadrature, and the two strips are the same one
        strip = SubdomainSystem(grid, n, np.zeros(n * grid.n_interface))
        split = spectral.split_modes(grid.n_interface, n, n)
        cells = [f"1/{2 * n}"]
        for theta in thetas:
            params = config.params(n, theta)
            vals, _ = spectral.reduction_spectrum(split, params)
            seed = spectral.sine_basis_matrix(grid.n_interface)[np.argmax(np.abs(vals))]
            report = robin_robin_solve(strip, strip, params, g1_init=seed)
            all_converged &= report.converged
            rate = measured_reduction_rate(report.states) if report.iterations >= 4 else None
            if report.converged:
                cells.append("n/a" if rate is None else rate)
            else:
                cells.append(("n/a" if rate is None else f"{rate:.3f}") + "*")
        rows.append(cells)
    rows.append(["rate bound"] + [spectral.corollary_rate(t) for t in thetas])
    return TableResult(
        columns=["h"] + [f"theta={t:.4g}" for t in thetas],
        rows=rows,
        pretty=[None] + ["%.3f"] * len(thetas),
        all_converged=all_converged,
    )


def run_table3(config: ExperimentConfig) -> TableResult:
    """Sweep counts of the damped Dirichlet-Neumann baseline over a theta
    grid.  Runs that hit max_iter are capped and marked with a star."""
    rows = []
    all_converged = True
    for n in config.n_list:
        left, right = _manufactured_strips(build_grid(n))
        cells = [f"1/{2 * n}"]
        for theta in config.theta_list:
            report = dirichlet_neumann_solve(left, right, config.params(n, theta))
            all_converged &= report.converged
            cells.append(_count_cell(report))
        rows.append(cells)
    return TableResult(
        columns=["h"] + [f"theta={t:.4g}" for t in config.theta_list],
        rows=rows,
        pretty=[None] + [None] * len(config.theta_list),
        all_converged=all_converged,
    )


def run_spectrum(config: ExperimentConfig) -> TableResult:
    """Per-mode coefficients and damped eigenvalues of the double sweep,
    one block of per-mode rows for each (mesh, theta) pair."""
    rows = []
    for n in config.n_list:
        _, _, a, b = spectral.mode_arrays(n)
        split = spectral.split_modes(2 * n - 1, n, n)
        for theta in config.theta_list:
            params = config.params(n, theta)
            c = split.cj_values(params.gamma1, params.gamma2)
            damped, _ = spectral.reduction_spectrum(split, params)
            for j in range(1, 2 * n):
                rows.append([n, j, a[j - 1], b[j - 1], c[j - 1], damped[j - 1]])
    return TableResult(
        columns=["n", "j", "a_j", "b_j", "c_j", "damped"],
        rows=rows,
        pretty=["%d", "%d", "%.12g", "%.12g", "%.12g", "%.12g"],
    )


def run_von_neumann(config: ExperimentConfig) -> TableResult:
    """Half-plane advisor check: for each band limit K (taken from n_list)
    pick (gamma2, theta), then verify the damped factor over the band."""
    rows = []
    for K in config.n_list:
        gamma2, theta, bound = spectral.von_neumann_advisor(K, config.gamma1)
        k = np.arange(1, K + 1)
        worst = float(np.abs(spectral.von_neumann_rho(k, config.gamma1, gamma2, theta)).max())
        rows.append([K, config.gamma1, gamma2, theta, bound, worst,
                     "yes" if worst <= bound + 1e-12 else "no"])
    return TableResult(
        columns=["K", "gamma1", "gamma2", "theta", "bound", "max|rho|", "within_bound"],
        rows=rows,
        pretty=["%d", "%.6g", "%.6g", "%.6g", "%.6g", "%.6g", None],
    )


def run_operator(config: ExperimentConfig) -> TableResult:
    """Trace-map study on the symmetric split and an off-center one:
    equivalence constants, recommended weights, and the sweep radius
    against its (2t-1)/(2t+1) cap.  Every row is built mode by mode from
    the strip symbols (spectral.mode_study), with no strip solve
    and no eigensolve, so the --deep meshes take milliseconds.  Dense
    Schur maps and LAPACK eigensolves give the same numbers; the tests
    keep them as the reference."""
    rows = []
    ok = True
    for n in config.n_list:
        grid = build_grid(n)
        for label, cols in (("half", (n, n)), ("third", offcenter_columns(grid))):
            bounds, params, radius = spectral.mode_study(
                spectral.split_modes(grid.n_interface, *cols))
            bound = params.theta
            good = radius <= bound + 1e-9
            ok &= good
            rows.append([n, label, bounds.s, bounds.t, params.gamma1, params.gamma2,
                         params.theta, radius, bound, "yes" if good else "no"])
    return TableResult(
        columns=["n", "split", "s", "t", "gamma1", "gamma2", "theta",
                 "radius", "bound", "within_bound"],
        rows=rows,
        pretty=["%d", None, "%.6g", "%.6g", "%.6g", "%.6g", "%.6g",
                "%.6g", "%.6g", None],
        all_converged=ok,
    )


RUNNERS = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "spectrum": run_spectrum,
    "von_neumann": run_von_neumann,
    "operator": run_operator,
}


def run(config: ExperimentConfig) -> TableResult:
    return RUNNERS[config.table](config)
