"""Table drivers, config plumbing, and the command line front end."""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io

import robinlab
from robinlab import (
    DDParams,
    assemble_interface_mass,
    build_grid,
    corollary_rate,
    reduction_spectrum,
)
from robinlab.cli import build_parser, cli_main
from robinlab.grid_fem import Tridiagonal
from robinlab.experiments import (
    DEEP_N_LIST,
    DEFAULT_N_LIST,
    DN_THETAS,
    SEVENTHS,
    ExperimentConfig,
    format_csv,
    format_markdown,
    manufactured_solution,
    render,
    run,
    run_operator,
    run_spectrum,
    run_table1,
    run_table2,
    run_table3,
    run_von_neumann,
)
from robin_oracle import strip_stiffness

THETA_STAR = 3.0 / 7.0


# ---------------------------------------------------------------- test data


def test_manufactured_solution_values():
    u, f = manufactured_solution()
    assert u(0.5, 0.5) == pytest.approx(1.0, abs=1e-14)
    assert f(0.5, 0.5) == pytest.approx(8.0, abs=1e-13)


def test_manufactured_solution_boundary_zero():
    u, _ = manufactured_solution()
    t = np.linspace(0.0, 1.0, 17)
    for xs, ys in ((t, 0.0 * t), (t, 0.0 * t + 1.0), (0.0 * t, t), (0.0 * t + 1.0, t)):
        assert np.max(np.abs(u(xs, ys))) < 1e-14


def test_manufactured_source_is_negative_laplacian():
    # central differences on a handful of interior points
    u, f = manufactured_solution()
    d = 1e-4
    rng = np.random.default_rng(7)
    for _ in range(10):
        x, y = rng.uniform(0.2, 0.8, size=2)
        lap = (u(x + d, y) + u(x - d, y) + u(x, y + d) + u(x, y - d) - 4.0 * u(x, y)) / d**2
        assert -lap == pytest.approx(f(x, y), abs=1e-5)


# ------------------------------------------------------------ configuration


def test_config_defaults():
    cfg = ExperimentConfig(table="table1")
    assert cfg.n_list == DEFAULT_N_LIST == (2, 6, 10, 14, 18, 22, 26)
    assert cfg.theta_list == (THETA_STAR,)
    assert cfg.gamma2(2) == pytest.approx(256.0)  # 64 / h at h = 1/4
    assert cfg.gamma2(26) == pytest.approx(64.0 * 52.0)


def test_config_takes_integral_floats():
    cfg = ExperimentConfig(table="table1", n_list=(2.0, 6), max_iter=5.0)
    assert cfg.n_list == (2, 6)
    max_iter = cfg.params(2, THETA_STAR).max_iter
    assert max_iter == 5 and type(max_iter) is int


def test_config_theta_defaults_per_table():
    assert ExperimentConfig(table="table2").theta_list == SEVENTHS
    assert ExperimentConfig(table="table3").theta_list == DN_THETAS
    assert ExperimentConfig(table="spectrum").theta_list == (THETA_STAR,)
    assert SEVENTHS == tuple(k / 7.0 for k in range(7))
    assert DN_THETAS == (0.0, 0.25, 0.35, 0.4, 0.45, 0.5, 0.55, 0.75)


def test_config_constant_gamma2_rule():
    cfg = ExperimentConfig(table="spectrum", gamma2_rule="constant",
                           gamma2_coefficient=40.0)
    assert cfg.gamma2(2) == cfg.gamma2(512) == 40.0


def test_config_params_passthrough():
    cfg = ExperimentConfig(table="table1", gamma1=2.5, stop_tol=1e-9, max_iter=77)
    p = cfg.params(4, 0.3)
    assert isinstance(p, DDParams)
    assert (p.gamma1, p.gamma2, p.theta) == (2.5, 64.0 * 8.0, 0.3)
    assert (p.stop_tol, p.max_iter) == (1e-9, 77)


def test_config_grids_dedup_and_deep():
    assert ExperimentConfig(table="table2", n_list=(2, 36, 2)).grids() == (2, 36)
    deep = ExperimentConfig(table="table2", n_list=(2, 36), deep=True).grids()
    assert deep == (2,) + DEEP_N_LIST
    assert DEEP_N_LIST == (36, 144, 576)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(table="table9"), "table must be one of"),
        (dict(table="table1", n_list=()), "nonempty"),
        (dict(table="table1", n_list=(0, 2)), "positive"),
        (dict(table="table1", gamma1=0.0), "must be positive"),
        (dict(table="table1", gamma2_coefficient=-3.0), "must be positive"),
        (dict(table="table1", gamma2_rule="cubic"), "gamma2_rule"),
        (dict(table="table1", theta_list=(1.0,)), r"\[0, 1\)"),
        (dict(table="table1", theta_list=(-0.1,)), r"\[0, 1\)"),
        (dict(table="table1", stop_tol=0.0), "stop_tol"),
        (dict(table="table1", max_iter=0), "max_iter"),
        (dict(table="table1", theta_list=(float("nan"),)), r"\[0, 1\)"),
        (dict(table="table1", gamma1=float("inf")), "finite"),
        (dict(table="table1", gamma1=float("nan")), "finite"),
        (dict(table="table1", gamma2_coefficient=float("inf")), "finite"),
        (dict(table="table1", stop_tol=float("nan")), "finite"),
        (dict(table="table1", stop_tol=float("inf")), "finite"),
        (dict(table="table1", theta_list=()), "nonempty"),
        (dict(table="table1", n_list=(2.7,)), "integers"),
        (dict(table="table1", n_list=(2,), max_iter=2.5), "max_iter"),
        (dict(table="table1", theta_list=(0.2, 0.4)), "one theta"),
    ],
)
def test_config_rejects_bad_input(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**kwargs)


# ------------------------------------------------------------------ formats


def test_csv_rendering_shape():
    r = run_table1(ExperimentConfig(table="table1", n_list=(2,)))
    text = format_csv(r)
    lines = text.splitlines()
    assert lines[0] == ",".join(r.columns)
    first = lines[1].split(",")
    assert first[0] == "1/4"
    assert first[2] == ""  # no order on the coarsest grid
    assert float(first[1]) == pytest.approx(r.rows[0][1], rel=1e-9)
    assert text.endswith("\n")


def test_markdown_rendering_shape():
    r = run_table1(ExperimentConfig(table="table1", n_list=(2,)))
    text = format_markdown(r)
    lines = text.splitlines()
    assert lines[0].startswith("| ") and lines[0].endswith(" |")
    assert set(lines[1]) == {"|", "-"}
    assert lines[2].count("|") == len(r.columns) + 1
    assert render(r, "markdown") == text
    assert render(r, "csv") == format_csv(r)


def test_renders_are_deterministic():
    cfg = dict(table="table1", n_list=(2, 6))
    a = run_table1(ExperimentConfig(**cfg))
    b = run_table1(ExperimentConfig(**cfg))
    assert format_csv(a) == format_csv(b)
    assert format_markdown(a) == format_markdown(b)


# ------------------------------------------------------------ table drivers


def test_error_table_rows():
    config = ExperimentConfig(table="table1", n_list=(2, 6))
    r = run_table1(config)
    assert r.columns[0] == "h" and r.columns[-1] == "#DD"
    coarse, fine = r.rows
    assert coarse[0] == "1/4" and fine[0] == "1/12"
    assert coarse[1] == pytest.approx(3.6535255736e-02, rel=1e-6)
    assert coarse[3] == pytest.approx(2.5776747743e-01, rel=1e-6)
    assert coarse[2] is None and coarse[4] is None
    assert coarse[5] == "13" and fine[5] == "14"
    assert fine[1] == pytest.approx(5.462181977e-03, rel=1e-6)
    assert fine[3] == pytest.approx(3.735436499e-02, rel=1e-6)
    # observed orders from the single 1/4 -> 1/12 pair are still preasymptotic
    assert fine[2] == pytest.approx(1.7298, abs=1e-3)
    assert fine[4] == pytest.approx(1.7582, abs=1e-3)
    assert r.all_converged is True
    assert config.theta_list == (pytest.approx(THETA_STAR),)


def test_error_table_orders_approach_two():
    r = run_table1(ExperimentConfig(table="table1", n_list=(10, 14, 18)))
    for row in r.rows[1:]:
        assert row[2] == pytest.approx(2.0, abs=0.1)
        assert row[4] == pytest.approx(2.0, abs=0.1)


def test_rate_table_matches_mode_radii():
    r = run_table2(ExperimentConfig(table="table2", n_list=(2,)))
    measured, envelope = r.rows
    assert measured[0] == "1/4" and envelope[0] == "rate bound"
    for k, theta in enumerate(SEVENTHS):
        _, radius = reduction_spectrum(2, DDParams(1.0, 256.0, theta))
        # dominant-mode seeding makes the observed tail rate hit the radius
        assert measured[k + 1] == pytest.approx(radius, abs=1e-6)
        assert envelope[k + 1] == pytest.approx(corollary_rate(theta), rel=1e-12)
        assert measured[k + 1] <= corollary_rate(theta) + 0.01
    assert measured[4] == pytest.approx(0.0955646990, abs=1e-7)
    assert measured[1] == pytest.approx(0.764223, abs=1e-5)


def test_rate_table_equals_closed_form_radius():
    # seeded with the slowest sine mode, the mode sweep stays in it, so every
    # converged rate is reduction_spectrum's radius up to roundoff (at most
    # 1.6e-15 relative here)
    config = ExperimentConfig(table="table2", n_list=(2, 6, 10, 26, 72))
    r = run_table2(config)
    assert r.all_converged
    for n, row in zip(config.n_list, r.rows):
        for theta, rate in zip(SEVENTHS, row[1:], strict=True):
            _, radius = reduction_spectrum(n, config.params(n, theta))
            assert rate == pytest.approx(radius, rel=1e-13, abs=0.0)


def test_rate_table_on_deep_meshes():
    # the paper's rate claim on the --deep meshes down to h = 1/1152: each
    # theta = 3/7 run converges at the closed-form radius (0.1157556,
    # 0.1262665 and 0.1345008), which stays under the symmetric split's 1/7
    config = ExperimentConfig(table="table2", n_list=DEEP_N_LIST, theta_list=(THETA_STAR,))
    r = run_table2(config)
    assert r.all_converged
    for n, (_, rate) in zip(DEEP_N_LIST, r.rows[:-1], strict=True):
        _, radius = reduction_spectrum(n, config.params(n, THETA_STAR))
        assert rate <= 1.0 / 7.0
        assert rate == pytest.approx(radius, rel=1e-13, abs=0.0)


def test_relaxation_sweep_table_rows():
    r = run_table3(ExperimentConfig(table="table3", n_list=(2,)))
    assert r.rows[0] == ["1/4", "2000*", "39", "23", "17", "13", "2", "12", "37"]
    assert r.all_converged is False


def test_relaxation_sweep_converged_subset():
    r = run_table3(ExperimentConfig(table="table3", n_list=(2,),
                                    theta_list=(0.5, 0.75)))
    assert r.rows[0] == ["1/4", "2", "37"]
    assert r.all_converged is True


def test_relaxation_sweep_table_deep_mesh(capsys):
    # the mode-space sweep makes a 2000-sweep run at h = 1/288 affordable;
    # the counts are those of every default mesh
    rc = cli_main(["table3", "--n", "144"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out.splitlines()[1] == "1/288,2000*,39,23,17,13,2,12,37"


def test_tables_assemble_and_factor_only_what_they_read(monkeypatch):
    # no table assembles a stiffness matrix, each strip solver is factored
    # once per mesh and weight, not once per theta, the zero-load tables
    # sum no load by quadrature, the mode sweeps take a strip's load modes
    # ("modes") once per strip and solve no strip, no table solves a strip
    # whose result it does not read, and no table transforms a trace
    # history ("history") or measures a rate ("rate") that it does not print
    counted = {"stiffness": (robinlab.grid_fem, "strip_matrix"),
               "solver": (robinlab.grid_fem, "StripSolver"),
               "solve": (robinlab.grid_fem.StripSolver, "solve"),
               "load": (robinlab.grid_fem, "assemble_load"),
               "modes": (robinlab.grid_fem, "strip_load_modes"),
               "rate": (robinlab.dd_solvers, "measured_reduction_rate")}
    calls = dict.fromkeys([*counted, "history"], 0)

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name, (owner, attr) in counted.items():
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))

    class CountingReport(robinlab.dd_solvers.DDReport):
        # a report whose states-to-traces map counts its calls
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.to_trace = counting("history", self.to_trace)

    monkeypatch.setattr(robinlab.dd_solvers, "DDReport", CountingReport)

    def run_counted(runner, **kwargs):
        calls.update(dict.fromkeys(calls, 0))
        result = runner(ExperimentConfig(**kwargs))
        return dict(calls), result

    # two strips with their two loads per mesh; the physical loop solves
    # both strips in every sweep and hands back the last sweep's solves
    got, result = run_counted(run_table1, table="table1", n_list=(2, 6, 10))
    sweeps = sum(int(row[-1]) for row in result.rows)
    assert sweeps == 13 + 14 + 14
    assert got == {"stiffness": 0, "solver": 6, "solve": 2 * sweeps, "load": 6, "modes": 0,
                   "rate": 0, "history": 0}
    # one zero-load strip per mesh serves as both strips of all seven
    # thetas, and its load modes serve both weights; each of the 14 runs
    # transforms its history once to measure its rate
    assert run_counted(run_table2, table="table2", n_list=(2, 6))[0] == {
        "stiffness": 0, "solver": 0, "solve": 0, "load": 0, "modes": 2,
        "rate": 14, "history": 14}
    # one load and one set of load modes per strip and mesh, shared by
    # all eight thetas; the table prints sweep counts only
    assert run_counted(run_table3, table="table3", n_list=(2, 6), max_iter=50)[0] == {
        "stiffness": 0, "solver": 0, "solve": 0, "load": 4, "modes": 4,
        "rate": 0, "history": 0}
    # the operator study reads the strip symbols mode by mode: no strip
    # and no solver, at n = 1 (both splits (1, 1)) too
    nothing = dict.fromkeys(calls, 0)
    assert run_counted(run_operator, table="operator", n_list=(2, 3))[0] == nothing
    assert run_counted(run_operator, table="operator", n_list=(1, 2, 3))[0] == nothing

    # a mode-sweep report recovers its strips, one solve each, on the first
    # read of solution_u or solution_w, and keeps them; it transforms its
    # history and measures its rate on their first read, and keeps them
    _, f = manufactured_solution()
    grid = build_grid(6)
    left = robinlab.build_subdomain_system(grid, f, "left")
    right = robinlab.build_subdomain_system(grid, f, "right")
    for solve in (robinlab.robin_robin_solve, robinlab.dirichlet_neumann_solve):
        calls.update(solve=0, rate=0, history=0)
        report = solve(left, right, DDParams(1.0, 64.0 * 12, 3.0 / 7.0, max_iter=50))
        assert calls["solve"] == 0
        u = report.solution_u
        assert calls["solve"] == 2
        assert report.solution_w is report.solution_w and report.solution_u is u
        assert calls["solve"] == 2
        rate = report.reduction_rate
        assert report.reduction_rate == rate and report.interface_trace_history is \
            report.interface_trace_history
        assert (calls["rate"], calls["history"]) == (1, 1)


def _spectrum_radii(result, thetas):
    """max|damped| of each theta's block of spectrum rows, keyed by theta;
    the rows hold one mesh, its blocks in theta_list order."""
    blocks = np.array([row[5] for row in result.rows]).reshape(len(thetas), -1)
    return dict(zip(thetas, np.abs(blocks).max(axis=1)))


def test_mode_table_single_mode():
    r = run_spectrum(ExperimentConfig(table="spectrum", n_list=(1,)))
    assert r.columns == ["n", "j", "a_j", "b_j", "c_j", "damped"]
    assert len(r.rows) == 1
    radius = _spectrum_radii(r, (THETA_STAR,))[THETA_STAR]
    assert radius == pytest.approx(187.0 / 3283.0, rel=1e-12)
    assert radius <= 1.0 / 7.0 + 1e-12


def test_mode_table_radius_flag_large_grid():
    r = run_spectrum(ExperimentConfig(table="spectrum", n_list=(256,)))
    assert len(r.rows) == 511
    radius = _spectrum_radii(r, (THETA_STAR,))[THETA_STAR]
    assert radius <= 1.0 / 7.0 + 1e-12
    assert radius == pytest.approx(0.13036859, abs=1e-6)


def test_mode_table_theta_sweep_against_envelope():
    thetas = (0.0, 3.0 / 7.0, 6.0 / 7.0)
    r = run_spectrum(ExperimentConfig(table="spectrum", n_list=(64,),
                                      theta_list=thetas))
    assert len(r.rows) == 3 * 127
    radii = _spectrum_radii(r, thetas)
    # spot check against the independent radius routine
    for t in thetas:
        _, rad = reduction_spectrum(64, DDParams(1.0, 64.0 * 128.0, t))
        assert radii[t] == pytest.approx(rad, rel=1e-12)
    assert radii[0.0] == pytest.approx(0.956766, abs=1e-5)
    assert radii[3.0 / 7.0] == pytest.approx(0.118152, abs=1e-5)
    assert radii[6.0 / 7.0] == pytest.approx(0.778906, abs=1e-5)
    for t in thetas:
        assert radii[t] <= corollary_rate(t) + 0.01
    # the h -> 0 envelope is approached slowly from below: at this grid only
    # the heavily over-relaxed column is within 0.01 of its limit value
    assert corollary_rate(0.0) - radii[0.0] > 0.04
    assert corollary_rate(3.0 / 7.0) - radii[3.0 / 7.0] > 0.02
    assert corollary_rate(6.0 / 7.0) - radii[6.0 / 7.0] < 0.01
    assert not radii[0.0] <= 1.0 / 7.0 + 1e-12
    assert radii[3.0 / 7.0] <= 1.0 / 7.0 + 1e-12


def test_half_plane_advisor_table():
    r = run_von_neumann(ExperimentConfig(table="von_neumann", n_list=(10, 100)))
    assert r.columns == ["K", "gamma1", "gamma2", "theta", "bound", "max|rho|",
                         "within_bound"]
    for row, K in zip(r.rows, (10, 100)):
        assert row[0] == K
        assert row[2] == pytest.approx(1.1 * K / np.tanh(K), rel=1e-12)
        # gamma1 = 1 sits below coth(1), so theta alone carries the bound
        assert row[4] == pytest.approx(row[3], rel=1e-12)
        assert row[5] <= row[4] + 1e-12
        assert row[6] == "yes"
    assert r.rows[0][3] == pytest.approx(0.1258818055, abs=1e-8)
    assert r.rows[1][3] == pytest.approx(0.2543216999, abs=1e-8)
    assert all(row[4] < 1.0 / 3.0 for row in r.rows)


def test_interface_operator_table():
    r = run_operator(ExperimentConfig(table="operator", n_list=(2,)))
    assert r.columns == ["n", "split", "s", "t", "gamma1", "gamma2", "theta",
                         "radius", "bound", "within_bound"]
    half, third = r.rows
    assert half[1] == "half" and third[1] == "third"
    assert half[2] == pytest.approx(1.0, abs=1e-9)
    assert half[3] == pytest.approx(1.0, abs=1e-9)
    assert half[6] == pytest.approx(1.0 / 3.0, rel=1e-9)
    # the lowest mode meets gamma1 head on, so the radius hits the bound
    assert half[7] == pytest.approx(half[8], rel=1e-9)
    assert third[2] == pytest.approx(0.6482769131, rel=1e-6)
    assert third[3] == pytest.approx(0.9293628385, rel=1e-6)
    assert third[6] == pytest.approx((2.0 * third[3] - 1.0) / (2.0 * third[3] + 1.0),
                                     rel=1e-10)
    for row in r.rows:
        assert row[7] <= row[8] + 1e-9
        assert row[9] == "yes"
    assert r.all_converged


def test_operator_table_on_deep_meshes(capsys):
    # the per-mode study reaches n = 576: both splits recommend theta = 1/3
    # there, and the sweep radius meets it
    rc = cli_main(["operator", "--n", "2", "--deep"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    half, third = (line.split(",") for line in lines[-2:])
    assert half[:2] == ["576", "half"] and third[:2] == ["576", "third"]
    for row in (half, third):
        assert row[6:] == ["0.3333333333"] * 3 + ["yes"]
    assert third[2] == "0.8047573169"


def test_dispatcher_routes_by_table_name():
    direct = run_table3(ExperimentConfig(table="table3", n_list=(2,),
                                         theta_list=(0.5,)))
    routed = run(ExperimentConfig(table="table3", n_list=(2,), theta_list=(0.5,)))
    assert routed.rows == direct.rows


# ------------------------------------------------------------- command line


def test_cli_usage_paths():
    assert cli_main([]) == 2
    assert cli_main(["bogus"]) == 2


def test_cli_config_error(capsys):
    rc = cli_main(["table2", "--n", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("robinlab:")


@pytest.mark.parametrize("option", ["--n", "--theta"])
def test_cli_empty_list_is_usage_error(capsys, option):
    rc = cli_main(["table1", option, ","])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("robinlab:")
    assert captured.out == ""


def test_cli_bad_theta(capsys):
    rc = cli_main(["spectrum", "--n", "4", "--theta", "1.5"])
    capsys.readouterr()
    assert rc == 2


@pytest.mark.parametrize("option, value", [
    ("--gamma1", "inf"), ("--gamma1", "nan"), ("--gamma2-coeff", "inf"), ("--tol", "nan"),
    ("--gamma2-coeff", "1e308"),
])
def test_cli_rejects_non_finite(capsys, option, value):
    rc = cli_main(["table1", "--n", "2", option, value])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("robinlab:") and "finite" in captured.err
    assert captured.out == ""


def _fresh_env(**extra):
    """Environment for a fresh interpreter that imports this robinlab."""
    src = str(Path(robinlab.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _cli_import_loads(module):
    """Whether importing robinlab.cli in a fresh interpreter loads module."""
    code = f"import sys, robinlab.cli; sys.exit({module!r} in sys.modules)"
    return subprocess.run([sys.executable, "-c", code], env=_fresh_env()).returncode != 0


@pytest.mark.parametrize("module", [
    # importing scipy.fft would add about 0.1 s to the start of every CLI
    # call; a sine transform by FFT has to come from numpy.fft, which numpy
    # loads anyway
    "scipy.fft",
    # every strip is solved by its fast solver, so no table factors a
    # sparse matrix; SuperLU stays with the test oracles
    "scipy.sparse.linalg",
    # no table builds a CSR matrix either: strip_matrix imports it only
    # for --dump-matrices and the tests
    "scipy.sparse",
    # scipy itself, with its array-API shim (numpy.f2py, numpy.ma,
    # numpy.testing), was about two thirds of the CLI's import time:
    # StripSolver imports its LAPACK routines when first built, so only a
    # table that solves a strip loads it
    "scipy.linalg",
])
def test_cli_import_leaves_module_unloaded(module):
    assert not _cli_import_loads(module)


@pytest.mark.parametrize("args", [
    ["operator", "--n", "8,16,24"], ["spectrum"], ["von-neumann"],
    # the mode sweeps read each strip's load modes in closed form
    ["table2", "--n", "36,72"], ["table3", "--n", "18,36,54"],
])
def test_cli_tables_without_strip_solves_load_no_scipy(args):
    # the tables that solve no strip finish in a fresh interpreter without
    # scipy; table3's theta = 0 column does not converge, by design
    code = 3 if args[0] == "table3" else 0
    err = "robinlab: some runs did not converge (marked with *)\n" if code else ""
    script = ("import io, sys, contextlib, robinlab.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    rc = robinlab.cli.cli_main(sys.argv[1:])\n"
              "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", script, *args], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert (done.stdout, done.stderr) == (f"{code} []\n", err)


@pytest.mark.parametrize("args", [
    ["spectrum", "--n", "9" * 400],
    ["von-neumann", "--n", "9" * 400],
    ["table2", "--n", "2", "--max-iter", "9" * 400],
])
def test_cli_integer_past_largest_float_is_usage_error(capsys, args):
    # an integer option is checked without converting it to float, which
    # overflows; no grid is allocated
    rc = cli_main(args)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("robinlab:")


def test_cli_reports_nonconvergence(capsys):
    rc = cli_main(["table3", "--n", "2", "--theta", "0", "--max-iter", "20"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "did not converge" in captured.err
    assert "20*" in captured.out


# weights whose sum gamma1 + gamma2 overflows, so that the datum every
# sweep forms from it does too
OVERFLOWING_WEIGHTS = ["--gamma1", "1e308", "--gamma2-rule", "constant", "--gamma2-coeff", "1e308"]


def test_cli_diverged_runs_print_nan(capsys):
    # gamma2 = 1e306/h overflows table1's physical sweep, and an overflowing
    # gamma1 + gamma2 the sine-mode sweep of table2, so every run stops
    # non-finite; no error or rate may read 0
    with np.errstate(all="ignore"):
        rc = cli_main(["table1", "--n", "2,3", "--gamma2-coeff", "1e306"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out.splitlines()[1:] == ["1/4,nan,,nan,,2*",
                                                 "1/6,nan,nan,nan,nan,2*"]
        rc = cli_main(["table2", "--n", "2"] + OVERFLOWING_WEIGHTS)
        captured = capsys.readouterr()
    assert rc == 3
    assert captured.out.splitlines()[1] == "1/4," + ",".join(["n/a*"] * 7)


def test_cli_table2_large_gamma2_reads_closed_form_rates(capsys):
    # the sine-mode sweep forms no datum of size gamma2, so at
    # gamma2 = 1e306/h every rate is the closed-form one-sweep radius
    rc = cli_main(["table2", "--n", "2", "--gamma2-coeff", "1e306"])
    assert rc == 0
    rates = [float(c) for c in capsys.readouterr().out.splitlines()[1].split(",")[1:]]
    config = ExperimentConfig("table2", n_list=(2,), gamma2_coefficient=1e306)
    for rate, theta in zip(rates, SEVENTHS, strict=True):
        assert rate == pytest.approx(reduction_spectrum(2, config.params(2, theta))[1],
                                     rel=1e-9)


def test_cli_diverged_runs_write_only_the_message():
    # the sweeps report a non-finite state themselves, so no numpy warning
    # (with the package's file paths) reaches stderr; a fresh interpreter,
    # as numpy warns once per code line and process
    for args in (["table1", "--n", "2", "--gamma2-coeff", "1e306"],
                 ["table2", "--n", "2"] + OVERFLOWING_WEIGHTS):
        done = subprocess.run([sys.executable, "-m", "robinlab"] + args,
                              env=_fresh_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 3
        assert done.stderr == "robinlab: some runs did not converge (marked with *)\n"


def test_cli_overflowing_error_norms_print_nan():
    # gamma1 = 1e308 stops unconverged after 2 sweeps with a finite u_h of
    # size 1e288, whose error forms overflow; the H1 form is -inf, which
    # must print nan, not 0
    done = subprocess.run([sys.executable, "-m", "robinlab", "table1", "--n", "2",
                           "--gamma1", "1e308"],
                          env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert done.stdout.splitlines()[1] == "1/4,nan,,nan,,2*"
    assert done.stderr == "robinlab: some runs did not converge (marked with *)\n"


def test_cli_short_unconverged_runs_marked(capsys):
    # fewer than 4 sweeps measure no rate, but a run cut at the cap is
    # still marked
    rc = cli_main(["table2", "--n", "2", "--max-iter", "3"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "marked with *" in captured.err
    assert captured.out.splitlines()[1] == "1/4," + ",".join(["n/a*"] * 7)


def test_cli_mode_table_large_grid(capsys):
    rc = cli_main(["spectrum", "--n", "512", "--theta", "0.4286"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    assert len(lines) == 1 + 1023
    damped = np.array([float(line.split(",")[-1]) for line in lines[1:]])
    assert np.abs(damped).max() <= 1.0 / 7.0


def test_cli_rate_table_csv_parses(capsys):
    rc = cli_main(["table2", "--n", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    cells = lines[1].split(",")
    assert cells[0] == "1/4"
    values = [float(c) for c in cells[1:]]
    for value, theta in zip(values, SEVENTHS):
        _, radius = reduction_spectrum(2, DDParams(1.0, 256.0, theta))
        assert value == pytest.approx(radius, abs=1e-5)


def test_cli_markdown_alias_and_determinism(capsys):
    rc = cli_main(["table1", "--n", "2,6", "--format", "md"])
    first = capsys.readouterr().out
    assert rc == 0
    cli_main(["table1", "--n", "2,6", "--format", "markdown"])
    second = capsys.readouterr().out
    cli_main(["table1", "--n", "2,6", "--format", "md"])
    third = capsys.readouterr().out
    assert first == second == third
    lines = first.splitlines()
    assert lines[0].split("|")[1].strip() == "h"
    assert "1/12" in lines[3]


def test_cli_out_file_matches_stdout(tmp_path, capsys):
    cli_main(["table1", "--n", "2"])
    streamed = capsys.readouterr().out
    target = tmp_path / "table.csv"
    rc = cli_main(["table1", "--n", "2", "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    assert target.read_text() == streamed


def test_cli_matrix_dumps_load_back(tmp_path, capsys):
    dump_dir = tmp_path / "mm"
    rc = cli_main(["table1", "--n", "2", "--dump-matrices", str(dump_dir)])
    capsys.readouterr()
    assert rc == 0
    names = sorted(os.listdir(dump_dir))
    assert names == ["a0_n2.mtx", "interface_mass_n2.mtx",
                     "interface_stiffness_n2.mtx", "stiffness_n2.mtx"]
    grid = build_grid(2)
    for name, expected in (
        ("interface_mass_n2.mtx", assemble_interface_mass(grid).to_dense()),
        ("a0_n2.mtx", strip_stiffness(grid, clamped=True).toarray()),
        ("stiffness_n2.mtx", strip_stiffness(grid).toarray()),
        ("interface_stiffness_n2.mtx", Tridiagonal(3, 2.0, -0.5).to_dense()),
    ):
        back = scipy.io.mmread(dump_dir / name).toarray()
        np.testing.assert_allclose(back, expected, atol=1e-15)


# sha256 of the files written by `table1 --n 1,2 --dump-matrices`, as the
# program wrote them before strip_matrix built every dumped CSR
DUMP_SHA256 = {
    "a0_n1.mtx": "a26e4188be8948fba0df2d852ea9bf59742bc432bf59cdfb9d8592bad276d2b7",
    "a0_n2.mtx": "c48b1242c27a571525cf6b376a391fa4401fa721b963f299d147801b97ce7a02",
    "interface_mass_n1.mtx": "da5b5b1196bd9fd9204f223fab3116831d4fa1d19a720bbd1db08cc506e9e2e0",
    "interface_mass_n2.mtx": "037a7a99331ffb623bb88a49b2402df5c03c26f105e164eb292f2948e606058a",
    "interface_stiffness_n1.mtx": "35b2717328ce9abe2c148122bc34fb218a7d418bf9bc66900625baff0cbc1ce8",
    "interface_stiffness_n2.mtx": "aa0c3ced54131655b06ef57018f6ce6986c15c48e3e4bea17c0d9ce7464764b1",
    "stiffness_n1.mtx": "e17d63017662b0abfddd6b16f619eec1543101e1ca2154565a4993e00a42590e",
    "stiffness_n2.mtx": "071bf64ec6963e347f5799564ba3085df24bdbbbe0ca81c5143e87deef5177a2",
}


def test_cli_matrix_dumps_byte_identical(tmp_path, capsys):
    rc = cli_main(["table1", "--n", "1,2", "--dump-matrices", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == DUMP_SHA256


@pytest.mark.parametrize("option, path", [
    ("--out", "missing/table.csv"),
    ("--dump-matrices", "plain_file/mm"),
])
def test_cli_bad_output_path_is_usage_error(tmp_path, monkeypatch, capsys, option, path):
    (tmp_path / "plain_file").write_text("")

    def must_not_run(config):
        raise AssertionError("table computed despite an unusable output path")

    monkeypatch.setattr("robinlab.experiments.run", must_not_run)
    rc = cli_main(["table1", "--n", "2", option, str(tmp_path / path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("robinlab:")
    assert captured.out == ""


# the options each subcommand reads; every other one is a usage error
COMMON_OPTIONS = ("--n", "--format", "--out", "--deep")
CONFIG_OPTIONS = ("--gamma1", "--gamma2-coeff", "--gamma2-rule", "--theta", "--tol", "--max-iter")
SUBCOMMAND_OPTIONS = {
    "table1": ("--dump-matrices",) + CONFIG_OPTIONS,
    "table2": ("--dump-matrices",) + CONFIG_OPTIONS,
    "table3": ("--dump-matrices", "--theta", "--tol", "--max-iter"),
    "spectrum": ("--dump-matrices", "--gamma1", "--gamma2-coeff", "--gamma2-rule", "--theta"),
    "von-neumann": ("--gamma1",),
    "operator": ("--dump-matrices",),
}
# a valid value other than the default for each option that takes one
OPTION_VALUES = {"--dump-matrices": "mm", "--gamma1": "2", "--gamma2-coeff": "4",
                 "--gamma2-rule": "constant", "--theta": "0.5", "--tol": "0.1",
                 "--max-iter": "3"}


def test_cli_subcommands_parse_only_their_options():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {s for a in p._actions for s in a.option_strings if s != "-h" and s != "--help"}
              for name, p in sub.choices.items()}
    assert parsed == {name: set(COMMON_OPTIONS + options)
                      for name, options in SUBCOMMAND_OPTIONS.items()}
    assert sum(map(len, parsed.values())) == 49


@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in SUBCOMMAND_OPTIONS.items()
    for option in OPTION_VALUES if option not in options])
def test_cli_unread_option_is_usage_error(tmp_path, monkeypatch, capsys, command, option):
    monkeypatch.chdir(tmp_path)
    rc = cli_main([command, "--n", "2", option, OPTION_VALUES[option]])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {option}" in captured.err
    assert not (tmp_path / "mm").exists()


@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in SUBCOMMAND_OPTIONS.items()
    for option in options if option in CONFIG_OPTIONS])
def test_cli_read_option_changes_table(capsys, command, option):
    cli_main([command, "--n", "2"])
    default = capsys.readouterr().out
    rc = cli_main([command, "--n", "2", option, OPTION_VALUES[option]])
    captured = capsys.readouterr()
    assert rc in (0, 3), captured.err
    assert captured.out and captured.out != default


def test_cli_rejects_unknown_format(capsys):
    rc = cli_main(["table1", "--n", "2", "--format", "tsv"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "invalid choice: 'tsv'" in captured.err


class FullFile:
    """A text file on a full device: writes buffer, flushes fail."""

    def write(self, text):
        return len(text)

    def flush(self):
        raise OSError(28, "No space left on device")

    def close(self):
        self.flush()


@pytest.mark.parametrize("args", [[], ["--out", "table.csv"]])
def test_cli_failed_write_is_usage_error(monkeypatch, capsys, args):
    monkeypatch.setattr("robinlab.cli.open", lambda *a, **k: FullFile(), raising=False)
    monkeypatch.setattr(sys, "stdout", FullFile())
    rc = cli_main(["table1", "--n", "2", *args])
    monkeypatch.undo()
    assert rc == 2
    assert capsys.readouterr().err == "robinlab: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("to_out", [False, True])
def test_cli_write_to_full_device_exits_2(to_out):
    # a fresh interpreter, so that stdout's flush at exit is seen too
    args = ["table1", "--n", "2"] + (["--out", "/dev/full"] if to_out else [])
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "robinlab", *args], stdout=full,
                              env=_fresh_env(), stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == "robinlab: [Errno 28] No space left on device\n"


def _readme_commands():
    """The robinlab command lines of README's "Command line" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [line.split()[1:] for line in section.splitlines()
            if line.startswith("    robinlab ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)  # for --out
    for argv in commands:
        rc = cli_main(argv)
        captured = capsys.readouterr()
        assert rc == (3 if argv[0] == "table3" else 0), (argv, captured.err)


def test_cli_von_neumann_tiny_gamma1(capsys):
    # gamma2 / gamma1 overflows for a subnormal gamma1; the advisor's
    # theta and bound must stay finite and the band check must pass
    rc = cli_main(["von-neumann", "--n", "2,100", "--gamma1", "5e-324"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines() == [
        "K,gamma1,gamma2,theta,bound,max|rho|,within_bound",
        "2,4.940656458e-324,2.282092386,0.3333333333,0.3333333333,0.3015873016,yes",
        "100,4.940656458e-324,110,0.3333333333,0.3333333333,0.3176054924,yes",
    ]


def test_cli_hyphenated_subcommand(capsys):
    rc = cli_main(["von-neumann", "--n", "10"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("K,")


def _pinned_run(args, name, threads="2"):
    """stdout of `python -m robinlab args` in a fresh interpreter with
    OPENBLAS_NUM_THREADS=threads, with the return code, and the stored output."""
    want = (Path(__file__).resolve().parent / "data" / name).read_text()
    done = subprocess.run([sys.executable, "-m", "robinlab", *args],
                          env=_fresh_env(OPENBLAS_NUM_THREADS=threads),
                          capture_output=True, text=True, timeout=120)
    return done, want


def test_table1_refining_meshes_byte_identical():
    """`table1 --n 36,72,108,144` prints exactly the stored CSV.

    Its h = 1/288 row sits on the sweep's roundoff floor (CHANGES.md FOUND
    line on the mesh_refine h = 1/288 row): a last-bit change in a strip
    load moves that row's sweep count and its L2 cell by about 1e-8.  So a
    change to the table1 path keeps these bytes, or it lists every moved
    cell.  table1 therefore runs the physical Robin loop
    (robin_robin_physical_solve), not the sine-mode sweep of the other
    tables, which stops that row at 14 sweeps; moving table1 onto it
    (ROADMAP item 2) will update this file, listing every moved cell.

    The strip solver's transform back to physical space is a BLAS product
    whose last bits depend on the BLAS thread count; with one thread the
    h = 1/288 row stops at 14 sweeps.  The table therefore runs in a fresh
    interpreter with OPENBLAS_NUM_THREADS=2, and the file holds that run's
    output with OpenBLAS 0.3.31 on x86-64.
    """
    done, want = _pinned_run(["table1", "--n", "36,72,108,144"], "table1_mesh_refine.csv")
    assert done.returncode == 0, done.stderr
    assert done.stdout == want


@pytest.mark.parametrize("args, name, code", [
    (["spectrum", "--n", "36,144"], "spectrum_n36_144.csv", 0),
    (["table3", "--n", "18,36,54"], "table3_n18_36_54.csv", 3),
    (["table2", "--n", "36,72"], "table2_n36_72.csv", 0),
    (["operator", "--n", "8,16,24"], "operator_n8_16_24.csv", 0),
    (["operator"], "operator_default.csv", 0),
    (["operator", "--n", "1,2,3,4,5,6,7,32,40"], "operator_n1_to_7_32_40.csv", 0),
    (["table2"], "table2_default.csv", 0),
    (["table3", "--n", "1,2,5", "--theta", "0.25,0.3,0.45"], "table3_n1_2_5_theta.csv", 0),
])
def test_mode_symbol_tables_byte_identical(args, name, code):
    """`spectrum`, `table3`, `table2` and `operator` print exactly the
    stored output.

    The first two read the per-mode strip symbol: `spectrum` through the
    trace response of mode_arrays, `table3` through the Dirichlet-Neumann
    sweep.  Their files hold the output of the lattice-sum and dpttrf-pivot
    symbols (now the oracles in symbol_oracle.py), so a change to the
    symbol keeps these bytes or lists every moved cell.  `table2` pins the
    Robin sweep's measured rates from the slowest-mode seed, and
    `operator` the trace-map study (Schur complements, recommended weights
    and radii); their files hold the output from before the two sweeps
    shared one driver.  The default `operator` meshes add n = 2, whose
    off-center split has a one-column strip with no interior; that file
    holds the output of the SuperLU elimination now kept in
    schur_oracle.py.  The files of `operator --n 1,2,3,4,5,6,7,32,40` and
    default `table2` hold the output from before the zero-load studies
    built one strip per width: `operator` then built four strips per mesh,
    which includes n = 1, where both splits are (1, 1), and the
    one-column strips, and `table2` a left and a right strip per mesh.
    The three `operator` files now come from the per-mode study
    (operator_analysis.mode_study), which prints the bytes of the dense
    path in dense_oracle.py.
    The file of `table3 --n 1,2,5 --theta 0.25,0.3,0.45` pins the reading
    of the Neumann step that the sweep runs: the one that solves the
    assembled global system takes one sweep fewer at n = 1 (theta = 0.25
    and 0.45) and one more at n = 5 (theta = 0.3) than the literal
    reading kept in dn_oracle.py.  They run as table1 does above (fresh
    interpreter, two BLAS threads); the default-theta `table3` exits 3 by
    design, as its theta = 0 column does not converge.
    """
    done, want = _pinned_run(args, name)
    assert done.returncode == code, done.stderr
    assert done.stdout == want


@pytest.mark.parametrize("args, name, code", [
    (["table2", "--n", "36,72"], "table2_n36_72.csv", 0),
    (["spectrum", "--n", "36,144"], "spectrum_n36_144.csv", 0),
    (["table3", "--n", "18,36,54"], "table3_n18_36_54.csv", 3),
    (["operator"], "operator_default.csv", 0),
    (["operator", "--n", "8,16,24"], "operator_n8_16_24.csv", 0),
    (["operator", "--n", "1,2,3,4,5,6,7,32,40"], "operator_n1_to_7_32_40.csv", 0),
    (["table3", "--n", "1,2,5", "--theta", "0.25,0.3,0.45"], "table3_n1_2_5_theta.csv", 0),
    (["table3", "--deep"], "table3_deep.csv", 3),
])
def test_pinned_bytes_independent_of_blas_threads(args, name, code):
    """These pins print the stored output under one BLAS thread as
    test_mode_symbol_tables_byte_identical checks they do under two
    (ROADMAP item 4 asks this of every table).  `table3 --deep` is pinned
    here only: its file holds the counts of the per-sweep loop the sweeps
    ran before they ran in blocks (two BLAS threads), the same on every
    mesh from h = 1/4 to 1/1152, with the theta = 0 column capped."""
    done, want = _pinned_run(args, name, threads="1")
    assert done.returncode == code, done.stderr
    assert done.stdout == want


def test_table2_fine_mesh_within_envelope():
    # h = 1/288: every run converges, under its column's envelope, and
    # theta = 3/7 contracts by at least 7x per sweep
    result = run_table2(ExperimentConfig("table2", n_list=(144,)))
    assert result.all_converged
    rates = result.rows[0][1:]
    for rate, theta in zip(rates, SEVENTHS, strict=True):
        assert rate <= corollary_rate(theta)
    assert rates[SEVENTHS.index(3.0 / 7.0)] <= 1.0 / 7.0
