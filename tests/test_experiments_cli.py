"""Table drivers, config plumbing, and the command line front end."""

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
from robinlab.cli import cli_main
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
        (dict(table="table1", output_format="tsv"), "csv or markdown"),
        (dict(table="table1", gamma1=float("inf")), "finite"),
        (dict(table="table1", gamma1=float("nan")), "finite"),
        (dict(table="table1", gamma2_coefficient=float("inf")), "finite"),
        (dict(table="table1", stop_tol=float("nan")), "finite"),
        (dict(table="table1", stop_tol=float("inf")), "finite"),
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
    r = run_table1(ExperimentConfig(table="table1", n_list=(2, 6)))
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
    assert r.notes["all_converged"] is True
    assert r.notes["theta"] == pytest.approx(THETA_STAR)


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


def test_relaxation_sweep_table_rows():
    r = run_table3(ExperimentConfig(table="table3", n_list=(2,)))
    assert r.rows[0] == ["1/4", "2000*", "39", "23", "17", "13", "2", "12", "37"]
    assert r.notes["all_converged"] is False


def test_relaxation_sweep_converged_subset():
    r = run_table3(ExperimentConfig(table="table3", n_list=(2,),
                                    theta_list=(0.5, 0.75)))
    assert r.rows[0] == ["1/4", "2", "37"]
    assert r.notes["all_converged"] is True


def test_mode_table_single_mode():
    r = run_spectrum(ExperimentConfig(table="spectrum", n_list=(1,)))
    assert r.columns == ["n", "j", "a_j", "b_j", "c_j", "damped"]
    assert len(r.rows) == 1
    info = r.notes["radii"][(1, THETA_STAR)]
    assert info["radius"] == pytest.approx(187.0 / 3283.0, rel=1e-12)
    assert info["within_bound"]


def test_mode_table_radius_flag_large_grid():
    r = run_spectrum(ExperimentConfig(table="spectrum", n_list=(256,)))
    assert len(r.rows) == 511
    info = r.notes["radii"][(256, THETA_STAR)]
    assert info["radius"] <= 1.0 / 7.0 + 1e-12
    assert info["radius"] == pytest.approx(0.13036859, abs=1e-6)
    assert info["within_bound"]


def test_mode_table_theta_sweep_against_envelope():
    thetas = (0.0, 3.0 / 7.0, 6.0 / 7.0)
    r = run_spectrum(ExperimentConfig(table="spectrum", n_list=(64,),
                                      theta_list=thetas))
    assert len(r.rows) == 3 * 127
    radii = {t: r.notes["radii"][(64, t)]["radius"] for t in thetas}
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
    assert not r.notes["radii"][(64, 0.0)]["within_bound"]
    assert r.notes["radii"][(64, 3.0 / 7.0)]["within_bound"]


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
    assert r.notes["all_converged"]


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


def test_cli_import_leaves_scipy_fft_unloaded():
    # importing scipy.fft would add about 0.1 s to the start of every CLI
    # call; a sine transform by FFT has to come from numpy.fft, which numpy
    # loads anyway
    src = str(Path(robinlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, robinlab.cli; sys.exit('scipy.fft' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_reports_nonconvergence(capsys):
    rc = cli_main(["table3", "--n", "2", "--theta", "0", "--max-iter", "20"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "did not converge" in captured.err
    assert "20*" in captured.out


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
    mass = scipy.io.mmread(dump_dir / "interface_mass_n2.mtx").toarray()
    expected = assemble_interface_mass(build_grid(2)).to_dense()
    np.testing.assert_allclose(mass, expected, atol=1e-15)


def test_cli_hyphenated_subcommand(capsys):
    rc = cli_main(["von-neumann", "--n", "10"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("K,")
