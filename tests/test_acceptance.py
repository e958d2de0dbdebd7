"""Acceptance gate: one test per numbered criterion, each printing a single
"criterion N: PASS/FAIL - ..." line (run with -s or read the captured output).

Criteria 1 and 8 compare printed cells of bundled reference tables.
Criterion 1's error values come from an independent element-loop oracle
(test_error_oracle.py).  Criterion 8's comparison is not reproducible from
the solver definition implemented here, and its test fails with the
computed-versus-reference numbers in the failure text rather than papering
over the gap.  Criteria 3-7 are convention-free and form the hard gate that
criterion 9 re-checks.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from robinlab import (
    DDParams,
    build_grid,
    build_subdomain_system,
    corollary_rate,
    reduction_spectrum,
    robin_robin_solve,
    split_modes,
)
from robinlab.experiments import ExperimentConfig, run_table1, run_table2, run_table3
from dense_oracle import (
    build_iteration_operator,
    dtn_schur,
    equivalence_bounds,
    iteration_spectral_radius,
    params_from_bounds,
    symmetrized_T,
)
from jacobi_oracle import power_spectral_radius
from robinlab.grid_fem import offcenter_columns
from robinlab.spectral import (
    COTH_1,
    bound_margins,
    mode_arrays,
    von_neumann_advisor,
    von_neumann_rho,
)
from symbol_oracle import von_neumann_rho_product
from dn_oracle import trace_history

THETA_STAR = 3.0 / 7.0

# Reference tables.  Keys are strip widths n, h = 1/(2n).
# REFERENCE_ERRORS holds (||u_I - u_h||_L2, |u_I - u_h|_H1) as computed by
# the independent element-loop oracle in test_error_oracle.py, kept to seven
# significant digits so that rounding them cannot decide the 2-digit
# comparison; the other two tables are transcribed.
REFERENCE_ERRORS = {
    2: (0.03653526, 0.2577675),
    6: (0.005462182, 0.03735437),
    10: (0.002014628, 0.01374321),
    14: (0.001034778, 0.00705455),
    18: (0.0006277055, 0.004278311),
    22: (0.0004207868, 0.002867653),
    26: (0.0003015156, 0.002054684),
}
REFERENCE_RATES = {
    2: (0.764, 0.512, 0.260, 0.096, 0.322, 0.548, 0.774),
    6: (0.865, 0.598, 0.332, 0.115, 0.336, 0.557, 0.779),
    10: (0.894, 0.624, 0.353, 0.116, 0.337, 0.558, 0.779),
    14: (0.910, 0.637, 0.364, 0.116, 0.337, 0.558, 0.779),
    18: (0.920, 0.646, 0.371, 0.116, 0.337, 0.558, 0.779),
    22: (0.927, 0.652, 0.377, 0.116, 0.337, 0.558, 0.779),
}
REFERENCE_DN_COUNTS = {
    2: (88, 24, 22, 25, 29, 33, 38, 78),
    6: (237, 34, 21, 23, 26, 30, 35, 71),
    10: (392, 37, 22, 22, 25, 29, 33, 68),
    14: (548, 38, 23, 21, 24, 28, 32, 66),
    18: (705, 39, 23, 21, 24, 27, 31, 64),
}

HARD_GATE = {}


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _zero(x, y):
    return 0.0 * (np.asarray(x, dtype=float) + np.asarray(y, dtype=float))


@pytest.fixture(scope="module")
def error_table():
    t0 = time.perf_counter()
    result = run_table1(ExperimentConfig(table="table1"))
    return result, time.perf_counter() - t0


def test_criterion_1_discretization_table(error_table):
    result, elapsed = error_table
    counts = [int(row[5]) for row in result.rows]
    counts_ok = all(13 <= c <= 15 for c in counts)
    orders = [(row[2], row[4]) for row in result.rows[-3:]]
    orders_ok = all(abs(o - 2.0) <= 0.1 for pair in orders for o in pair)
    runtime_ok = elapsed < 120.0

    lines = []
    errors_ok = True
    for row, n in zip(result.rows, (2, 6, 10, 14, 18, 22, 26)):
        ref_l2, ref_h1 = REFERENCE_ERRORS[n]
        for got, ref, tag in ((row[1], ref_l2, "L2"), (row[3], ref_h1, "H1")):
            if float("%.2g" % got) != float("%.2g" % ref):
                errors_ok = False
                lines.append(f"  h={row[0]} {tag}: computed {got:.6g}, reference {ref:.6g}")

    ok = counts_ok and orders_ok and runtime_ok and errors_ok
    detail = (f"counts {min(counts)}..{max(counts)} in 14+-1: {counts_ok}; "
              f"finest orders 2.0+-0.1: {orders_ok}; "
              f"runtime {elapsed:.1f}s < 120s: {runtime_ok}; "
              f"errors match reference to 2 significant digits: {errors_ok}")
    if not errors_ok:
        detail += "\nerror cells that disagree:\n" + "\n".join(lines)
    _report(1, ok, detail)


def test_criterion_2_rate_table():
    ns = (2, 6, 10, 14, 18, 22)
    result = run_table2(ExperimentConfig(table="table2", n_list=ns))
    measured_rows = result.rows[:-1]
    worst_ref = 0.0
    worst_env = -1.0
    for row, n in zip(measured_rows, ns):
        for k in range(7):
            got = row[k + 1]
            worst_ref = max(worst_ref, abs(got - REFERENCE_RATES[n][k]))
            worst_env = max(worst_env, got - (corollary_rate(k / 7.0) + 0.01))
    theta0 = [row[1] for row in measured_rows]
    monotone = all(b > a for a, b in zip(theta0, theta0[1:]))
    ok = worst_ref <= 0.02 and worst_env <= 0.0 and monotone
    _report(2, ok,
            f"max |measured - reference| = {worst_ref:.4f} (<= 0.02); "
            f"max excess over corollary bound + 0.01 = {worst_env:.2e} (<= 0); "
            f"theta=0 column strictly increasing toward 1: {monotone}")


def test_criterion_3_closed_form_radius():
    worst_damped = -np.inf
    worst_c = np.inf
    slack_c_lo = np.inf
    slack_c_hi = np.inf
    slack_z = np.inf
    for n in range(1, 513):
        h = 1.0 / (2 * n)
        _, _, a, b = mode_arrays(n)
        g2 = 64.0 / h
        c = ((a - b) / (a + b)) * ((g2 * a - b) / (g2 * a + b))
        damped = THETA_STAR + (4.0 / 7.0) * c
        z = b / a
        worst_damped = max(worst_damped, float(np.abs(damped).max() - 1.0 / 7.0))
        worst_c = min(worst_c, float(c.min()))
        slack_c_lo = min(slack_c_lo, float((c + 1.0).min()))
        slack_c_hi = min(slack_c_hi, float((-0.5 - c).min()))
        slack_z = min(slack_z, float((z - (3.0 + 7.0 * h / 16.0)).min()),
                      float((21.0 / (2.0 * h) - z).min()))
    ok = (worst_damped <= 1e-12 and slack_c_lo > -1e-12 and slack_c_hi > -1e-12
          and slack_z > -1e-12)
    HARD_GATE[3] = ok = bool(ok)
    _report(3, ok,
            f"n=1..512: max |3/7 + (4/7)c_j| - 1/7 = {worst_damped:.2e}; "
            f"c_j in (-1,-1/2) slacks {slack_c_lo:.2e}/{slack_c_hi:.2e}; "
            f"z_j bracket slack {slack_z:.2e} (all > -1e-12)")


def _one_sweep_matrix(n):
    # columns of the damped double-sweep map, assembled matrices, f = 0
    grid = build_grid(n)
    left = build_subdomain_system(grid, _zero, "left")
    right = build_subdomain_system(grid, _zero, "right")
    params = DDParams(gamma1=1.0, gamma2=128.0 * n, theta=THETA_STAR,
                      stop_tol=1e-300, max_iter=1)
    m = grid.n_interface
    E = np.empty((m, m))
    for k in range(m):
        g = np.zeros(m)
        g[k] = 1.0
        report = robin_robin_solve(left, right, params, g1_init=g)
        E[:, k] = trace_history(report)[1]
    return E


def test_criterion_4_oracle_equivalence():
    worst_spec = 0.0
    worst_power = 0.0
    for n in range(1, 9):
        E = _one_sweep_matrix(n)
        vals, radius = reduction_spectrum(split_modes(2 * n - 1, n, n),
                                           DDParams(1.0, 128.0 * n, THETA_STAR))
        got = np.sort(np.linalg.eigvals(E).real)
        worst_spec = max(worst_spec, float(np.abs(got - np.sort(vals)).max()))
        powered = power_spectral_radius(lambda x: E @ x, E.shape[0])
        worst_power = max(worst_power, abs(powered - radius))
    ok = worst_spec <= 1e-8 and worst_power <= 1e-8
    HARD_GATE[4] = ok = bool(ok)
    _report(4, ok,
            f"n=1..8: dense sweep spectrum vs closed form, max dev {worst_spec:.2e};"
            f" power-iteration radius dev {worst_power:.2e} (both <= 1e-8)")


def test_criterion_5_margin_inequalities():
    all_decreasing = True
    all_quadratic = True
    all_linear = True
    for n in range(1, 1025):
        m = bound_margins(n)
        all_decreasing &= m.strictly_decreasing
        all_quadratic &= m.below_sharp_quadratic
        if n >= 11:
            all_linear &= bool(m.below_linear)
    ok = all_decreasing and all_quadratic and all_linear
    HARD_GATE[5] = ok = bool(ok)
    _report(5, ok,
            f"n=1..1024: 3a_j - b_j strictly decreasing: {all_decreasing}; "
            f"3a_1 - b_1 < -7h^2/16: {all_quadratic}; "
            f"< -0.049h for n >= 11: {all_linear}")


def test_criterion_6_half_plane_advisor():
    worst = {}
    for K in (10, 100):
        gamma2, theta, bound = von_neumann_advisor(K, 1.0)
        k = np.arange(1, K + 1, dtype=float)
        rho = np.abs(von_neumann_rho(k, 1.0, gamma2, theta))
        worst[K] = float(rho.max())
    band_ok = all(w < 1.0 / 3.0 for w in worst.values())

    rng = np.random.default_rng(20260822)
    forms_dev = 0.0
    for _ in range(100):
        k = 10.0 ** rng.uniform(-2.0, 3.0)
        g1 = 10.0 ** rng.uniform(-2.0, 2.0)
        g2 = g1 * 10.0 ** rng.uniform(0.0, 3.0)
        th = rng.uniform(0.0, 0.999)
        forms_dev = max(forms_dev, abs(von_neumann_rho(k, g1, g2, th)
                                       - von_neumann_rho_product(k, g1, g2, th)))
    forms_ok = forms_dev <= 1e-12

    branch_excess = -np.inf
    for _ in range(100):
        g1 = COTH_1 + 10.0 ** rng.uniform(-3.0, 1.0)
        K = rng.uniform(1.05, 60.0)
        gamma2, theta, bound = von_neumann_advisor(K, g1)
        band = np.linspace(1.0, K, 400)
        excess = float(np.abs(von_neumann_rho(band, g1, gamma2, theta)).max() - bound)
        branch_excess = max(branch_excess, excess)
    branch_ok = branch_excess <= 1e-12

    ok = band_ok and forms_ok and branch_ok
    HARD_GATE[6] = ok = bool(ok)
    _report(6, ok,
            f"advisor worst |rho|: K=10 -> {worst[10]:.4f}, K=100 -> {worst[100]:.4f}"
            f" (< 1/3); two rho forms max dev {forms_dev:.2e} (<= 1e-12); "
            f"100 gamma1 > coth(1) draws, max band excess {branch_excess:.2e}")


def test_criterion_7_interface_operator_suite():
    worst_fixed = -np.inf   # half split, fixed rule gamma1=3, gamma2=10.5/h
    worst_rec = -np.inf     # both splits, recommended weights and damping
    tilde_lo = np.inf
    tilde_hi = -np.inf
    dev_41 = 0.0            # inverse pencil extremes vs (1/t, 1/s)
    dev_42 = -np.inf        # explicit lower bound minus min eig of T~
    dev_43 = -np.inf        # shifted resolvent inequality excess
    rng = np.random.default_rng(41)
    for n in range(1, 33):
        grid = build_grid(n)
        for split, (ncl, ncr) in (("half", (n, n)),
                                  ("third", offcenter_columns(grid))):
            left = build_subdomain_system(grid, _zero, "left", n_cols=ncl)
            right = build_subdomain_system(grid, _zero, "right", n_cols=ncr)
            S1, S2 = dtn_schur(left), dtn_schur(right)
            bounds = equivalence_bounds(S1, S2)
            params = params_from_bounds(S1, S2, bounds)
            g1, g2 = params.gamma1, params.gamma2
            tilde = symmetrized_T(S1, S2, params)
            w = np.linalg.eigvalsh(tilde)
            tilde_lo = min(tilde_lo, float(w[0]))
            tilde_hi = max(tilde_hi, float(w[-1] - (2.0 * bounds.t - 1.0)))
            R = build_iteration_operator(S1, S2, params)
            radius = iteration_spectral_radius(R)
            worst_rec = max(worst_rec, radius - params.theta)
            if split == "half":
                R2 = build_iteration_operator(S1, S2, DDParams(3.0, 21.0 * n, 1.0 / 3.0))
                worst_fixed = max(worst_fixed,
                                  float(np.abs(np.linalg.eigvals(R2)).max()) - 1.0 / 3.0)
            M1, M2 = S1.matrix, S2.matrix
            mu = scipy.linalg.eigh(np.linalg.inv(M2), np.linalg.inv(M1),
                                   eigvals_only=True)
            dev_41 = max(dev_41, abs(mu[0] - 1.0 / bounds.t),
                         abs(mu[-1] - 1.0 / bounds.s))
            explicit = (((S2.min_eig - g1) / (g2 + S2.min_eig))
                        * ((g2 - S1.max_eig) / (g1 + S1.max_eig)))
            dev_42 = max(dev_42, explicit - float(w[0]))
            # the sharp upper equivalence constant sits below 1 on
            # complementary strips; the inequality presumes an admissible
            # constant t >= 1, so test with max(t, 1)
            t_eff = max(bounds.t, 1.0)
            eye = np.eye(len(w))
            for _ in range(50):
                v = rng.standard_normal(len(w))
                lhs = v @ np.linalg.solve(g2 * eye - M2, (g1 * eye + M2) @ v)
                rhs = v @ np.linalg.solve(g2 * eye - M1, (g1 * eye + M1) @ v)
                dev_43 = max(dev_43, lhs - (2.0 * t_eff - 1.0) * rhs)
    ok = (worst_fixed <= 1e-9 and worst_rec <= 1e-9
          and tilde_lo > -1e-10 and tilde_hi <= 1e-10
          and dev_41 <= 1e-10 and dev_42 <= 1e-10 and dev_43 <= 1e-10)
    HARD_GATE[7] = ok = bool(ok)
    _report(7, ok,
            f"n=1..32: fixed-rule half-split radius excess over 1/3 = "
            f"{worst_fixed:.2e}; recommended-weight radius excess over "
            f"(2t-1)/(2t+1) = {worst_rec:.2e} (both <= 1e-9); spec(T~) in "
            f"(0, 2t-1] with min {tilde_lo:.2e} and upper slack {tilde_hi:.2e}; "
            f"inverse-pencil extremes dev {dev_41:.2e}; explicit lower bound "
            f"excess {dev_42:.2e}; resolvent inequality excess {dev_43:.2e}")


def test_criterion_8_alternating_solver_table():
    ns = (2, 6, 10, 14, 18)
    result = run_table3(ExperimentConfig(table="table3", n_list=ns))
    computed = {n: tuple(int(cell.rstrip("*")) for cell in row[1:])
                for row, n in zip(result.rows, ns)}

    bad_cells = 0
    lines = []
    for n in ns:
        devs = [abs(c - r) for c, r in zip(computed[n], REFERENCE_DN_COUNTS[n])]
        bad_cells += sum(d > 2 for d in devs)
        lines.append(f"  h=1/{2 * n}: computed {computed[n]}, "
                     f"reference {REFERENCE_DN_COUNTS[n]}")
    cells_ok = bad_cells == 0

    theta0 = [computed[n][0] for n in ns]
    growth_ok = True
    for (na, ca), (nb, cb) in zip(zip(ns, theta0), zip(ns[1:], theta0[1:])):
        h_ratio = nb / na
        growth_ok &= abs(cb / ca - h_ratio) <= 0.2 * h_ratio
    ok = cells_ok and growth_ok
    detail = (f"{bad_cells} cells deviate by more than 2; "
              f"theta=0 counts grow linearly in 1/h: {growth_ok}")
    if not ok:
        detail += ("\n" + "\n".join(lines) +
                   "\nthe relaxed alternating sweep contracts every interface "
                   "mode by |2 theta - 1|, so computed counts are h-independent "
                   "and the theta=0 sweep never converges (capped at max_iter); "
                   "the reference counts' h-dependence is not reproducible from "
                   "the update rule as defined")
    _report(8, ok, detail)


def test_criterion_9_hard_gate():
    missing = [k for k in (3, 4, 5, 6, 7) if k not in HARD_GATE]
    ok = not missing and all(HARD_GATE[k] for k in (3, 4, 5, 6, 7))
    _report(9, ok, f"criteria 3-7 flags: {HARD_GATE} (all must pass)"
            + (f"; missing {missing}" if missing else ""))
