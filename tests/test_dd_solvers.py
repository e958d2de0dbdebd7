"""Robin-Robin and Dirichlet-Neumann sweep behavior on the two-strip split."""
import warnings

import numpy as np
import pytest

from robinlab import (DDParams, Tridiagonal,
                      assemble_global_solution, build_grid,
                      build_subdomain_system, corollary_rate,
                      dirichlet_neumann_solve, error_norms,
                      measured_reduction_rate, reduction_spectrum,
                      robin_robin_solve, strip_symbol)
from robinlab import dd_solvers, grid_fem
from robinlab.dd_solvers import robin_robin_physical_solve
from robinlab.experiments import manufactured_solution
from robinlab.grid_fem import StripSolver
from robinlab.operator_analysis import offcenter_columns
from robinlab.spectral import sine_basis_matrix
from dn_oracle import dirichlet_neumann_oracle, per_row_reduction_rate
from symbol_oracle import mp_load_trace_modes
from p1_oracle import assemble_p1_forms, global_poisson_system, global_triangles

U_EXACT, F_LOAD = manufactured_solution()


def zero_field(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def canonical_params(n, theta=3.0 / 7.0, **kw):
    return DDParams(gamma1=1.0, gamma2=128.0 * n, theta=theta, **kw)


def strip_pair(n, f=F_LOAD):
    grid = build_grid(n)
    left = build_subdomain_system(grid, f, "left")
    right = build_subdomain_system(grid, f, "right")
    return grid, left, right


def both_sweeps(left, right, **kw):
    """Reports of the Robin sweep at the canonical weights and of the
    Dirichlet-Neumann sweep at theta = 0.45, with stopping controls kw."""
    return [robin_robin_solve(left, right, canonical_params(left.grid.n, **kw)),
            dirichlet_neumann_solve(left, right, DDParams(1.0, 1.0, 0.45, **kw))]


def test_params_validation():
    with pytest.raises(ValueError):
        DDParams(gamma1=0.0, gamma2=1.0, theta=0.4)
    with pytest.raises(ValueError):
        DDParams(gamma1=1.0, gamma2=-2.0, theta=0.4)
    with pytest.raises(ValueError):
        DDParams(gamma1=1.0, gamma2=1.0, theta=1.0)
    with pytest.raises(ValueError):
        DDParams(gamma1=1.0, gamma2=1.0, theta=-0.1)
    with pytest.raises(ValueError):
        DDParams(gamma1=1.0, gamma2=1.0, theta=0.4, stop_tol=0.0)
    with pytest.raises(ValueError):
        DDParams(gamma1=1.0, gamma2=1.0, theta=0.4, max_iter=0)
    with pytest.raises(ValueError, match="integer"):
        DDParams(gamma1=1.0, gamma2=1.0, theta=0.4, max_iter=2.5)
    # an integral float is taken as the integer it is
    assert DDParams(gamma1=1.0, gamma2=1.0, theta=0.4, max_iter=2.0).max_iter == 2
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            DDParams(gamma1=bad, gamma2=1.0, theta=0.4)
        with pytest.raises(ValueError, match="finite"):
            DDParams(gamma1=1.0, gamma2=bad, theta=0.4)
        with pytest.raises(ValueError, match="finite"):
            DDParams(gamma1=1.0, gamma2=1.0, theta=0.4, stop_tol=bad)
        with pytest.raises(ValueError):
            DDParams(gamma1=1.0, gamma2=1.0, theta=bad)


def test_zero_data_converges_immediately():
    grid, left, right = strip_pair(2, f=zero_field)
    report = robin_robin_solve(left, right, canonical_params(2))
    assert report.iterations == 1
    assert report.converged
    assert report.interface_trace_history.shape == (2, grid.n_interface)
    assert np.abs(report.interface_trace_history).max() == 0.0
    assert np.abs(report.solution_u).max() == 0.0
    assert np.abs(report.solution_w).max() == 0.0


def test_iteration_counts_match_reference_band():
    # grid-independent counts: 13 at the coarsest grid, 14 from midrange on
    _, left, right = strip_pair(2)
    assert robin_robin_solve(left, right, canonical_params(2)).iterations == 13
    _, left, right = strip_pair(26)
    report = robin_robin_solve(left, right, canonical_params(26))
    assert report.iterations == 14
    assert report.converged and report.stop_reason == "tol"
    assert 13 <= report.iterations <= 15


def test_sweep_count_at_fine_mesh():
    # at n = 144 the roundoff floor of the sup-norm change sits just under
    # stop_tol, because the trace is fed back times gamma1 + gamma2 ~ 64/h;
    # a trace a few roundoff units noisier stalls the run for dozens of sweeps
    _, left, right = strip_pair(144)
    report = robin_robin_solve(left, right, canonical_params(144))
    assert report.converged
    assert report.iterations <= 16


@pytest.mark.parametrize("n", [2, 6, 26, 36, 72])
def test_robin_mode_sweep_matches_physical_loop(n):
    # the sine-mode sweep against the loop that runs both strip solves in
    # every sweep, on the symmetric and the off-center split
    grid = build_grid(n)
    params = canonical_params(n)
    for k_left, k_right in ((n, n), offcenter_columns(grid)):
        left = build_subdomain_system(grid, F_LOAD, "left", n_cols=k_left)
        right = build_subdomain_system(grid, F_LOAD, "right", n_cols=k_right)
        got = robin_robin_solve(left, right, params)
        want = robin_robin_physical_solve(left, right, params)
        assert got.converged and want.converged
        assert got.iterations == want.iterations
        for x, ref in ((got.solution_u, want.solution_u), (got.solution_w, want.solution_w)):
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_history_length_and_rate_presence():
    _, left, right = strip_pair(3)
    report = robin_robin_solve(left, right, canonical_params(3))
    assert report.interface_trace_history.shape[0] == report.iterations + 1
    assert report.reduction_rate is not None
    assert 0.0 <= report.reduction_rate < 1.0
    # loose tolerance stops before a rate is measurable
    quick = robin_robin_solve(left, right, canonical_params(3, stop_tol=10.0))
    assert quick.iterations < 4
    assert quick.reduction_rate is None


def test_non_convergence_reported_not_raised():
    # both sweeps need more than 3 sweeps here (13 each)
    _, left, right = strip_pair(2)
    for report in both_sweeps(left, right, max_iter=3):
        assert not report.converged and report.stop_reason == "cap"
        assert report.iterations == 3


def per_sweep_loop(sweep, state, to_trace, params):
    """The sweep driver as it ran before it ran blocks: one sweep, one
    transform of the state's change and one of the new state at a time.
    Returns the states, the trace history and the stop reason."""
    states, history, reason = [state], [to_trace(state)], "cap"
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(params.max_iter):
            new = sweep(state)
            delta = np.abs(to_trace(new - state)).max()
            states.append(new)
            history.append(to_trace(new))
            state = new
            if not np.isfinite(delta):
                reason = "non_finite"
                break
            if delta < params.stop_tol:
                reason = "tol"
                break
    return np.array(states), np.array(history), reason


def assert_same_run(got, want):
    """A report against per_sweep_loop's run: the same stop, the same
    states bit for bit, and each history row within 1e-14 of its largest
    entry (a block's transform may round differently from one row's)."""
    states, history, reason = want
    assert (got.iterations, got.converged, got.stop_reason) == \
        (len(states) - 1, reason == "tol", reason)
    np.testing.assert_array_equal(got.states, states)
    H = got.interface_trace_history
    finite = np.isfinite(history).all(axis=1)
    np.testing.assert_array_equal(np.isfinite(H).all(axis=1), finite)
    H, R = H[finite], history[finite]
    assert np.all(np.abs(H - R).max(axis=1) <= 1e-14 * np.abs(R).max(axis=1))


@pytest.mark.parametrize("n", [1, 2, 18, 36])
def test_block_driver_matches_per_sweep_loop(n, monkeypatch):
    # both mode sweeps against the per-sweep loop, at max_iter on and next
    # to the block edges (blocks of 8, 16, 32, ... sweeps end at 8, 24, ...)
    # and at the theta = 0 cap of the Dirichlet-Neumann sweep
    runs = []
    mode_iterate = dd_solvers._mode_iterate

    def keep_args(alpha, beta, state, params, mass, strips):
        runs.append((alpha, beta, state, params))
        return mode_iterate(alpha, beta, state, params, mass, strips)

    monkeypatch.setattr(dd_solvers, "_mode_iterate", keep_args)

    def check(report):
        alpha, beta, state, params = runs.pop()
        V = sine_basis_matrix(len(state))
        assert_same_run(report, per_sweep_loop(
            lambda c: params.theta * c + (1.0 - params.theta) * (alpha - beta * c),
            state, lambda c: V @ c, params))
        return report

    _, left, right = strip_pair(n)
    capped = 0
    for theta in (0.0, 0.3, 3.0 / 7.0, 0.75):
        for max_iter in (1, 7, 8, 9, 24, 25, 2000):
            check(robin_robin_solve(left, right, canonical_params(n, theta, max_iter=max_iter)))
            report = check(dirichlet_neumann_solve(
                left, right, DDParams(1.0, 1.0, theta, max_iter=max_iter)))
            capped += report.stop_reason == "cap" and max_iter == 2000
    assert capped == 1  # theta = 0
    if n != 2:
        return
    # non-finite runs: overflowing weights stop the Robin sweep at once,
    # and on the (1, 3) split the undamped Dirichlet-Neumann sweep grows
    # until it overflows inside its last block
    report = check(robin_robin_solve(left, right, DDParams(1e308, 1e308, 3.0 / 7.0)))
    assert (report.stop_reason, report.iterations) == ("non_finite", 1)
    grid = build_grid(2)
    left = build_subdomain_system(grid, F_LOAD, "left", n_cols=1)
    right = build_subdomain_system(grid, F_LOAD, "right", n_cols=3)
    report = check(dirichlet_neumann_solve(left, right, DDParams(1.0, 1.0, 0.0)))
    assert report.stop_reason == "non_finite" and 1016 < report.iterations < 2000


def test_physical_loop_matches_per_sweep_loop():
    # the physical loop runs one sweep per block; at gamma2 = 1e306/h it
    # overflows after two sweeps
    _, left, right = strip_pair(2)
    for params in (canonical_params(2), canonical_params(2, max_iter=5),
                   DDParams(1.0, 1e306 * 4, 3.0 / 7.0)):
        solves = dd_solvers._robin_solves(left, right, params)
        report = robin_robin_physical_solve(left, right, params)
        assert_same_run(report, per_sweep_loop(lambda g: solves(g)[2], np.zeros(3),
                                               lambda g: g, params))
    assert (report.stop_reason, report.iterations) == ("non_finite", 2)


def test_bad_initial_trace_rejected():
    _, left, right = strip_pair(2)
    with pytest.raises(ValueError):
        robin_robin_solve(left, right, canonical_params(2), g1_init=np.ones(5))


@pytest.mark.parametrize("solve", [robin_robin_solve, dirichlet_neumann_solve])
@pytest.mark.parametrize("left_n, left_cols, right_n, right_cols", [
    (2, 2, 3, 3),  # strips of two grids: 3 and 5 interface nodes
    (3, 2, 3, 2),  # one grid, but 2 + 2 columns leave a gap in its 6
])
def test_strips_that_do_not_split_one_grid_rejected(solve, left_n, left_cols, right_n, right_cols):
    left = build_subdomain_system(build_grid(left_n), F_LOAD, "left", n_cols=left_cols)
    right = build_subdomain_system(build_grid(right_n), F_LOAD, "right", n_cols=right_cols)
    with pytest.raises(ValueError, match="widths summing to 2n"):
        solve(left, right, DDParams(1.0, 1.0, 0.45))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_trace_stops_after_one_sweep(bad):
    # a non-finite strip load makes the first sweep's trace non-finite;
    # each sweep gets fresh strips, so it forms their load modes itself
    for solve, params in ((robin_robin_solve, canonical_params(2)),
                          (dirichlet_neumann_solve, DDParams(1.0, 1.0, 0.45))):
        _, left, right = strip_pair(2)
        left.load[0] = bad
        report = solve(left, right, params)
        assert report.iterations == 1
        assert not report.converged and report.stop_reason == "non_finite"
        assert report.reduction_rate is None
        # the strips, recovered on first read under the sweeps' errstate,
        # are non-finite too, and reading them warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(report.solution_u).all()
            assert not np.isfinite(report.solution_w).all()


def load_mode_strips(n):
    # a symmetric-split strip and an off-center one of about 2n/3 columns
    grid = build_grid(n)
    return grid, [build_subdomain_system(grid, F_LOAD, side, n_cols=k)
                  for side, k in (("left", n), ("right", offcenter_columns(grid)[0]))]


@pytest.mark.parametrize("n", [1, 2, 5, 12, 36])
def test_load_modes_match_40_digit_trace(n):
    # the closed form over sigma + gamma mu against a 40-digit elimination
    # of each mode system, at the weights the tables use; at n = 36 it is
    # 1.3e-15 off, where the strip solve's trace is 3.2e-15 off
    grid, strips = load_mode_strips(n)
    m = grid.n_interface
    gammas = (0.0, 1.0, 128.0 * n)
    for strip in strips:
        sigma, mu = strip_symbol(m, strip.n_cols), strip.interface_mass.eigenvalues()
        want = mp_load_trace_modes(strip.load, m, strip.n_cols, grid.h, gammas)
        for gamma in gammas:
            got = strip.load_modes / (sigma + gamma * mu)
            assert np.abs(got - want[gamma]).max() <= 2e-15 * np.abs(want[gamma]).max()


@pytest.mark.parametrize("n", [1, 2, 5, 36, 144, 576])
def test_load_modes_match_strip_solve(n):
    # the closed form over sigma + gamma mu against the sine coefficients
    # of the strip solve's trace: 1.8e-16 to 1.1e-13 (relative to the
    # largest coefficient) from n = 1 to 576, most of it the strip solve's
    # own roundoff (test_load_modes_match_40_digit_trace)
    grid, strips = load_mode_strips(n)
    m = grid.n_interface
    V = sine_basis_matrix(m)
    for strip in strips:
        sigma, mu = strip_symbol(m, strip.n_cols), strip.interface_mass.eigenvalues()
        for gamma in (0.0, 1.0, 128.0 * n):
            want = V @ strip.solver(gamma).solve(strip.load)[-m:]
            got = strip.load_modes / (sigma + gamma * mu)
            assert np.abs(got - want).max() <= 3e-16 * n * np.abs(want).max()


def test_load_modes_formed_once_per_strip(monkeypatch):
    # both sweeps, at every weight, read one read-only array per strip,
    # formed on first read, and solve no strip
    formed = []
    load_modes = grid_fem.strip_load_modes
    monkeypatch.setattr(grid_fem, "strip_load_modes",
                        lambda *args: formed.append(args) or load_modes(*args))
    n = 6
    _, left, right = strip_pair(n)
    modes = {}
    for params in (canonical_params(n), canonical_params(n, theta=0.3),
                   DDParams(2.0, 5.0, 0.4)):
        robin_robin_solve(left, right, params)
        dirichlet_neumann_solve(left, right, params)
        for strip in (left, right):
            assert modes.setdefault(id(strip), strip.load_modes) is strip.load_modes
    assert len(formed) == 2
    assert not left.load_modes.flags.writeable and not right.load_modes.flags.writeable
    assert left._solvers == {} and right._solvers == {}


def test_converged_trace_is_fixed_point():
    for n in (1, 2, 5):
        _, left, right = strip_pair(n)
        report = robin_robin_solve(left, right, canonical_params(n))
        g_star = report.interface_trace_history[-1]
        one_sweep = canonical_params(n, stop_tol=1e-30, max_iter=1)
        again = robin_robin_solve(left, right, one_sweep, g1_init=g_star)
        assert np.abs(again.interface_trace_history[1] - g_star).max() < 1e-12


def test_error_propagation_matches_mode_formula():
    # with f = 0 one sweep is linear in g1 and acts as
    # Phi diag(theta + (1-theta) c_j) Phi
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        grid, left, right = strip_pair(n, f=zero_field)
        m = grid.n_interface
        params = canonical_params(n)
        one_sweep = canonical_params(n, stop_tol=1e-30, max_iter=1)
        vals, _ = reduction_spectrum(n, params)
        phi = sine_basis_matrix(m)
        sweep_matrix = phi @ np.diag(vals) @ phi
        for _ in range(20):
            E = rng.standard_normal((m, m))
            got = np.empty_like(E)
            for c in range(m):
                rep = robin_robin_solve(left, right, one_sweep, g1_init=E[:, c])
                got[:, c] = rep.interface_trace_history[1]
            assert np.abs(got - sweep_matrix @ E).max() < 1e-9


def test_contraction_every_iteration_up_to_n64():
    # the interface-mass norm of the error must shrink by at least 1/7
    # on every single sweep, not just on average
    rng = np.random.default_rng(3)
    bound = 1.0 / 7.0 + 1e-9
    for n in range(1, 65):
        grid, left, right = strip_pair(n, f=zero_field)
        report = robin_robin_solve(left, right, canonical_params(n),
                                   g1_init=rng.standard_normal(grid.n_interface))
        M = left.interface_mass
        norms = np.array([np.sqrt(max(0.0, e @ M.matvec(e)))
                          for e in report.interface_trace_history])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = norms[1:] / norms[:-1]
        ratios = ratios[np.isfinite(ratios)]
        assert report.converged
        assert ratios.max() <= bound


def test_measured_rate_within_corollary_envelope():
    rng = np.random.default_rng(5)
    grid, left, right = strip_pair(4, f=zero_field)
    g0 = rng.standard_normal(grid.n_interface)
    for i in range(7):
        theta = i / 7.0
        report = robin_robin_solve(left, right, canonical_params(4, theta=theta),
                                   g1_init=g0)
        assert report.iterations >= 4
        assert report.reduction_rate <= corollary_rate(theta) + 0.01


def test_measured_rates_on_manufactured_problem():
    _, left, right = strip_pair(10)
    report = robin_robin_solve(left, right, canonical_params(10))
    assert report.reduction_rate == pytest.approx(0.116, abs=0.01)
    _, left, right = strip_pair(2)
    report = robin_robin_solve(left, right, canonical_params(2, theta=0.0))
    assert report.reduction_rate == pytest.approx(0.764, abs=0.02)


def test_measured_rate_synthetic_histories():
    mass = Tridiagonal(1, 1.0 / 3.0, 0.0)
    geometric = np.array([[0.5 ** m] for m in range(7)])
    assert measured_reduction_rate(geometric, mass) == pytest.approx(0.5, abs=1e-12)
    # an exactly converged tail leaves no usable ratios
    flat = np.array([[1.0], [0.5], [0.25], [0.25], [0.25]])
    assert measured_reduction_rate(flat, mass) == 0.0
    # three sweeps (four traces) are too few
    with pytest.raises(ValueError):
        measured_reduction_rate(geometric[:4], mass)


def test_measured_rate_non_finite_tail_is_nan():
    mass = Tridiagonal(1, 1.0 / 3.0, 0.0)
    for bad in (np.nan, np.inf):
        history = np.array([[1.0], [0.5], [0.25], [0.125], [bad]])
        with np.errstate(invalid="ignore"):
            assert np.isnan(measured_reduction_rate(history, mass))


def test_converged_solution_solves_global_system():
    n = 3
    grid, left, right = strip_pair(n)
    report = robin_robin_solve(left, right, canonical_params(n))
    x = assemble_global_solution(grid, report.solution_u, report.solution_w)
    K, load = global_poisson_system(grid, F_LOAD)
    assert np.abs(K @ x - load).max() < 1e-10


def test_error_norms_zero_for_interpolant():
    grid = build_grid(3)
    m = grid.n_interface
    ix, iy = np.meshgrid(np.arange(1, m + 1), np.arange(1, m + 1), indexing="ij")
    u_I = U_EXACT(grid.coord(ix.ravel()), grid.coord(iy.ravel()))
    l2, h1 = error_norms(grid, u_I, U_EXACT)
    assert l2 < 1e-14
    assert h1 < 1e-13


def test_error_norms_bit_identical_to_full_lattice_field():
    # exact evaluated on the two coordinate axes gives the same bits as on
    # every node of the m x m lattice
    def smooth(x, y):
        return np.exp(x) * np.sin(3.0 * y) + np.cos(x * y)

    def on_lattice(exact):
        def full(x, y):
            x, y = np.broadcast_arrays(x, y)
            return exact(x.ravel(), y.ravel()).reshape(x.shape)
        return full

    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 36):
        grid = build_grid(n)
        x = grid.coord(np.arange(1, 2 * n))
        for exact in (U_EXACT, smooth):
            # a small error, so that a last-bit change of the interpolant shows
            u_h = on_lattice(exact)(x[:, None], x[None, :]).ravel()
            u_h += 1e-6 * rng.standard_normal(u_h.shape)
            assert error_norms(grid, u_h, exact) == error_norms(grid, u_h, on_lattice(exact))


def test_error_norms_non_finite_input_gives_nan():
    # a diverged run must not read as an exact one
    grid = build_grid(2)
    u_h = np.zeros(grid.n_interface ** 2)
    u_h[4] = np.nan
    assert all(np.isnan(error_norms(grid, u_h, U_EXACT)))
    # an infinite entry, or finite entries whose forms overflow, give nan
    # too, where np.maximum(form, 0) would read an H1 form of -inf as 0
    u_h[4] = np.inf
    assert all(np.isnan(error_norms(grid, u_h, U_EXACT)))
    assert all(np.isnan(error_norms(grid, np.full_like(u_h, 1e300), U_EXACT)))


def test_error_norms_converged_runs():
    for n, want_l2, want_h1 in ((2, 3.6535255736e-02, 2.5776747743e-01),
                                (10, 2.0146279844e-03, 1.3743205554e-02)):
        grid, left, right = strip_pair(n)
        report = robin_robin_solve(left, right, canonical_params(n))
        x = assemble_global_solution(grid, report.solution_u, report.solution_w)
        l2, h1 = error_norms(grid, x, U_EXACT)
        assert l2 == pytest.approx(want_l2, rel=1e-6)
        assert h1 == pytest.approx(want_h1, rel=1e-6)


def test_error_norms_match_assembled_forms():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        grid = build_grid(n)
        m = grid.n_interface
        mass, stiff = assemble_p1_forms(grid, *global_triangles(grid), m * m)
        e = rng.standard_normal(m * m)
        l2, h1 = error_norms(grid, -e, zero_field)
        assert l2 == pytest.approx(np.sqrt(e @ (mass @ e)), rel=1e-13)
        assert h1 == pytest.approx(np.sqrt(e @ (stiff @ e)), rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 24, 36])
def test_dirichlet_neumann_matches_physical_oracle(n):
    grid = build_grid(n)
    for split in ("half", "third"):
        k_left, k_right = (n, n) if split == "half" else offcenter_columns(grid)
        left = build_subdomain_system(grid, F_LOAD, "left", n_cols=k_left)
        right = build_subdomain_system(grid, F_LOAD, "right", n_cols=k_right)
        for theta in (0.0, 0.25, 0.45, 0.5, 0.75):
            params = DDParams(1.0, 1.0, theta, max_iter=300)
            got = dirichlet_neumann_solve(left, right, params)
            want = dirichlet_neumann_oracle(left, right, params,
                                            include_left_interface_load=True)
            assert got.iterations == want.iterations
            assert got.converged == want.converged
            H, R = got.interface_trace_history, want.interface_trace_history
            tol = np.full(len(R), 1e-12)
            if split == "third" and theta == 0.0:
                # the iteration grows like the largest sigma_1/sigma_2,
                # whose roundoff (3.7e-14 relative at n = 36) each
                # sweep compounds
                tol += 1e-13 * np.arange(len(R))
            scale = np.maximum.accumulate(np.abs(R).max(axis=1))
            assert np.all(np.abs(H - R).max(axis=1) <= tol * scale)
            if want.converged:
                for x, ref in ((got.solution_u, want.solution_u),
                               (got.solution_w, want.solution_w)):
                    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
            if want.reduction_rate is None:
                assert got.reduction_rate is None
                continue
            assert got.reduction_rate == pytest.approx(
                per_row_reduction_rate(H, left.interface_mass), rel=1e-12)
            # a converged tail ends with steps near stop_tol, where the
            # histories' roundoff is 1e-4 of a step
            assert got.reduction_rate == pytest.approx(want.reduction_rate,
                                                       rel=2e-3)


def test_dirichlet_neumann_zero_data():
    grid, left, right = strip_pair(2, f=zero_field)
    report = dirichlet_neumann_solve(left, right, DDParams(1.0, 1.0, 0.45))
    assert report.converged
    assert report.iterations == 1
    assert np.abs(report.interface_trace_history).max() == 0.0


def test_dirichlet_neumann_counts_grid_independent():
    thetas = (0.25, 0.35, 0.4, 0.45, 0.5, 0.55, 0.75)
    frozen = [39, 23, 17, 13, 2, 12, 37]
    for n in (2, 6):
        _, left, right = strip_pair(n)
        counts = [dirichlet_neumann_solve(left, right, DDParams(1.0, 1.0, th)).iterations
                  for th in thetas]
        assert counts == frozen
    # theta = 0.35 lands one sweep away from the reference count 22
    assert abs(frozen[1] - 22) <= 2


def test_dirichlet_neumann_no_damping_never_converges():
    # the error operator at theta = 0 is -I: the trace flips sign forever
    _, left, right = strip_pair(2)
    report = dirichlet_neumann_solve(left, right,
                                     DDParams(1.0, 1.0, 0.0, max_iter=50))
    assert not report.converged
    assert report.iterations == 50


def test_dirichlet_neumann_balanced_damping_two_sweeps():
    _, left, right = strip_pair(4)
    report = dirichlet_neumann_solve(left, right, DDParams(1.0, 1.0, 0.5))
    assert report.converged
    assert report.iterations == 2


def test_dirichlet_neumann_interface_load_flag():
    n = 2
    grid, left, right = strip_pair(n)
    K, load = global_poisson_system(grid, F_LOAD)
    x_global = np.linalg.solve(K.toarray(), load)
    params = DDParams(1.0, 1.0, 0.45)
    report = dirichlet_neumann_solve(left, right, params)
    x = assemble_global_solution(grid, report.solution_u, report.solution_w)
    assert np.abs(x - x_global).max() < 1e-10
    # read literally, the Neumann step drops the left interface load and
    # the limit misses the global solution by an O(h) interface defect
    literal = dirichlet_neumann_oracle(left, right, params,
                                       include_left_interface_load=False)
    x0 = assemble_global_solution(grid, literal.solution_u, literal.solution_w)
    assert np.abs(x0 - x_global).max() > 1e-3


def whole_square_solution(left, right):
    """The discrete solution on the whole square, by one fast solve.

    The square's interior lattice is one strip of 2n - 1 five-point
    columns with zero Dirichlet values past its last column.  Its load is
    the left strip's interior columns, the sum of both strips' interface
    loads, and the right strip's interior columns mirrored back in x.
    """
    m = left.grid.n_interface
    load = np.concatenate([left.load[:-m], left.load[-m:] + right.load[-m:],
                           right.load[:-m].reshape(-1, m)[::-1].ravel()])
    return StripSolver(2 * left.grid.n - 1, Tridiagonal(m, 4.0, -1.0)).solve(load)


def strips_to_square(m, u, w):
    """assemble_global_solution for strips of any widths summing to 2n."""
    return np.concatenate([u[:-m], w.reshape(-1, m)[::-1].ravel()])


def limit_gap_bound(report, rho, gain, x_star):
    """Sup-norm bound on the gap between a converged sweep's strip
    solutions and the discrete solution x_star.

    Both sweeps are per-mode affine maps with factors of modulus at most
    rho in the orthonormal sine basis of the interface, and recover their
    strip solutions from the state history[-2] that the last sweep started
    from.  Its error e obeys |e|_2 <= |d|_2 / (1 - rho) with d the last
    step, and |d|_2 < sqrt(m) stop_tol by the stopping rule.  Each strip's
    interface error is at most gain |e|_2 (mode by mode), and the discrete
    maximum principle carries it into the strip's interior.  The last term
    allows for the roundoff of the strip and whole-square solves.
    """
    d = np.diff(report.interface_trace_history[-2:], axis=0)
    assert report.converged
    assert np.abs(d).max() < DDParams.stop_tol
    e = np.sqrt(len(d[0])) * DDParams.stop_tol / (1.0 - rho)
    return gain * e + 1e-12 * np.abs(x_star).max()


@pytest.mark.parametrize("n", [36, 72, 144])
def test_sweep_limits_are_the_whole_square_solution(n):
    grid, left, right = strip_pair(n)
    m = grid.n_interface
    x_star = whole_square_solution(left, right)
    # the Robin sweep at the table1 weights; a Robin solve maps a datum
    # error e_j to an interface error of at most e_j / gamma1 on either strip
    params = canonical_params(n)
    report = robin_robin_solve(left, right, params)
    x = assemble_global_solution(grid, report.solution_u, report.solution_w)
    rho = reduction_spectrum(n, params)[1]
    assert np.abs(x - x_star).max() <= limit_gap_bound(report, rho, 1.0 / params.gamma1, x_star)
    for k_left, k_right in ((n, n), offcenter_columns(grid)):
        left = build_subdomain_system(grid, F_LOAD, "left", n_cols=k_left)
        right = build_subdomain_system(grid, F_LOAD, "right", n_cols=k_right)
        # the strips' interface loads sum to the square's up to roundoff
        assert np.abs(whole_square_solution(left, right) - x_star).max() <= 1e-14 * np.abs(x_star).max()
        # the Dirichlet-Neumann sweep: a trace error e leaves e on the left
        # strip and -(sigma_1 / sigma_2) e, mode by mode, on the right
        params = DDParams(1.0, 1.0, 0.45)
        beta = strip_symbol(m, k_left) / strip_symbol(m, k_right)
        rho = np.abs(params.theta - (1.0 - params.theta) * beta).max()
        report = dirichlet_neumann_solve(left, right, params)
        x = strips_to_square(m, report.solution_u, report.solution_w)
        assert np.abs(x - x_star).max() <= limit_gap_bound(report, rho, max(1.0, beta.max()), x_star)
        # read literally, the Neumann step drops the left interface load;
        # its limit misses the solution by O(h)
        literal = dirichlet_neumann_oracle(left, right, params,
                                           include_left_interface_load=False)
        x0 = strips_to_square(m, literal.solution_u, literal.solution_w)
        assert np.abs(x0 - x_star).max() > 0.25 * grid.h


def test_assemble_global_solution_layout():
    grid = build_grid(2)
    u = np.arange(1.0, 7.0)
    w = np.arange(10.0, 16.0)
    x = assemble_global_solution(grid, u, w)
    # left strip inner column, shared interface column from the right
    # solve, then the mirrored right inner column
    assert np.array_equal(x, [1.0, 2.0, 3.0, 13.0, 14.0, 15.0, 10.0, 11.0, 12.0])
    with pytest.raises(ValueError):
        assemble_global_solution(grid, u[:5], w)
