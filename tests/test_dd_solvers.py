"""Robin-Robin and Dirichlet-Neumann sweep behavior on the two-strip split."""
import numpy as np
import pytest

from robinlab import (DDParams, DDReport, Tridiagonal,
                      assemble_global_solution, build_grid,
                      build_subdomain_system, corollary_rate,
                      dirichlet_neumann_solve, error_norms,
                      measured_reduction_rate, reduction_spectrum,
                      robin_robin_solve)
from robinlab.experiments import manufactured_solution
from robinlab.grid_fem import global_poisson_system
from robinlab.spectral import sine_basis_matrix

U_EXACT, F_LOAD = manufactured_solution()


def zero_field(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def canonical_params(n, theta=3.0 / 7.0, **kw):
    return DDParams(gamma1=1.0, gamma2=128.0 * n, theta=theta, **kw)


def strip_pair(n, f=F_LOAD, rule="degree6"):
    grid = build_grid(n)
    left = build_subdomain_system(grid, f, "left", rule=rule)
    right = build_subdomain_system(grid, f, "right", rule=rule)
    return grid, left, right


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
    assert report.converged
    assert 13 <= report.iterations <= 15


def test_sweep_count_at_fine_mesh():
    # at n = 144 the roundoff floor of the sup-norm change sits just under
    # stop_tol, because the trace is fed back times gamma1 + gamma2 ~ 64/h;
    # a trace a few roundoff units noisier stalls the run for dozens of sweeps
    _, left, right = strip_pair(144)
    report = robin_robin_solve(left, right, canonical_params(144))
    assert report.converged
    assert report.iterations <= 16


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
    _, left, right = strip_pair(2)
    report = robin_robin_solve(left, right, canonical_params(2, max_iter=3))
    assert not report.converged
    assert report.iterations == 3


def test_bad_initial_trace_rejected():
    _, left, right = strip_pair(2)
    with pytest.raises(ValueError):
        robin_robin_solve(left, right, canonical_params(2), g1_init=np.ones(5))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf in the FFT
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_trace_stops_after_one_sweep(bad):
    grid, left, right = strip_pair(2)
    g1 = np.zeros(grid.n_interface)
    g1[0] = bad
    report = robin_robin_solve(left, right, canonical_params(2), g1_init=g1)
    assert report.iterations == 1
    assert not report.converged
    assert report.reduction_rate is None


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
        grid, left, right = strip_pair(n, f=zero_field, rule="midpoint")
        report = robin_robin_solve(left, right, canonical_params(n),
                                   g1_init=rng.standard_normal(grid.n_interface))
        M = report.interface_mass
        norms = np.array([np.sqrt(max(0.0, M.quadratic_form(e)))
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
        rate = measured_reduction_rate(report)
        assert rate <= corollary_rate(theta) + 0.01


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
    report = DDReport(iterations=6, interface_trace_history=geometric,
                      solution_u=np.zeros(1), solution_w=np.zeros(1),
                      reduction_rate=None, converged=True, interface_mass=mass)
    assert measured_reduction_rate(report) == pytest.approx(0.5, abs=1e-12)
    # an exactly converged tail leaves no usable ratios
    flat = np.array([[1.0], [0.5], [0.25], [0.25], [0.25]])
    report = DDReport(iterations=4, interface_trace_history=flat,
                      solution_u=np.zeros(1), solution_w=np.zeros(1),
                      reduction_rate=None, converged=True, interface_mass=mass)
    assert measured_reduction_rate(report) == 0.0
    short = DDReport(iterations=3, interface_trace_history=geometric[:4],
                     solution_u=np.zeros(1), solution_w=np.zeros(1),
                     reduction_rate=None, converged=True, interface_mass=mass)
    with pytest.raises(ValueError):
        measured_reduction_rate(short)


def test_converged_solution_solves_global_system():
    n = 3
    grid, left, right = strip_pair(n)
    report = robin_robin_solve(left, right, canonical_params(n))
    x = assemble_global_solution(grid, report.solution_u, report.solution_w)
    K, load = global_poisson_system(grid, F_LOAD)
    assert np.abs(K.matvec(x) - load).max() < 1e-10


def test_error_norms_zero_for_interpolant():
    grid = build_grid(3)
    m = grid.n_interface
    ix, iy = np.meshgrid(np.arange(1, m + 1), np.arange(1, m + 1), indexing="ij")
    u_I = U_EXACT(grid.coord(ix.ravel()), grid.coord(iy.ravel()))
    l2, h1 = error_norms(grid, u_I, U_EXACT)
    assert l2 < 1e-14
    assert h1 < 1e-13


def test_error_norms_converged_runs():
    for n, want_l2, want_h1 in ((2, 3.6535255736e-02, 2.5776747743e-01),
                                (10, 2.0146279844e-03, 1.3743205554e-02)):
        grid, left, right = strip_pair(n)
        report = robin_robin_solve(left, right, canonical_params(n))
        x = assemble_global_solution(grid, report.solution_u, report.solution_w)
        l2, h1 = error_norms(grid, x, U_EXACT)
        assert l2 == pytest.approx(want_l2, rel=1e-6)
        assert h1 == pytest.approx(want_h1, rel=1e-6)


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
    x_global = np.linalg.solve(K.to_dense(), load)
    with_flag = dirichlet_neumann_solve(left, right, DDParams(1.0, 1.0, 0.45),
                                        include_left_interface_load=True)
    x = assemble_global_solution(grid, with_flag.solution_u, with_flag.solution_w)
    assert np.abs(x - x_global).max() < 1e-10
    # as written, the Neumann step drops the left interface load and the
    # limit misses the global solution by an O(1) interface defect
    without = dirichlet_neumann_solve(left, right, DDParams(1.0, 1.0, 0.45))
    x0 = assemble_global_solution(grid, without.solution_u, without.solution_w)
    assert np.abs(x0 - x_global).max() > 1e-3


def test_dirichlet_neumann_bad_initial_trace():
    _, left, right = strip_pair(2)
    with pytest.raises(ValueError):
        dirichlet_neumann_solve(left, right, DDParams(1.0, 1.0, 0.45),
                                w_init=np.ones(7))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf in the FFT
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dirichlet_neumann_non_finite_trace_stops(bad):
    grid, left, right = strip_pair(2)
    w0 = np.zeros(grid.n_interface)
    w0[0] = bad
    report = dirichlet_neumann_solve(left, right, DDParams(1.0, 1.0, 0.45), w_init=w0)
    assert report.iterations == 1
    assert not report.converged
    assert report.reduction_rate is None


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
