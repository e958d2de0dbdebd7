"""Fast strip solver against SuperLU on the assembled strip matrices."""
import numpy as np
import pytest
import scipy.sparse.linalg

from robinlab import (DDParams, assemble_global_solution, build_grid,
                      build_subdomain_system, dirichlet_neumann_solve)
from robinlab.experiments import manufactured_solution
from robinlab.grid_fem import StripSolver, Tridiagonal, global_poisson_system
from robinlab.operator_analysis import offcenter_columns

_, F_LOAD = manufactured_solution()
MESHES = list(range(1, 17)) + [24, 32, 48, 64]


def zero_field(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def strips(grid):
    """(side, column count) of the symmetric split and both off-center strips."""
    k_left, k_right = offcenter_columns(grid)
    return (("left", grid.n), ("left", k_left), ("right", k_right))


def oracle_cases(system):
    """(fast solver, assembled matrix) for the Neumann stiffness, both Robin
    weights and the Dirichlet interior block."""
    m = system.grid.n_interface
    stiffness = system.stiffness.to_scipy_csc()
    cases = [(system.solver(0.0), stiffness)]
    for gamma in (1.0, 64.0 / system.grid.h):
        cases.append((system.solver(gamma), system.robin_matrix(gamma).to_scipy_csc()))
    interior = (system.n_cols - 1) * m
    cases.append((system.dirichlet_solver(), stiffness[:interior, :interior]))
    return cases


@pytest.mark.parametrize("n", MESHES)
def test_strip_solver_matches_spsolve(n):
    grid = build_grid(n)
    rng = np.random.default_rng(n)
    for side, k in strips(grid):
        system = build_subdomain_system(grid, zero_field, side, n_cols=k)
        for solver, A in oracle_cases(system):
            b = rng.standard_normal(A.shape[0])
            x = solver.solve(b)
            assert x.shape == b.shape
            if A.shape[0] == 0:  # the Dirichlet interior of a one-column strip
                continue
            ref = scipy.sparse.linalg.spsolve(A.tocsc(), b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [48, 64])
def test_strip_solver_accuracy_on_smooth_load(n):
    # roundoff that repeats in every row of the constant-coefficient mode
    # systems adds up in the smooth low modes, which the refinement step
    # removes; without it these errors reach 4e-14 (n = 48) and 1.2e-13
    # (n = 64) of the solution, while SuperLU stays near 1e-15
    grid = build_grid(n)
    system = build_subdomain_system(grid, F_LOAD)
    for solver, A in oracle_cases(system)[:3]:
        lu = scipy.sparse.linalg.splu(A.tocsc())
        ref = lu.solve(system.load)
        ref += lu.solve(system.load - A @ ref)
        x = solver.solve(system.load)
        assert np.abs(x - ref).max() <= 2e-14 * np.abs(ref).max()


def test_dirichlet_neumann_with_empty_interior():
    # n = 1: one interface unknown and no left interior column
    grid = build_grid(1)
    left = build_subdomain_system(grid, F_LOAD, "left")
    right = build_subdomain_system(grid, F_LOAD, "right")
    assert left.dirichlet_solver().solve(np.zeros(0)).shape == (0,)
    report = dirichlet_neumann_solve(left, right, DDParams(1.0, 1.0, 0.45),
                                     include_left_interface_load=True)
    assert report.converged
    K, load = global_poisson_system(grid, F_LOAD)
    x_global = scipy.sparse.linalg.spsolve(K.to_scipy_csc(), load)
    x = assemble_global_solution(grid, report.solution_u, report.solution_w)
    assert np.abs(x - x_global).max() < 1e-10  # stop_tol 1e-11 on the trace


def test_strip_solver_input_checks():
    system = build_subdomain_system(build_grid(2), zero_field)
    with pytest.raises(ValueError):
        system.solver(0.0).solve(np.ones(5))
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            system.solver(bad)
    with pytest.raises(ValueError):
        StripSolver(-1, Tridiagonal(3, 4.0, -1.0))
