"""Fast strip solver against SuperLU on the assembled strip matrices."""
import numpy as np
import pytest
import scipy.sparse.linalg

from dense_oracle import dtn_schur
from robinlab import (DDParams, assemble_global_solution, build_grid,
                      build_subdomain_system, dirichlet_neumann_solve)
from robinlab.experiments import manufactured_solution
from robinlab.grid_fem import StripSolver, offcenter_columns
from robinlab.spectral import Tridiagonal, sine_basis_matrix, strip_symbol
from p1_oracle import global_poisson_system
from robin_oracle import add_interface_tridiagonal, strip_stiffness
from symbol_oracle import interface_symbol

_, F_LOAD = manufactured_solution()
MESHES = list(range(1, 17)) + [24, 32, 48, 64]


def zero_field(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def strips(grid):
    """(side, column count) of the symmetric split and both off-center strips."""
    k_left, k_right = offcenter_columns(grid)
    return (("left", grid.n), ("left", k_left), ("right", k_right))


def oracle_cases(system):
    """(fast solver, assembled matrix) for the Neumann stiffness and both
    Robin weights."""
    stiffness = strip_stiffness(system.grid, system.n_cols)
    cases = [(system.solver(0.0), stiffness)]
    for gamma in (1.0, 64.0 / system.grid.h):
        cases.append((system.solver(gamma),
                      add_interface_tridiagonal(stiffness, system.interface_mass, gamma)))
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
    for solver, A in oracle_cases(system):
        lu = scipy.sparse.linalg.splu(A.tocsc())
        ref = lu.solve(system.load)
        ref += lu.solve(system.load - A @ ref)
        x = solver.solve(system.load)
        assert np.abs(x - ref).max() <= 2e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n", list(range(1, 17)) + [24])
def test_interface_symbol_diagonalizes_schur(n):
    # the closed-form symbol against the dense Schur complement, on the
    # symmetric split and on both off-center strips
    grid = build_grid(n)
    V = sine_basis_matrix(grid.n_interface)
    for side, k in strips(grid):
        system = build_subdomain_system(grid, zero_field, side, n_cols=k)
        sigma = strip_symbol(grid.n_interface, k)
        # undo dtn_schur's congruence by the interface mass's Cholesky factor
        L = np.linalg.cholesky(system.interface_mass.to_dense())
        D = V @ L @ dtn_schur(system).matrix @ L.T @ V
        assert np.abs(np.diag(D) / sigma - 1.0).max() <= 1e-13
        assert np.abs(D - np.diag(np.diag(D))).max() <= 1e-13 * sigma.max()


@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_interface_symbol_robin_recursion(n):
    # the Robin symbol sigma_j + gamma mu_j, with mu_j the interface-mass
    # eigenvalue, is the last dpttrf pivot of mode j in the Robin solver
    grid = build_grid(n)
    m = grid.n_interface
    for side, k in strips(grid):
        system = build_subdomain_system(grid, zero_field, side, n_cols=k)
        mu = system.interface_mass.eigenvalues()
        for gamma in (0.0, 1.0, 64.0 / grid.h):
            want = strip_symbol(m, k) + gamma * mu
            got = interface_symbol(system.solver(gamma))
            assert np.abs(got / want - 1.0).max() <= 1e-13


def test_dirichlet_neumann_with_empty_interior():
    # n = 1: one interface unknown and no left interior column
    grid = build_grid(1)
    left = build_subdomain_system(grid, F_LOAD, "left")
    right = build_subdomain_system(grid, F_LOAD, "right")
    report = dirichlet_neumann_solve(left, right, DDParams(1.0, 1.0, 0.45))
    assert report.converged
    K, load = global_poisson_system(grid, F_LOAD)
    x_global = scipy.sparse.linalg.spsolve(K, load)
    x = assemble_global_solution(grid, report.solution_u, report.solution_w)
    assert np.abs(x - x_global).max() < 1e-10  # stop_tol 1e-11 on the trace


def test_solvers_built_once_per_gamma():
    system = build_subdomain_system(build_grid(3), zero_field)
    assert system.solver(1.0) is system.solver(1.0)
    assert system.solver(0.0) is system.solver(0.0)
    assert system.solver(2.0) is not system.solver(1.0)
    # a new system of the same strip factors its own solvers
    other = build_subdomain_system(build_grid(3), zero_field)
    assert other.solver(1.0) is not system.solver(1.0)


def test_strip_solver_input_checks():
    system = build_subdomain_system(build_grid(2), zero_field)
    with pytest.raises(ValueError):
        system.solver(0.0).solve(np.ones(5))
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            system.solver(bad)
    for bad_cols in (-1, 0):
        with pytest.raises(ValueError, match="at least one column"):
            StripSolver(bad_cols, Tridiagonal(3, 4.0, -1.0))
