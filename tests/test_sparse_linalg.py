"""Kernel checks against numpy/scipy oracles and hand values."""
import numpy as np
import pytest
import scipy.linalg

from jacobi_oracle import jacobi_symmetric_eigen
from robinlab import (ConvergenceError, SingularMatrixError, SparseMatrix,
                      build_grid, build_subdomain_system, cg_solve,
                      dense_lu_solve, power_spectral_radius, spmv)
from robinlab.experiments import manufactured_solution


def robin_system(n, gamma, side="left"):
    grid = build_grid(n)
    _, f = manufactured_solution()
    system = build_subdomain_system(grid, f, side)
    return system.robin_matrix(gamma), system.load


def test_from_coo_sums_duplicates_and_sorts():
    i = [0, 2, 0, 1, 0]
    j = [1, 2, 1, 0, 0]
    v = [2.0, 5.0, 3.0, -1.0, 4.0]
    A = SparseMatrix.from_coo(3, 3, i, j, v)
    want = np.zeros((3, 3))
    for a, b, c in zip(i, j, v):
        want[a, b] += c
    assert np.array_equal(A.to_dense(), want)
    for r in range(3):
        cols = A.col_indices[A.row_offsets[r]:A.row_offsets[r + 1]]
        assert np.all(np.diff(cols) > 0)


def test_from_coo_rejects_out_of_range():
    with pytest.raises(ValueError):
        SparseMatrix.from_coo(2, 2, [0, 3], [0, 0], [1.0, 1.0])


def test_spmv_identity():
    eye = SparseMatrix.from_coo(4, 4, range(4), range(4), np.ones(4))
    x = np.array([3.0, -1.0, 0.5, 2.0])
    assert np.array_equal(spmv(eye, x), x)


def test_spmv_single_node_strip():
    # n=1 has one unknown; the clamped five-point entry is 4
    from robinlab import assemble_a0
    A = assemble_a0(build_grid(1))
    assert np.array_equal(A.to_dense(), [[4.0]])
    assert spmv(A, np.array([1.0]))[0] == 4.0


def test_spmv_random_vs_dense():
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((5, 5))
    dense[np.abs(dense) < 0.6] = 0.0
    i, j = np.nonzero(dense)
    A = SparseMatrix.from_coo(5, 5, i, j, dense[i, j])
    x = rng.standard_normal(5)
    assert np.abs(spmv(A, x) - dense @ x).max() < 1e-14


def test_spmv_dimension_mismatch():
    eye = SparseMatrix.from_coo(3, 3, range(3), range(3), np.ones(3))
    with pytest.raises(ValueError):
        spmv(eye, np.ones(4))


def test_cg_identity_one_step():
    eye = SparseMatrix.from_coo(6, 6, range(6), range(6), np.ones(6))
    b = np.arange(1.0, 7.0)
    assert np.abs(cg_solve(eye, b, max_iter=1) - b).max() < 1e-15


def test_cg_matches_dense_lu_on_robin_matrix():
    A, _ = robin_system(2, 1.0)
    b = np.ones(A.rows)
    x_cg = cg_solve(A, b)
    x_lu = dense_lu_solve(A.to_dense(), b)
    assert np.abs(x_cg - x_lu).max() < 1e-10


def test_cg_zero_rhs():
    A, _ = robin_system(1, 1.0)
    assert np.array_equal(cg_solve(A, np.zeros(1)), np.zeros(1))


def test_cg_reports_nonconvergence():
    A, _ = robin_system(3, 128.0)
    with pytest.raises(ConvergenceError):
        cg_solve(A, np.ones(A.rows), tol=1e-15, max_iter=2)


def test_cg_dimension_mismatch_is_not_convergence_error():
    A, _ = robin_system(2, 1.0)
    with pytest.raises(ValueError):
        cg_solve(A, np.ones(A.rows + 1))


def test_cg_agrees_with_lu_on_assembled_systems():
    # both Robin weights of the canonical sweep, strips up to n=16
    for n in (1, 2, 5, 9, 16):
        for gamma in (1.0, 64.0 * 2 * n):
            A, load = robin_system(n, gamma)
            x_cg = cg_solve(A, load)
            x_lu = dense_lu_solve(A.to_dense(), load)
            scale = max(1.0, np.abs(x_lu).max())
            assert np.abs(x_cg - x_lu).max() < 1e-8 * scale


def test_dense_lu_scalar():
    assert dense_lu_solve(np.array([[2.0]]), np.array([4.0]))[0] == pytest.approx(2.0)


def test_dense_lu_hilbert_vs_analytic_inverse():
    H = scipy.linalg.hilbert(4)
    Hinv = scipy.linalg.invhilbert(4)  # exact integer entries
    b = np.array([1.0, -2.0, 0.5, 3.0])
    x = dense_lu_solve(H, b)
    assert np.abs(x - Hinv @ b).max() < 1e-7 * np.abs(Hinv @ b).max()
    assert np.abs(H @ x - b).max() < 1e-10


def test_dense_lu_permutation():
    P = np.eye(4)[[2, 0, 3, 1]]
    b = np.array([1.0, 2.0, 3.0, 4.0])
    # P x = b means x = P^T b
    assert np.abs(dense_lu_solve(P, b) - P.T @ b).max() < 1e-14


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_dense_lu_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        dense_lu_solve(A, np.ones(2))


def test_jacobi_diagonal():
    w, V = jacobi_symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.abs(w - [1.0, 2.0, 3.0]).max() < 1e-14
    assert np.abs(np.abs(V) - np.eye(3)[:, [1, 2, 0]]).max() < 1e-14


def test_jacobi_two_by_two_swap():
    w, _ = jacobi_symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(w - [-1.0, 1.0]).max() < 1e-14


def test_jacobi_interface_mass_closed_form():
    from robinlab import assemble_interface_mass, fd_eigenvalue
    grid = build_grid(2)
    M = assemble_interface_mass(grid).to_dense()
    w, _ = jacobi_symmetric_eigen(M)
    h = grid.h
    want = np.sort([h - (h / 6.0) * fd_eigenvalue(j, 3) for j in (1, 2, 3)])
    assert np.abs(w - want).max() < 1e-12


def test_jacobi_random_vs_numpy():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((12, 12))
    A = A + A.T
    w, V = jacobi_symmetric_eigen(A)
    assert np.abs(w - np.linalg.eigvalsh(A)).max() < 1e-12
    assert np.abs(V.T @ V - np.eye(12)).max() < 1e-10
    assert np.abs(A @ V - V @ np.diag(w)).max() < 1e-10 * np.abs(A).max()


def test_jacobi_large_scale_terminates():
    # convergence must be detected even when the Frobenius norm is large
    # compared to the off-diagonal floor left by finite rotations
    rng = np.random.default_rng(17)
    A = 1e4 * rng.standard_normal((15, 15))
    A = A + A.T
    w, _ = jacobi_symmetric_eigen(A)
    assert np.abs(w - np.linalg.eigvalsh(A)).max() < 1e-8 * np.abs(A).max()


def test_jacobi_rejects_asymmetry():
    A = np.array([[1.0, 2.0], [2.1, 1.0]])
    with pytest.raises(ValueError):
        jacobi_symmetric_eigen(A)


def test_power_radius_sign_pair():
    D = np.diag([0.5, -0.9])
    assert power_spectral_radius(D, 2) == pytest.approx(0.9, abs=1e-9)


def test_power_radius_scaled_identity():
    assert power_spectral_radius(3.0 * np.eye(3), 3) == pytest.approx(3.0, abs=1e-9)


def test_power_radius_zero_operator():
    assert power_spectral_radius(np.zeros((4, 4)), 4) == 0.0


def test_power_radius_deterministic():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((7, 7))
    A = A + A.T
    assert power_spectral_radius(A, 7) == power_spectral_radius(A, 7)


def test_power_radius_matches_jacobi_on_symmetric():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((9, 9))
    A = A + A.T
    w, _ = jacobi_symmetric_eigen(A)
    want = max(abs(w[0]), abs(w[-1]))
    assert power_spectral_radius(A, 9) == pytest.approx(want, abs=1e-8)
