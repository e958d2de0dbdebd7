"""Kernel checks against numpy/scipy oracles and hand values."""
import numpy as np
import pytest

from jacobi_oracle import jacobi_symmetric_eigen, power_spectral_radius
from robinlab import build_grid


def test_jacobi_diagonal():
    w, V = jacobi_symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.abs(w - [1.0, 2.0, 3.0]).max() < 1e-14
    assert np.abs(np.abs(V) - np.eye(3)[:, [1, 2, 0]]).max() < 1e-14


def test_jacobi_two_by_two_swap():
    w, _ = jacobi_symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(w - [-1.0, 1.0]).max() < 1e-14


def test_jacobi_interface_mass_closed_form():
    from robinlab import Tridiagonal, fd_eigenvalue
    grid = build_grid(2)
    M = Tridiagonal.interface_mass(grid.n_interface).to_dense()
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


def test_spmv_single_node_strip():
    # n=1 has one unknown; the clamped five-point entry is 4, and the CSR
    # product reproduces it
    from robin_oracle import strip_stiffness
    A = strip_stiffness(build_grid(1), clamped=True)
    assert np.array_equal(A.toarray(), [[4.0]])
    assert (A @ np.array([1.0]))[0] == 4.0


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
