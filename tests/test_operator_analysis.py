"""Trace-operator (Schur complement) analysis of the double sweep."""
import numpy as np
import pytest

from jacobi_oracle import jacobi_symmetric_eigen, power_spectral_radius
from robin_oracle import strip_stiffness
from schur_oracle import splu_schur
from dense_oracle import (DtNOperator, build_iteration_operator, dtn_schur,
                          equivalence_bounds, iteration_spectral_radius,
                          params_from_bounds, symmetrized_T)
from robinlab import (DDParams, SubdomainSystem, build_grid, build_subdomain_system,
                      omega, reduction_spectrum, robin_robin_solve)
from robinlab.grid_fem import Tridiagonal
from robinlab.operator_analysis import mode_study, offcenter_columns, trace_eigenvalues
from robinlab.spectral import mode_arrays


def zero_field(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def symmetric_pair(n):
    grid = build_grid(n)
    left = build_subdomain_system(grid, zero_field, "left")
    right = build_subdomain_system(grid, zero_field, "right")
    return grid, dtn_schur(left), dtn_schur(right)


def third_split_pair(n):
    grid = build_grid(n)
    k, rest = offcenter_columns(grid)
    left = build_subdomain_system(grid, zero_field, "left", n_cols=k)
    right = build_subdomain_system(grid, zero_field, "right", n_cols=rest)
    return grid, dtn_schur(left), dtn_schur(right)


def canonical_params(n, theta=3.0 / 7.0):
    return DDParams(gamma1=1.0, gamma2=128.0 * n, theta=theta)


def nodal_schur(system):
    """The Schur complement in nodal coordinates: dtn_schur's map with the
    congruence by the interface mass's Cholesky factor L undone."""
    L = np.linalg.cholesky(system.interface_mass.to_dense())
    return L @ dtn_schur(system).matrix @ L.T


def test_single_node_schur():
    grid = build_grid(1)
    system = build_subdomain_system(grid, zero_field, "left")
    assert np.allclose(nodal_schur(system), [[2.0]], atol=1e-14)
    hat = dtn_schur(system)
    # congruence by M = [1/3] rescales 2 to 6
    assert np.allclose(hat.matrix, [[6.0]], atol=1e-13)
    assert hat.min_eig == pytest.approx(6.0, abs=1e-13)


def test_euclidean_schur_matches_dense_block_elimination():
    n = 2
    grid = build_grid(n)
    system = build_subdomain_system(grid, zero_field, "left")
    m = grid.n_interface
    A = strip_stiffness(grid).toarray()
    base = system.n_cols * m - m
    S = (A[base:, base:]
         - A[base:, :base] @ np.linalg.solve(A[:base, :base], A[:base, base:]))
    assert np.abs(nodal_schur(system) - S).max() < 1e-10


def test_symmetric_split_sides_identical():
    _, S1, S2 = symmetric_pair(4)
    assert np.abs(S1.matrix - S2.matrix).max() < 1e-12


def test_schur_eigenvalues_are_mode_ratios():
    # in mass-orthonormal coordinates the trace map diagonalizes with
    # eigenvalues b_j / a_j
    for n in (2, 4, 16, 64):
        _, S1, _ = symmetric_pair(n)
        _, _, a, b = mode_arrays(n)
        want = np.sort(b / a)
        assert np.abs(S1.eigvals - want).max() < 1e-10


def test_schur_eigenvalues_match_jacobi_oracle():
    for make_pair in (symmetric_pair, third_split_pair):
        for n in (1, 2, 5, 12, 24):
            _, S1, S2 = make_pair(n)
            for S in (S1, S2):
                want, _ = jacobi_symmetric_eigen(S.matrix)
                assert np.all(np.abs(S.eigvals - want) <= 1e-12 * np.abs(want))


def test_dtn_operator_eigenpairs_on_construction():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((6, 6))
    A = B @ B.T + 6.0 * np.eye(6)
    S = DtNOperator(matrix=A)
    assert np.abs(A @ S.eigvecs - S.eigvecs * S.eigvals).max() < 1e-12 * np.abs(A).max()
    assert (S.min_eig, S.max_eig) == (S.eigvals[0], S.eigvals[-1])
    root = S.function(np.sqrt)
    assert np.abs(root @ root - A).max() < 1e-10 * np.abs(A).max()


def test_dtn_operator_rejects_asymmetry():
    with pytest.raises(ValueError, match="symmetric"):
        DtNOperator(matrix=np.array([[1.0, 2.0], [2.1, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        DtNOperator(matrix=np.ones((2, 3)))


def test_schur_spectrum_bracket():
    # h-independent lower edge and 1/h upper edge
    for n in (2, 8, 32):
        _, S1, _ = symmetric_pair(n)
        assert S1.min_eig >= 3.0
        assert S1.max_eig <= 10.5 * 2 * n


def test_schur_rejects_indefinite_input(monkeypatch):
    # a one-column strip has no interior, so its map is its interface
    # block; the Neumann solver's factorization rejects a negative block
    system = build_subdomain_system(build_grid(1), zero_field, "left")
    monkeypatch.setattr(system, "interface_block",
                        lambda gamma=0.0: Tridiagonal(1, -2.0, 0.0))
    with pytest.raises(ValueError, match="strip operator is not positive definite"):
        dtn_schur(system)


def split_strips(grid):
    """(side, column count) of both strips of the symmetric and the
    off-center split."""
    k_left, k_right = offcenter_columns(grid)
    return (("left", grid.n), ("right", grid.n), ("left", k_left), ("right", k_right))


def test_schur_matches_splu_oracle():
    # the elimination through the strip's solvers against the CSR + SuperLU one
    for n in range(1, 13):
        grid = build_grid(n)
        for side, k in split_strips(grid):
            system = build_subdomain_system(grid, zero_field, side, n_cols=k)
            want = splu_schur(system)
            got = dtn_schur(system).matrix
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (n, side, k)


@pytest.mark.parametrize("n", [96, 128])
def test_schur_eigenvalues_match_strip_symbol_large_mesh(n):
    # the operator view against the closed form at large n: in
    # mass-orthonormal coordinates the map of a k-column strip has the
    # eigenvalues sigma_j / mu_j (trace_eigenvalues), with mu_j the
    # interface-mass eigenvalues
    grid = build_grid(n)
    k_left, k_right = offcenter_columns(grid)
    for side, k in (("left", n), ("left", k_left), ("right", k_right)):
        system = build_subdomain_system(grid, zero_field, side, n_cols=k)
        want = np.sort(trace_eigenvalues(grid, k))
        got = dtn_schur(system).eigvals
        assert np.abs(got / want - 1.0).max() <= 1e-13, (side, k)


def test_mode_study_matches_dense_path():
    # the operator table's per-mode numbers against the dense Schur maps,
    # their generalized and general eigensolves, on both splits; a map
    # depends only on its strip's width, so each width is built once
    for n in range(1, 65):
        grid = build_grid(n)
        third = offcenter_columns(grid)
        maps = {k: dtn_schur(SubdomainSystem(grid, k, np.zeros(k * grid.n_interface)))
                for k in {n, *third}}
        for split in ((n, n), third):
            S1, S2 = maps[split[0]], maps[split[1]]
            bounds, params, radius = mode_study(grid, *split)
            want_bounds = equivalence_bounds(S1, S2)
            want = params_from_bounds(S1, S2, want_bounds)
            want_radius = iteration_spectral_radius(build_iteration_operator(S1, S2, want))
            for got_value, want_value in (
                    (bounds.s, want_bounds.s), (bounds.t, want_bounds.t),
                    (params.gamma1, want.gamma1), (params.gamma2, want.gamma2),
                    (params.theta, want.theta), (radius, want_radius)):
                assert got_value == pytest.approx(want_value, rel=1e-12, abs=0.0), (n, split)


def test_offcenter_columns():
    # the grid line nearest to x = 1/3, kept off the boundary
    assert offcenter_columns(build_grid(6)) == (4, 8)
    assert offcenter_columns(build_grid(4)) == (3, 5)
    assert offcenter_columns(build_grid(1)) == (1, 1)


def test_equivalence_bounds_identity_and_scaling():
    _, S1, S2 = symmetric_pair(3)
    bounds = equivalence_bounds(S1, S2)
    assert bounds.s == pytest.approx(1.0, abs=1e-11)
    assert bounds.t == pytest.approx(1.0, abs=1e-11)
    doubled = DtNOperator(matrix=2.0 * S1.matrix)
    bounds = equivalence_bounds(S1, doubled)
    assert bounds.s == pytest.approx(2.0, abs=1e-10)
    assert bounds.t == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(ValueError):
        equivalence_bounds(S1, dtn_schur(
            build_subdomain_system(build_grid(2), zero_field, "left")))


def test_third_split_bounds_and_inverse_pencil():
    _, S1, S2 = third_split_pair(8)
    bounds = equivalence_bounds(S1, S2)
    # high modes see both strips as half planes, so the extreme ratios
    # approach 1 from one side only; t sits a few 1e-8 below 1 here
    assert bounds.s <= 1.0 + 1e-6
    assert bounds.t >= 1.0 - 1e-6
    assert bounds.s < bounds.t
    inv1 = DtNOperator(matrix=np.linalg.inv(S1.matrix))
    inv2 = DtNOperator(matrix=np.linalg.inv(S2.matrix))
    inv_bounds = equivalence_bounds(inv1, inv2)
    assert inv_bounds.s == pytest.approx(1.0 / bounds.t, abs=1e-10)
    assert inv_bounds.t == pytest.approx(1.0 / bounds.s, abs=1e-10)


def test_iteration_operator_diagonal_case():
    lams = np.array([2.0, 5.0])
    S = DtNOperator(matrix=np.diag(lams))
    params = DDParams(gamma1=1.0, gamma2=30.0, theta=0.25)
    R = build_iteration_operator(S, S, params)
    want = params.theta - (1.0 - params.theta) * omega(lams, 1.0, 30.0)
    assert np.abs(R - np.diag(want)).max() < 1e-14


def test_iteration_operator_heavy_damping_limit():
    _, S1, S2 = symmetric_pair(3)
    params = DDParams(gamma1=1.0, gamma2=400.0, theta=1.0 - 1e-9)
    R = build_iteration_operator(S1, S2, params)
    assert np.abs(R - np.eye(R.shape[0])).max() < 1e-7


def test_iteration_operator_eigenvalues_match_mode_formula():
    for n in (1, 2, 4, 8, 16):
        _, S1, S2 = symmetric_pair(n)
        params = canonical_params(n)
        R = build_iteration_operator(S1, S2, params)
        got = np.sort(np.linalg.eigvals(R).real)
        vals, _ = reduction_spectrum(n, params)
        assert np.abs(got - np.sort(vals)).max() < 1e-8


def test_symmetrized_T_is_similar_to_T():
    for n in (1, 2, 4, 8):
        _, S1, S2 = symmetric_pair(n)
        params = canonical_params(n)
        R = build_iteration_operator(S1, S2, params)
        T = (params.theta * np.eye(R.shape[0]) - R) / (1.0 - params.theta)
        T_sym = symmetrized_T(S1, S2, params)
        w_sym, _ = jacobi_symmetric_eigen(T_sym)
        w = np.sort(np.linalg.eigvals(T).real)
        assert np.abs(w - w_sym).max() < 1e-9


def test_symmetrized_T_diagonal_commuting_case():
    lams = np.array([2.0, 5.0])
    S = DtNOperator(matrix=np.diag(lams))
    params = DDParams(gamma1=2.0, gamma2=15.0, theta=0.3)
    R = build_iteration_operator(S, S, params)
    T = (params.theta * np.eye(2) - R) / (1.0 - params.theta)
    T_sym = symmetrized_T(S, S, params)
    assert np.abs(T_sym - T).max() < 1e-13


def test_symmetrized_T_names_violated_bracket():
    _, S1, S2 = symmetric_pair(2)
    with pytest.raises(ValueError, match="gamma1"):
        symmetrized_T(S1, S2, DDParams(10.0, 1000.0, 0.4))
    with pytest.raises(ValueError, match="gamma2"):
        symmetrized_T(S1, S2, DDParams(1.0, 5.0, 0.4))


def test_symmetrized_T_positive_with_explicit_lower_bound():
    for make_pair in (symmetric_pair, third_split_pair):
        _, S1, S2 = make_pair(8)
        params = params_from_bounds(S1, S2, equivalence_bounds(S1, S2))
        w, _ = jacobi_symmetric_eigen(symmetrized_T(S1, S2, params))
        assert w[0] > -1e-10
        g1, g2 = params.gamma1, params.gamma2
        lower = (((S2.min_eig - g1) / (g2 + S2.min_eig))
                 * ((g2 - S1.max_eig) / (g1 + S1.max_eig)))
        assert lower <= w[0] + 1e-10


def test_symmetrized_T_spectrum_capped_by_equivalence():
    _, S1, S2 = third_split_pair(8)
    params = params_from_bounds(S1, S2, equivalence_bounds(S1, S2))
    t = equivalence_bounds(S1, S2).t
    w, _ = jacobi_symmetric_eigen(symmetrized_T(S1, S2, params))
    assert w[-1] <= 2.0 * t - 1.0 + 1e-9


def test_shifted_resolvent_inequality():
    _, S1, S2 = third_split_pair(8)
    params = params_from_bounds(S1, S2, equivalence_bounds(S1, S2))
    t = equivalence_bounds(S1, S2).t
    g1, g2 = params.gamma1, params.gamma2
    dim = S1.matrix.shape[0]
    B2 = np.linalg.solve(g2 * np.eye(dim) - S2.matrix, g1 * np.eye(dim) + S2.matrix)
    B1 = np.linalg.solve(g2 * np.eye(dim) - S1.matrix, g1 * np.eye(dim) + S1.matrix)
    rng = np.random.default_rng(17)
    for _ in range(50):
        v = rng.standard_normal(dim)
        assert v @ (B2 @ v) <= (2.0 * t - 1.0) * (v @ (B1 @ v)) + 1e-10


def test_recommendation_matched_sides():
    _, S1, S2 = symmetric_pair(4)
    params = params_from_bounds(S1, S2, equivalence_bounds(S1, S2))
    assert params.theta == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert params.gamma1 == pytest.approx(S1.min_eig, abs=1e-12)
    assert params.gamma2 == pytest.approx(3.0 * S1.max_eig, abs=1e-12)


def test_recommendation_scaled_pair():
    _, S1, _ = symmetric_pair(3)
    doubled = DtNOperator(matrix=2.0 * S1.matrix)
    params = params_from_bounds(S1, doubled, equivalence_bounds(S1, doubled))
    assert params.theta == pytest.approx(3.0 / 5.0, abs=1e-10)


def test_recommended_radius_below_guarantee():
    for make_pair in (symmetric_pair, third_split_pair):
        _, S1, S2 = make_pair(8)
        params = params_from_bounds(S1, S2, equivalence_bounds(S1, S2))
        R = build_iteration_operator(S1, S2, params)
        radius = iteration_spectral_radius(R)
        assert radius <= params.theta + 1e-9


def test_fixed_rule_radius_below_one_third():
    # weight rule gamma1 = 3, gamma2 = 10.5 / h with theta = 1/3 on the
    # symmetric split
    for n in (4, 8):
        _, S1, S2 = symmetric_pair(n)
        params = DDParams(3.0, 10.5 * 2 * n, 1.0 / 3.0)
        R = build_iteration_operator(S1, S2, params)
        assert iteration_spectral_radius(R) <= 1.0 / 3.0 + 1e-9


def test_radius_plain_diagonal():
    assert iteration_spectral_radius(np.diag([0.2, -0.3])) == pytest.approx(0.3, abs=1e-9)


def test_radius_matches_similar_symmetric_and_power_oracle():
    # R is similar to theta I - (1 - theta) symmetrized_T, so the general
    # eigensolve must agree with a symmetric one and with power iteration
    for n in range(1, 33):
        for make_pair in (symmetric_pair, third_split_pair):
            _, S1, S2 = make_pair(n)
            params = params_from_bounds(S1, S2, equivalence_bounds(S1, S2))
            R = build_iteration_operator(S1, S2, params)
            radius = iteration_spectral_radius(R)
            T_sym = symmetrized_T(S1, S2, params)
            similar = params.theta * np.eye(len(R)) - (1.0 - params.theta) * T_sym
            want = float(np.abs(np.linalg.eigvalsh(similar)).max())
            assert radius == pytest.approx(want, rel=1e-12, abs=0.0)
            assert radius == pytest.approx(power_spectral_radius(R, len(R)), rel=1e-9, abs=0.0)


def test_radius_matches_measured_rate():
    n = 8
    grid = build_grid(n)
    left = build_subdomain_system(grid, zero_field, "left")
    right = build_subdomain_system(grid, zero_field, "right")
    S1, S2 = dtn_schur(left), dtn_schur(right)
    params = canonical_params(n)
    radius = iteration_spectral_radius(build_iteration_operator(S1, S2, params))
    rng = np.random.default_rng(29)
    report = robin_robin_solve(left, right, params,
                               g1_init=rng.standard_normal(grid.n_interface))
    assert abs(radius - report.reduction_rate) <= 0.02
