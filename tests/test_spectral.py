"""Closed-form mode analysis checked against exact rationals and dense oracles."""
import math
from decimal import Decimal
from fractions import Fraction
import numpy as np
import pytest

from robinlab import (DDParams, Tridiagonal, build_grid,
                      build_subdomain_system, corollary_rate, fd_eigenvalue,
                      measured_reduction_rate, omega, omega_max, reduction_spectrum,
                      robin_robin_solve, strip_symbol,
                      theta_star, von_neumann_advisor, von_neumann_rho)
from robinlab.experiments import ExperimentConfig
from robinlab.grid_fem import strip_matrix
from robinlab.spectral import (COTH_1, SplitModes, mode_arrays, robin_factor,
                               sine_basis_matrix, split_modes)
from robin_oracle import add_interface_tridiagonal, strip_stiffness
from symbol_oracle import (longdouble_symbol, tilde_lambda, tilde_lambda_all,
                           von_neumann_rho_product)


def canonical_params(n, theta=3.0 / 7.0):
    return DDParams(gamma1=1.0, gamma2=64.0 * 2 * n, theta=theta)


def test_fd_eigenvalue_values():
    assert fd_eigenvalue(1, 1) == pytest.approx(2.0, abs=1e-15)
    assert fd_eigenvalue(2, 3) == pytest.approx(2.0, abs=1e-15)
    assert fd_eigenvalue(2000, 2000) > 3.99
    with pytest.raises(ValueError):
        fd_eigenvalue(0, 3)
    with pytest.raises(ValueError):
        fd_eigenvalue(4, 3)


def test_sine_basis_single_node():
    assert np.allclose(sine_basis_matrix(1), [[1.0]], atol=1e-15)


def test_sine_basis_rows_closed_form():
    # row i holds sqrt(2/(m+1)) sin(i k pi / (m+1)), k = 1..m
    m = 5
    k = np.arange(1, m + 1)
    for i in k:
        want = np.sqrt(2.0 / (m + 1)) * np.sin(i * k * np.pi / (m + 1))
        assert np.abs(sine_basis_matrix(m)[i - 1] - want).max() < 1e-15


def test_sine_basis_orthogonal_and_involutory():
    phi = sine_basis_matrix(3)
    assert np.abs(phi.T @ phi - np.eye(3)).max() < 1e-14
    assert np.abs(phi - phi.T).max() < 1e-15
    assert np.abs(phi @ phi - np.eye(3)).max() < 1e-14


def test_sine_basis_built_once_and_read_only():
    phi = sine_basis_matrix(5)
    assert sine_basis_matrix(5) is phi
    assert not phi.flags.writeable
    with pytest.raises(ValueError):
        phi[0, 0] = 0.0


def test_sine_basis_diagonalizes_second_difference():
    m = 7
    A = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    phi = sine_basis_matrix(m)
    lam = fd_eigenvalue(np.arange(1, m + 1), m)
    assert np.abs(phi @ A @ phi - np.diag(lam)).max() < 1e-12


def test_tilde_lambda_single_mode_exact():
    assert tilde_lambda(1, 1) == pytest.approx(0.25, abs=1e-16)
    with pytest.raises(ValueError):
        tilde_lambda(0, 2)
    with pytest.raises(ValueError):
        tilde_lambda(4, 2)


def test_tilde_lambda_all_matches_scalar():
    for n in (1, 2, 5, 9):
        allv = tilde_lambda_all(n)
        each = np.array([tilde_lambda(j, n) for j in range(1, 2 * n)])
        assert np.abs(allv - each).max() < 1e-14


def test_tilde_lambda_range():
    for n in range(1, 65):
        for tl in (tilde_lambda_all(n), mode_arrays(n)[1]):
            assert tl.min() > 1.0 / 8.0
            assert tl.max() < 1.0


def test_closed_form_tlam_matches_lattice_sum():
    # tlam_j = 1 / (sigma_j + 1 + lam_j/2) against the O(n^2) lattice sum,
    # which is itself about 6e-15 from 40-digit values at these sizes
    for n in list(range(1, 33)) + [64, 144]:
        tlam = mode_arrays(n)[1]
        assert np.abs(tlam / tilde_lambda_all(n) - 1.0).max() < 2e-14


def test_mode_coefficients_from_strip_symbol():
    # b_j = sigma_j tlam_j, which equals 1 - (1 + lam_j/2) tlam_j but is
    # formed without that difference's cancellation
    for n in (1, 2, 9, 36):
        lam, tlam, a, b = mode_arrays(n)
        assert np.array_equal(b, strip_symbol(2 * n - 1, n) * tlam)
        assert np.abs(b - (1.0 - (1.0 + 0.5 * lam) * tlam)).max() < 1e-14


# sigma_j at n = 576 (m = 1151) to 40 digits.  Recipe: with mpmath at
# mp.dps = 60, a = 2 + 4 sin(j pi / (2 (m+1)))^2, r = a, then r = a - 1/r
# k - 2 times, sigma = a/2 - 1/r (a/2 for k = 1); this agrees with
# sinh(kappa) coth(k kappa), kappa = 2 asinh(sin(j pi / (2 (m+1)))), to 45
# digits, and is printed by mpmath.nstr(sigma, 40).
SIGMA_576 = [
    (1, 1, "1.000003718472058122693900212653201168575"),
    (1, 2, "1.000014873860578421881522404526263401966"),
    (1, 3, "1.00003346608259889654239618942086088763"),
    (1, 5, "1.000092960418756820790061394995196245548"),
    (1, 10, "1.00037182439174837227328845363527077768"),
    (1, 576, "2.0"),
    (1, 1150, "2.999985126139421578118477595473736598034"),
    (1, 1151, "2.999996281527941877306099787346798831425"),
    (192, 1, "0.005675826367111885108720693672588730368094"),
    (192, 2, "0.006986132531798508680146199249633864013829"),
    (192, 3, "0.008920316283051656140196908062882648628062"),
    (192, 5, "0.01378150979250554815304804069703672523008"),
    (192, 10, "0.02727400501837874606228725212387234967062"),
    (192, 576, "1.732050807568877293527446341505872366943"),
    (192, 1150, "2.828411348629785355538845138087878759226"),
    (192, 1151, "2.828423180710672633113299254545756052073"),
    (576, 1, "0.002973420008905048530318443723874371926681"),
    (576, 2, "0.005474576554539423959504765086796698021738"),
    (576, 3, "0.008182597126557818494871767497110316561905"),
    (576, 5, "0.01363560014300747780040989933930101379657"),
    (576, 10, "0.02727245931109094704483747691066616313734"),
    (576, 576, "1.732050807568877293527446341505872366943"),
    (576, 1150, "2.828411348629785355538845138087878759226"),
    (576, 1151, "2.828423180710672633113299254545756052073"),
]


def test_strip_symbol_matches_pinned_40_digits():
    """sigma_j at n = 576 against the pinned 40-digit values, to 1e-15.

    The long-double recursion cannot gate here: at n = k = 576 it drifts
    3.2e-15 from these values.  The last dpttrf pivots are 1.4e-11 off.
    """
    m = 1151
    for k in (1, 192, 576):
        sigma = strip_symbol(m, k)
        for kk, j, want in SIGMA_576:
            if kk == k:
                assert abs(sigma[j - 1] / float(want) - 1.0) <= 1e-15


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("n", [1, 2, 3, 9, 36, 72, 144])
def test_strip_symbol_matches_long_double_recursion(n):
    m = 2 * n - 1
    for k in sorted({1, max(n // 3, 1), n}):
        sigma = strip_symbol(m, k)
        want = longdouble_symbol(m, k)
        assert sigma.shape == (m,)
        assert float(np.abs(sigma / want - 1).max()) <= 1e-15


def test_strip_symbol_single_column_and_input_checks():
    # one column: sigma_j is the Neumann interface eigenvalue 2 - cos theta_j
    m = 7
    want = 2.0 - np.cos(np.arange(1, m + 1) * np.pi / (m + 1))
    assert np.abs(strip_symbol(m, 1) - want).max() < 1e-15
    assert strip_symbol(1, 1) == pytest.approx([2.0], abs=1e-15)
    for bad_m, bad_k in ((0, 1), (1, 0), (-3, 2), (5, -1)):
        with pytest.raises(ValueError):
            strip_symbol(bad_m, bad_k)


def test_tilde_lambda_matches_dense_trace_inverse():
    # B0 = R A0^{-1} R^T must be diagonal in the sine basis with entries
    # tilde_lambda_j
    n = 8
    grid = build_grid(n)
    m = grid.n_interface
    A0 = strip_stiffness(grid, clamped=True).toarray()
    rhs = np.zeros((n * m, m))
    rhs[-m:, :] = np.eye(m)
    B0 = np.linalg.solve(A0, rhs)[-m:, :]
    phi = sine_basis_matrix(m)
    D = phi @ B0 @ phi
    assert np.abs(np.diag(D) - tilde_lambda_all(n)).max() < 1e-10
    assert np.abs(np.diag(D) - mode_arrays(n)[1]).max() < 1e-10
    assert np.abs(D - np.diag(np.diag(D))).max() < 1e-10


def test_mode_coefficients_single_mode_exact():
    lam, tlam, a, b = (float(v[0]) for v in mode_arrays(1))
    assert lam == pytest.approx(2.0, abs=1e-15)
    assert tlam == pytest.approx(0.25, abs=1e-16)
    assert a == pytest.approx(1.0 / 12.0, abs=1e-16)
    assert b == pytest.approx(0.5, abs=1e-16)
    # the margin driving the sharp quadratic bound
    assert 3.0 * a - b == pytest.approx(-0.25, abs=1e-15)
    assert -0.25 < -7.0 / 64.0


def test_mode_coefficient_ranges():
    # a_j stays well above h/24 for every mode (the h/12 shortcut seen in
    # hand derivations overshoots; the true small-h floor is (1-2 sqrt2/3) h)
    for n in (8, 32):
        h = 1.0 / (2 * n)
        _, _, a, b = mode_arrays(n)
        assert a.min() > h / 24.0
        assert a.max() <= h
        assert b.max() <= 7.0 / 8.0
        assert b.min() > 0.0


def test_cj_hand_value():
    # n = 1: mu = 1/3 and sigma = 2 in the one mode
    c = split_modes(1, 1, 1).cj_values(1.0, 128.0)
    assert float(c[0]) == pytest.approx(-305.0 / 469.0, abs=1e-15)


def test_cj_zero_when_first_factor_vanishes():
    split = split_modes(3, 2, 2)
    gamma1 = split.sigma1[0] / split.mu[0]
    assert float(split.cj_values(gamma1, 7.0)[0]) == pytest.approx(0.0, abs=1e-15)


def test_split_mu_is_the_interface_mass_spectrum_bit_for_bit():
    # mu is formed in Tridiagonal.eigenvalues' operation order; the
    # algebraically equal (4 + 2 cos theta_j) / (6(m+1)) differs in the last
    # bit at 300 of these 302 meshes, which would move the sweeps' bits
    for n in (*range(1, 301), 576, 1152):
        grid = build_grid(n)
        for k in (n, 1):
            mass = Tridiagonal.interface_mass(grid.n_interface)
            assert np.array_equal(split_modes(grid.n_interface, k, 2 * n - k).mu,
                                  mass.eigenvalues()), (n, k)


def test_robin_factor_exact_on_small_integers():
    # numerator and denominator are exact, so one correctly rounded division
    for sigma in range(1, 6):
        for mu in range(1, 4):
            for gamma in range(0, 5):
                for other in range(0, 5):
                    want = Fraction(other * mu - sigma, sigma + gamma * mu)
                    got = robin_factor(float(sigma), float(mu), float(gamma), float(other))
                    assert got == float(want)


@pytest.mark.parametrize("rule, coefficient", [("scale_inv_h", 64.0), ("constant", 30.0)])
@pytest.mark.parametrize("n", [2, 6, 36, 144])
def test_cj_from_strip_symbol_and_interface_mass(n, rule, coefficient):
    # the split's (sigma, mu) and mode_arrays' (a_j, b_j) give one c_j: each
    # robin_factor has the same value in either, a_j, b_j being mu, sigma
    # scaled by one tlam_j
    params = ExperimentConfig(table="spectrum", n_list=(n,), gamma2_rule=rule,
                              gamma2_coefficient=coefficient).params(n, 3.0 / 7.0)
    g1, g2 = params.gamma1, params.gamma2
    _, _, a, b = mode_arrays(n)
    np.testing.assert_allclose(split_modes(2 * n - 1, n, n).cj_values(g1, g2),
                               SplitModes(a, b, b).cj_values(g1, g2), rtol=1e-14, atol=0.0)


def test_cj_interval_canonical_weights():
    for n in range(1, 257):
        _, _, a, b = mode_arrays(n)
        g1, g2 = 1.0, 64.0 * 2 * n
        c = ((g1 * a - b) / (g1 * a + b)) * ((g2 * a - b) / (g2 * a + b))
        assert c.max() < -0.5
        assert c.min() > -1.0


def test_symmetric_split_radius_below_one_seventh_for_every_n(monkeypatch):
    """Proof that at theta = 3/7 and the default weights every mode of the
    symmetric split of every n >= 1 is damped below 1/7, and that tlam_j
    lies in (1/8, 1); each constant is an outward-rounded interval.

    Mode j of the split has h = 1/(2n), theta_j = j pi h, kappa_j =
    2 asinh(s_j), s_j = sin(theta_j / 2), and x_j = n kappa_j, and by
    split_modes

        z_j = sigma_j / mu_j = 6 (sinh kappa_j / kappa_j)(x_j coth x_j) / (2 + cos theta_j).

    n = 1: the one mode has sigma = cosh kappa = 2 and mu = 1/3, so z = 6.
    n >= 2: kappa_j and x_j grow with j, and with t = pi / (4n) <= pi/8
    the bounds sin t >= t - t^3/6 and asinh y >= y - y^3/6, at y = sin t
    <= t, give x_j >= x_1 = 2n asinh(sin t) >= X = (pi/2)(1 - pi^2/384)^2.
      - Lower end: sinh kappa >= kappa, 2 + cos theta <= 3 and x coth x
        grows with x, so z_j >= Z_lo = 2 X coth X.
      - Upper end: sinh kappa = 2 s sqrt(1 + s^2) <= 2 sqrt 2, coth x_j
        <= coth X and 2 + cos theta > 1, so z_j <= Z_hi n with
        Z_hi = 12 sqrt(2) coth X.
    The radius: c_j = -omega(z_j), and omega's derivative has the sign of
    gamma1 gamma2 - z^2, so on [Z_lo, Z_hi n] omega is at least its smaller
    end value.  With gamma2 = g n, gamma1 < Z_lo and Z_hi < g, both end
    values grow with n, so n = 2 bounds every n >= 2.  Both factors of
    omega lie in (-1, 1) for z > 0, so omega < 1.  Hence c_j lies in
    (-1, -1/2) and |3/7 + (4/7) c_j| < 1/7.
    tlam_j = 1 / (sigma_j + 1 + lam_j / 2) = 1 / (sigma_j + cosh kappa_j),
    with sigma_j > 0 and cosh kappa_j > 1; for n >= 2, sigma_j <=
    2 sqrt(2) coth X and cosh kappa_j = 1 + 2 s_j^2 <= 3, and at n = 1
    tlam = 1/4.
    """
    from mpmath import iv

    monkeypatch.setattr(iv, "prec", 80)
    defaults = ExperimentConfig(table="spectrum")
    assert defaults.gamma2_rule == "scale_inv_h"
    g1 = iv.mpf(defaults.gamma1)
    g = 2 * iv.mpf(defaults.gamma2_coefficient)  # gamma2 = g n

    def coth(x):
        return 1 + 2 / (iv.exp(2 * x) - 1)

    def omega(z, gamma2):
        return ((gamma2 - z) / (gamma2 + z)) * ((z - g1) / (z + g1))

    X = iv.pi / 2 * (1 - iv.pi ** 2 / 384) ** 2
    z_lo = 2 * X * coth(X)
    z_hi = 12 * iv.sqrt(2) * coth(X)
    assert g1.b < z_lo.a and z_hi.b < g.a
    for end in (omega(iv.mpf(6), g), omega(z_lo, 2 * g), omega(2 * z_hi, 2 * g)):
        assert end.a > 0.5
    # inside [3 + 7h/16, 21/(2h)] = [3 + 7/(32n), 21n] for every n >= 2
    assert z_lo.a > 3 + iv.mpf(7) / 64 and z_hi.b < 21
    assert (2 * iv.sqrt(2) * coth(X) + 3).b < 8

    # the floats of split_modes follow the formula, read z = 6 and
    # tlam = 1/4 at n = 1, and lie in [Z_lo, Z_hi n] beyond
    split = split_modes(1, 1, 1)
    assert split.sigma1[0] / split.mu[0] == pytest.approx(6.0, abs=1e-14)
    assert mode_arrays(1)[1][0] == pytest.approx(0.25, abs=1e-15)
    for n in (*range(2, 1025), 4096, 65536):
        split = split_modes(2 * n - 1, n, n)
        z = split.sigma1 / split.mu
        assert float(z_lo.a) <= z.min() and z.max() <= float(z_hi.b) * n
        theta = np.arange(1, 2 * n) * np.pi / (2 * n)
        kappa = 2.0 * np.arcsinh(np.sin(theta / 2.0))
        x = n * kappa
        formula = 6.0 * (np.sinh(kappa) / kappa) * (x / np.tanh(x)) / (2.0 + np.cos(theta))
        assert np.abs(z / formula - 1.0).max() < 1e-14


def canonical_split_radii(n, k_left):
    """|theta + (1 - theta) c_j| per mode at theta = 3/7 on the split with
    k_left columns on the left, gamma1 = 1 there and gamma2 = 128n on the
    right: reduction_spectrum of the off-center split."""
    split = split_modes(2 * n - 1, k_left, 2 * n - k_left)
    return np.abs(reduction_spectrum(split, canonical_params(n))[0])


FIXED_SPLIT_MESHES = (6, 12, 24, 48, 96, 192, 384, 768, 1152, 2304)


@pytest.mark.parametrize("x_star, flat", [
    (Fraction(1, 6), True), (Fraction(1, 4), True), (Fraction(1, 3), True),
    (Fraction(1, 2), False), (Fraction(2, 3), False), (Fraction(3, 4), False),
    (Fraction(5, 6), True)])
def test_canonical_radius_on_fixed_splits(x_star, flat):
    # the left strip spans [0, x*] at every n.  The radius at theta = 3/7
    # is flat in h at x* = 1/6, 1/4, 1/3 and 5/6 (0.264, 0.212, 0.174 and
    # 0.329), above 1/7; at x* = 1/2, 2/3 and 3/4 it rises toward 1/7
    # (0.139 at n = 2304) and stays below it.  So 1/7 is the envelope of
    # the symmetric split, not of every fixed split
    radii = np.array([canonical_split_radii(n, int(x_star * 2 * n)).max()
                      for n in FIXED_SPLIT_MESHES])
    if flat:
        assert radii.max() - radii.min() < 0.01 * radii.min()
        assert radii.min() > 1.0 / 7.0
    else:
        assert radii.max() < 1.0 / 7.0


def test_off_center_sweep_measures_closed_form_radius():
    # the mode sweep on the x* = 1/3 split, seeded with the slowest mode
    # and no load, contracts at the closed-form radius
    n, k = 36, 24
    rho = canonical_split_radii(n, k)
    grid = build_grid(n)
    left = build_subdomain_system(grid, lambda x, y: 0.0, "left", n_cols=k)
    right = build_subdomain_system(grid, lambda x, y: 0.0, "right", n_cols=2 * n - k)
    report = robin_robin_solve(left, right, canonical_params(n),
                               g1_init=sine_basis_matrix(2 * n - 1)[np.argmax(rho)])
    assert report.converged
    assert abs(measured_reduction_rate(report.states) - rho.max()) <= 1e-12


def test_reduction_spectrum_single_mode():
    vals, radius = reduction_spectrum(split_modes(1, 1, 1), canonical_params(1))
    assert vals.shape == (1,)
    assert vals[0] == pytest.approx(187.0 / 3283.0, abs=1e-15)
    assert radius == pytest.approx(0.05696, abs=5e-6)
    assert radius <= 1.0 / 7.0


def test_reduction_spectrum_theta_zero_is_cj():
    n = 3
    params = DDParams(gamma1=1.0, gamma2=64.0 * 2 * n, theta=0.0)
    vals, _ = reduction_spectrum(split_modes(2 * n - 1, n, n), params)
    _, _, a, b = mode_arrays(n)
    g2 = params.gamma2
    c = ((a - b) / (a + b)) * ((g2 * a - b) / (g2 * a + b))
    assert np.abs(vals - c).max() < 1e-15


def test_one_sweep_matrix_diagonalized_by_sine_basis():
    # theta I + (1-theta) C_g2 C_g1 assembled with dense inversion must
    # equal Phi diag(theta + (1-theta) c_j) Phi entrywise
    for n in range(1, 9):
        grid = build_grid(n)
        m = grid.n_interface
        mass = Tridiagonal.interface_mass(grid.n_interface)
        stiffness = strip_stiffness(grid)
        Mg = strip_matrix(1, mass).toarray()
        for params in (canonical_params(n), DDParams(2.5, 40.0, 0.2)):
            gsum = params.gamma1 + params.gamma2

            def robin_to_robin(gamma):
                A = add_interface_tridiagonal(stiffness, mass, gamma).toarray()
                rhs = np.zeros((A.shape[0], m))
                rhs[-m:, :] = Mg
                traces = np.linalg.solve(A, rhs)[-m:, :]
                return -np.eye(m) + gsum * traces

            sweep = (params.theta * np.eye(m)
                     + (1.0 - params.theta)
                     * robin_to_robin(params.gamma2) @ robin_to_robin(params.gamma1))
            vals, _ = reduction_spectrum(split_modes(2 * n - 1, n, n), params)
            phi = sine_basis_matrix(m)
            assert np.abs(sweep - phi @ np.diag(vals) @ phi).max() < 1e-9


def test_omega_zeros_and_maximum():
    z0, w0 = omega_max(3.0, 3.0)
    assert z0 == 3.0
    assert w0 == 0.0
    z0, w0 = omega_max(1.0, 4.0)
    assert z0 == pytest.approx(2.0, abs=1e-15)
    assert w0 == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert omega(1.0, 1.0, 4.0) == 0.0
    assert omega(4.0, 1.0, 4.0) == 0.0
    with pytest.raises(ValueError):
        omega_max(0.0, 1.0)
    # gamma2 / gamma1 overflows here, but the maximum needs no such ratio:
    # it is the square of (sqrt(gamma2) - sqrt(gamma1)) / (sqrt(gamma2) + sqrt(gamma1))
    for gamma1, gamma2 in ((5e-324, 2.0), (1e-300, 1e300), (5e-324, 1.7e308)):
        z0, w0 = omega_max(gamma1, gamma2)
        assert z0 == math.sqrt(gamma1 * gamma2)
        assert w0 == 1.0
    # gamma1 gamma2 overflows, or underflows to 0, here, but z0 does not
    for gamma1, gamma2, w0_want in ((1e200, 1e200, 0.0), (5e-324, 1e-10, 1.0)):
        z0, w0 = omega_max(gamma1, gamma2)
        assert z0 == pytest.approx(float((Decimal(gamma1) * Decimal(gamma2)).sqrt()), rel=1e-15)
        assert w0 == w0_want


def test_omega_sampled_maximizer_and_monotonicity():
    gamma1, gamma2 = 1.0, 64.0
    z0, w0 = omega_max(gamma1, gamma2)
    z = np.geomspace(1e-3, 1e6, 1000)
    w = omega(z, gamma1, gamma2)
    assert w.max() <= w0 + 1e-15
    left = omega(z[z <= z0], gamma1, gamma2)
    right = omega(z[z >= z0], gamma1, gamma2)
    assert np.all(np.diff(left) > 0.0)
    assert np.all(np.diff(right) < 0.0)


def test_theta_star_values():
    assert theta_star(0.0, 0.0) == (0.0, 0.0)
    theta0, value = theta_star(0.0, 1.0)
    assert theta0 == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-15)
    _, value = theta_star(0.7, 0.7)
    assert value == 0.0


def test_theta_star_is_minimax_on_sampled_grid():
    thetas = np.linspace(0.0, 1.0, 1000)
    for a, b in ((0.0, 1.0), (0.3, 0.7), (0.05, 2.4)):
        theta0, value = theta_star(a, b)
        rho = np.maximum(np.abs(thetas - (1.0 - thetas) * a),
                         np.abs(thetas - (1.0 - thetas) * b))
        assert np.all(rho >= value - 1e-12)
        # the sampled minimum comes within grid resolution of the optimum
        assert rho.min() <= value + 5e-3 * (1.0 + a + b)
        at0 = max(abs(theta0 - (1.0 - theta0) * a), abs(theta0 - (1.0 - theta0) * b))
        assert at0 == pytest.approx(value, abs=1e-14)


def test_von_neumann_forms_agree():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = 10.0 ** rng.uniform(-2, 4)
        gamma1 = 10.0 ** rng.uniform(-2, 2)
        gamma2 = 10.0 ** rng.uniform(-2, 2)
        theta = rng.uniform(0.0, 0.99)
        r1 = von_neumann_rho(k, gamma1, gamma2, theta)
        r2 = von_neumann_rho_product(k, gamma1, gamma2, theta)
        assert abs(r1 - r2) < 1e-12


def test_von_neumann_rho_at_matched_weights():
    k = 2.0
    z = k / np.tanh(k)
    for theta in (0.0, 0.3, 0.8):
        assert von_neumann_rho(k, z, z, theta) == pytest.approx(theta, abs=1e-14)


def test_von_neumann_large_k_asymptote():
    k = 1e5
    gamma1, gamma2 = 1.0, 2.0
    for theta in (0.0, 3.0 / 7.0):
        rho = von_neumann_rho(k, gamma1, gamma2, theta)
        approx = 1.0 - 2.0 * (1.0 - theta) * (gamma1 + gamma2) / k
        assert abs(rho - approx) < 1e-6
        assert rho < 1.0


@pytest.mark.parametrize("gamma1, gamma2, theta", [
    (np.nan, 1.0, 0.3), (1.0, np.inf, 0.3), (1.0, 2.0, 1.0), (1.0, 2.0, -0.5),
    (0.0, 2.0, 0.3), (1.0, -2.0, 0.3),
], ids=["nan_weight", "inf_weight", "theta_1", "theta_negative", "zero_weight",
        "negative_weight"])
def test_von_neumann_rho_rejects_invalid_inputs(gamma1, gamma2, theta):
    # DDParams checks the half-plane factor's inputs as it does every sweep's
    with pytest.raises(ValueError):
        von_neumann_rho(2.0, gamma1, gamma2, theta)


def test_advisor_small_gamma1():
    for gamma1 in (1e-6, 1e-2, 0.5):
        for K in (2.0, 10.0):
            gamma2, theta, bound = von_neumann_advisor(K, gamma1)
            assert gamma2 > K / np.tanh(K)
            assert 0.0 <= theta < 1.0 / 3.0
            assert bound < 1.0 / 3.0
            k = np.linspace(1.0, K, 2000)
            rho = von_neumann_rho(k, gamma1, gamma2, theta)
            assert np.abs(rho).max() <= bound + 1e-12


def test_advisor_boundary_gamma1_matches_primary_branch():
    K = 5.0
    gamma2, theta, bound = von_neumann_advisor(K, COTH_1)
    _, w0 = omega_max(COTH_1, gamma2)
    assert theta == pytest.approx(w0 / (2.0 + w0), abs=1e-15)
    assert bound == pytest.approx(theta, abs=1e-15)


def test_advisor_flat_branch_no_damping():
    # weights close together push the symbol maximum under zeta, where
    # damping cannot help
    gamma1, K = 10.0, 1.5
    gamma2, theta, bound = von_neumann_advisor(K, gamma1)
    zeta = (gamma1 - COTH_1) / (gamma1 + COTH_1)
    assert theta == 0.0
    assert bound == pytest.approx(zeta, abs=1e-15)
    k = np.linspace(1.0, K, 2000)
    assert np.abs(von_neumann_rho(k, gamma1, gamma2, theta)).max() <= bound + 1e-12


def test_advisor_shifted_branch():
    gamma1, K = 1.4, 10.0
    gamma2, theta, bound = von_neumann_advisor(K, gamma1)
    zeta = (gamma1 - COTH_1) / (gamma1 + COTH_1)
    _, w0 = omega_max(gamma1, gamma2)
    assert w0 > zeta
    assert theta == pytest.approx((w0 - zeta) / (2.0 + w0 - zeta), abs=1e-15)
    assert bound == pytest.approx((w0 + zeta) / (2.0 + w0 - zeta), abs=1e-15)
    k = np.linspace(1.0, K, 4000)
    assert np.abs(von_neumann_rho(k, gamma1, gamma2, theta)).max() <= bound + 1e-12


def test_advisor_rejects_bad_band():
    with pytest.raises(ValueError):
        von_neumann_advisor(0.5, 1.0)
    with pytest.raises(ValueError):
        von_neumann_advisor(10.0, -1.0)


def test_corollary_rate_piecewise():
    sevenths = [corollary_rate(i / 7.0) for i in range(7)]
    want = [1.0, 5.0 / 7.0, 3.0 / 7.0, 1.0 / 7.0, 5.0 / 14.0, 8.0 / 14.0, 11.0 / 14.0]
    assert np.abs(np.array(sevenths) - np.array(want)).max() < 1e-15
    assert corollary_rate(3.0 / 7.0) == pytest.approx(1.0 / 7.0, abs=1e-15)
    with pytest.raises(ValueError):
        corollary_rate(1.5)
