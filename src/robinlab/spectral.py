"""Closed-form mode analysis of the two-sided Robin iteration on uniform grids.

Every trace-space operator in the symmetric split diagonalizes in the
discrete sine basis.  For mode j = 1..2n-1 the three numbers

    a_j = (h - (h/6) lam_j) * tlam_j        (mass-weighted trace response)
    b_j = 1 - (1 + lam_j/2) * tlam_j        (stiffness-weighted response)
    lam_j = 4 sin^2(j pi / (8n))            (interface eigenvalue, m = 2n-1)

govern one sweep: with Robin weights g1, g2 the damped error factor is

    theta + (1 - theta) * c_j,
    c_j = ((g1 a_j - b_j) / (g1 a_j + b_j)) * ((g2 a_j - b_j) / (g2 a_j + b_j)).

tlam_j is a finite lattice sum; it stays inside (1/8, 1) for every n, so
b_j / a_j lives in [3 + 7h/16, 21/(2h)] and c_j in (-1, -1/2).  The module
also carries the continuous (half-plane Fourier) counterpart where the
trace symbol is k coth k, and tuning helpers built on both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


def fd_eigenvalue(i, m):
    """Eigenvalue 4 sin^2(i pi / (2(m+1))) of tridiag(-1, 2, -1) of size m."""
    i = np.asarray(i, dtype=float)
    if np.any(i < 1) or np.any(i > m):
        raise ValueError("mode index out of range")
    s = np.sin(i * np.pi / (2.0 * (m + 1)))
    return 4.0 * s * s


def sine_basis_vector(i, m):
    """Orthonormal eigenvector of tridiag(-1, 2, -1): entries
    sqrt(2/(m+1)) sin(i k pi / (m+1)), k = 1..m."""
    if not 1 <= i <= m:
        raise ValueError("mode index out of range")
    k = np.arange(1, m + 1)
    return np.sqrt(2.0 / (m + 1)) * np.sin(i * k * np.pi / (m + 1))


def sine_basis_matrix(m):
    """All sine modes as rows; symmetric and involutory (Phi @ Phi = I)."""
    k = np.arange(1, m + 1)
    return np.sqrt(2.0 / (m + 1)) * np.sin(np.outer(k, k) * (np.pi / (m + 1)))


def tilde_lambda(j, n):
    """Diagonal entry of the clamped-strip trace inverse in the sine basis:

        tlam_j = (2/(n+1)) sum_{i=1..n} sin^2(i pi/(n+1)) / (lam_i^(n) + lam_j^(2n-1))

    summed with math.fsum so the value is reliable far past n = 10^4.
    """
    m = 2 * n - 1
    if not 1 <= j <= m:
        raise ValueError("mode index out of range")
    lam_j = float(fd_eigenvalue(j, m))
    terms = []
    for i in range(1, n + 1):
        s = math.sin(i * math.pi / (n + 1))
        terms.append(s * s / (float(fd_eigenvalue(i, n)) + lam_j))
    return 2.0 / (n + 1) * math.fsum(terms)


def tilde_lambda_all(n):
    """Vectorized tilde_lambda for every mode j = 1..2n-1 at once."""
    m = 2 * n - 1
    lam_col = fd_eigenvalue(np.arange(1, n + 1), n)[:, None]
    lam_row = fd_eigenvalue(np.arange(1, m + 1), m)[None, :]
    s = np.sin(np.arange(1, n + 1) * np.pi / (n + 1))[:, None]
    return 2.0 / (n + 1) * np.sum(s * s / (lam_col + lam_row), axis=0)


@dataclass
class ModeCoefficients:
    """Per-mode scalars of the symmetric split; c is filled in once the
    Robin weights are known."""

    j: int
    lambda_fd: float
    tilde_lambda: float
    a: float
    b: float
    c: Optional[float] = None


def _ab_from(lam, tlam, h):
    a = (h - (h / 6.0) * lam) * tlam
    b = 1.0 - (1.0 + 0.5 * lam) * tlam
    return a, b


def mode_coefficients(j, n) -> ModeCoefficients:
    h = 1.0 / (2 * n)
    lam = float(fd_eigenvalue(j, 2 * n - 1))
    tlam = tilde_lambda(j, n)
    a, b = _ab_from(lam, tlam, h)
    return ModeCoefficients(j=j, lambda_fd=lam, tilde_lambda=tlam, a=a, b=b)


def mode_arrays(n):
    """(lam, tlam, a, b) arrays for all modes of the symmetric split."""
    h = 1.0 / (2 * n)
    lam = fd_eigenvalue(np.arange(1, 2 * n), 2 * n - 1)
    tlam = tilde_lambda_all(n)
    a, b = _ab_from(lam, tlam, h)
    return lam, tlam, a, b


def cj_values(a, b, gamma1, gamma2):
    """Two-sided damping factors c_j of modes with coefficients (a_j, b_j);
    a and b may be scalars or arrays."""
    return ((gamma1 * a - b) / (gamma1 * a + b)) * ((gamma2 * a - b) / (gamma2 * a + b))


def cj_eigenvalue(coeff: ModeCoefficients, gamma1, gamma2):
    """Two-sided damping factor of one mode; fills and returns coeff.c."""
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError("Robin weights must be positive")
    coeff.c = float(cj_values(coeff.a, coeff.b, gamma1, gamma2))
    return coeff.c


def reduction_spectrum(n, params):
    """Eigenvalues theta + (1-theta) c_j of one damped double sweep, for
    every mode, along with their maximum magnitude (the convergence rate).

    params needs attributes gamma1, gamma2, theta.
    """
    _, _, a, b = mode_arrays(n)
    c = cj_values(a, b, params.gamma1, params.gamma2)
    vals = params.theta + (1.0 - params.theta) * c
    return vals, float(np.abs(vals).max())


def omega(z, gamma1, gamma2):
    """Symbol of the undamped double sweep on the half plane:

        omega(z) = ((gamma2 - z) / (gamma2 + z)) * ((z - gamma1) / (z + gamma1)).
    """
    z = np.asarray(z, dtype=float)
    return ((gamma2 - z) / (gamma2 + z)) * ((z - gamma1) / (z + gamma1))


def omega_max(gamma1, gamma2):
    """Maximizer z0 = sqrt(gamma1 gamma2) of omega and the maximum value
    (eta - 1)^2 / (eta + 1)^2 with eta = sqrt(gamma2 / gamma1)."""
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError("Robin weights must be positive")
    z0 = math.sqrt(gamma1 * gamma2)
    eta = math.sqrt(gamma2 / gamma1)
    return z0, ((eta - 1.0) / (eta + 1.0)) ** 2


def theta_star(a, b):
    """Damping that balances |theta - (1-theta) a| against |theta - (1-theta) b|
    for a symbol ranging over [a, b]:

        theta0 = (a + b) / (2 + a + b),   value |b - a| / (2 + a + b).
    """
    denom = 2.0 + a + b
    if denom <= 0:
        raise ValueError("range endpoints must satisfy 2 + a + b > 0")
    return (a + b) / denom, abs(b - a) / denom


def von_neumann_rho(k, gamma1, gamma2, theta):
    """Damped per-sweep factor of transverse frequency k on the half plane,
    in the raw product form."""
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError("Robin weights must be positive")
    k = np.asarray(k, dtype=float)
    z = k / np.tanh(k)
    s = gamma1 + gamma2
    return theta + (1.0 - theta) * (s / (gamma2 + z) - 1.0) * (s / (gamma1 + z) - 1.0)


def von_neumann_rho_via_omega(k, gamma1, gamma2, theta):
    """Same factor written through the symbol: theta - (1-theta) omega(k coth k)."""
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError("Robin weights must be positive")
    k = np.asarray(k, dtype=float)
    return theta - (1.0 - theta) * omega(k / np.tanh(k), gamma1, gamma2)


COTH_1 = 1.0 / math.tanh(1.0)


def von_neumann_advisor(K, gamma1, gamma2_factor=1.1):
    """Pick (gamma2, theta) for frequencies 1 <= k <= K at a given gamma1.

    Returns (gamma2, theta, bound) with bound a proven cap on the damped
    factor magnitude over the whole band.  gamma2 is set a fixed factor
    above K coth K so the second factor of the symbol stays positive.

    For gamma1 below coth 1 the symbol is nonnegative on the band and
    theta = omega(z0) / (2 + omega(z0)) balances its range, giving a bound
    below 1/3.  For larger gamma1 the low end of the band turns negative;
    the balance shifts by zeta = (gamma1 - coth 1) / (gamma1 + coth 1),
    and when the symbol maximum does not exceed zeta no damping helps,
    so theta = 0 with bound zeta.
    """
    if K < 1:
        raise ValueError("band limit K must be at least 1")
    if gamma1 <= 0:
        raise ValueError("gamma1 must be positive")
    if gamma2_factor <= 1.0:
        raise ValueError("gamma2_factor must exceed 1")
    z_top = K / math.tanh(K)
    gamma2 = gamma2_factor * z_top
    _, w0 = omega_max(gamma1, gamma2)
    zeta = max(0.0, (gamma1 - COTH_1) / (gamma1 + COTH_1))
    if w0 <= zeta:
        return gamma2, 0.0, zeta
    theta = (w0 - zeta) / (2.0 + w0 - zeta)
    bound = (w0 + zeta) / (2.0 + w0 - zeta)
    return gamma2, theta, bound


def corollary_rate(theta):
    """Grid-independent rate envelope of the damped double sweep at the
    canonical weights: 1 - 2 theta up to theta = 3/7, then (3 theta - 1)/2."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if theta <= 3.0 / 7.0:
        return 1.0 - 2.0 * theta
    return (3.0 * theta - 1.0) / 2.0


@dataclass
class BoundMargins:
    """Sign margins 3 a_j - b_j for every mode, with the monotonicity and
    negativity flags the rate bound rests on."""

    n: int
    margins: np.ndarray
    strictly_decreasing: bool
    below_sharp_quadratic: bool
    below_linear: Optional[bool]


def bound_margins(n) -> BoundMargins:
    """3 a_j - b_j over j = 1..2n-1.  The sequence must decrease strictly,
    stay below -7 h^2 / 16 at j = 1, and (once n >= 11) below -0.049 h."""
    h = 1.0 / (2 * n)
    _, _, a, b = mode_arrays(n)
    margins = 3.0 * a - b
    diffs = np.diff(margins)
    first = float(margins[0])
    return BoundMargins(
        n=n,
        margins=margins,
        strictly_decreasing=bool(np.all(diffs < 0.0)),
        below_sharp_quadratic=first < -7.0 * h * h / 16.0,
        below_linear=(first < -0.049 * h) if n >= 11 else None,
    )


def z_bracket(n):
    """Range of the discrete symbol values z_j = b_j / a_j together with
    the proven enclosure [3 + 7h/16, 21/(2h)]."""
    h = 1.0 / (2 * n)
    _, _, a, b = mode_arrays(n)
    z = b / a
    return z, (3.0 + 7.0 * h / 16.0, 21.0 / (2.0 * h))
