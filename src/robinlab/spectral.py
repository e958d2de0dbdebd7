"""Closed-form mode analysis of the two-sided Robin iteration on uniform grids.

Every trace-space operator in the symmetric split diagonalizes in the
discrete sine basis.  For mode j = 1..m of the m = 2n-1 interface nodes,
with theta_j = j pi / (m+1),

    lam_j = 4 sin^2(theta_j / 2)            (interface eigenvalue)
    sigma_j = sinh(kappa_j) coth(n kappa_j),   kappa_j = 2 asinh(sin(theta_j / 2))
    tlam_j = 1 / (sigma_j + 1 + lam_j/2)
    a_j = (h - (h/6) lam_j) * tlam_j        (mass-weighted trace response)
    b_j = sigma_j * tlam_j                  (stiffness-weighted response)

govern one sweep: with Robin weights g1, g2 the damped error factor is

    theta + (1 - theta) * c_j,   c_j = r_j(g1, g2) r_j(g2, g1),
    r_j(g, g') = (g' a_j - b_j) / (b_j + g a_j)     (one strip's robin_factor).

sigma_j is the Neumann Schur symbol of an n-column strip (strip_symbol), the
discrete counterpart of the half-strip symbol k coth(k L), and tlam_j the
diagonal of the clamped strip's trace inverse; strip_load_modes gives a
strip load's interface response per mode from the same kappa_j.  tlam_j stays inside
(1/8, 1) for every n, so b_j / a_j lives in [3 + 7h/16, 21/(2h)] and c_j in
(-1, -1/2), and the radius at theta = 3/7 is at most 1/7.  That 1/7 is the
symmetric split's envelope; a fixed off-center split has its own (0.33 at
x = 5/6).  The module also carries the continuous (half-plane Fourier)
counterpart where the trace symbol is k coth k, and tuning helpers built on
both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np


def fd_eigenvalue(i, m):
    """Eigenvalue 4 sin^2(i pi / (2(m+1))) of tridiag(-1, 2, -1) of size m."""
    i = np.asarray(i, dtype=float)
    if np.any(i < 1) or np.any(i > m):
        raise ValueError("mode index out of range")
    s = np.sin(i * np.pi / (2.0 * (m + 1)))
    return 4.0 * s * s


@lru_cache(maxsize=8)
def sine_basis_matrix(m):
    """All sine modes as rows; symmetric and involutory (Phi @ Phi = I).
    Shared by every caller of the same m, so read-only."""
    k = np.arange(1, m + 1)
    phi = np.sqrt(2.0 / (m + 1)) * np.sin(np.outer(k, k) * (np.pi / (m + 1)))
    phi.flags.writeable = False
    return phi


def strip_symbol(m, k):
    """Neumann Schur symbol sigma_j of a k-column strip, j = 1..m.

    In sine mode j of the m interface nodes a strip column carries
    2 cosh(kappa_j) = 4 - 2 cos(theta_j), the Neumann interface column half
    of it, and neighbouring columns couple by -1.  The Schur complement of
    that tridiagonal system onto the interface unknown is

        sigma_j = sinh(kappa_j) coth(k kappa_j),   kappa_j = 2 asinh(sin(theta_j / 2)),

    with theta_j = j pi / (m+1); no step subtracts nearby numbers.  The
    Robin symbol with weight gamma adds gamma times the interface-mass
    eigenvalue.
    """
    if m < 1 or k < 1:
        raise ValueError("strip_symbol needs m >= 1 interface nodes and k >= 1 columns")
    kappa = _strip_kappa(m)
    return np.sinh(kappa) / np.tanh(k * kappa)


def _strip_kappa(m):
    """kappa_j = 2 asinh(sin(j pi / (2(m+1)))), j = 1..m."""
    return 2.0 * np.arcsinh(np.sin(np.arange(1, m + 1) * np.pi / (2.0 * (m + 1))))


def strip_load_modes(load, m, k):
    """Weight-free sine coefficients of a k-column strip's load.

    With the interior clamped, sine mode j of the strip is the tridiagonal
    system of strip_symbol, whose Green's function at the last interior
    column is sinh(i kappa_j) / sinh(k kappa_j) for column i (the interface
    column is i = k).  Eliminating the interior leaves, per mode,

        (sigma_j + gamma mu_j) t_j = sum_i w_ij (V b_i)_j,
        w_ij = sinh(i kappa_j) / sinh(k kappa_j),

    with b_i column i of the load (the load numbered as in StripSolver),
    V the sine basis, t = V times the interface trace of the Robin solve of
    weight gamma and mu the interface-mass eigenvalues; this returns the
    right-hand side, which no weight enters (the capacitance method of
    Buzbee, Golub and Nielson).  w_ij is formed as
    exp(-(k-i) kappa_j) expm1(-2i kappa_j) / expm1(-2k kappa_j), which
    neither overflows nor cancels.
    """
    kappa = _strip_kappa(m)
    i = np.arange(1, k + 1)[:, None]
    w = np.exp(-(k - i) * kappa) * np.expm1(-2.0 * i * kappa) / np.expm1(-2.0 * k * kappa)
    return (w * (np.reshape(load, (k, m)) @ sine_basis_matrix(m))).sum(axis=0)


def mode_arrays(n):
    """(lam, tlam, a, b) arrays for all modes of the symmetric split."""
    h = 1.0 / (2 * n)
    lam = fd_eigenvalue(np.arange(1, 2 * n), 2 * n - 1)
    sigma = strip_symbol(2 * n - 1, n)
    tlam = 1.0 / (sigma + 1.0 + 0.5 * lam)
    a = (h - (h / 6.0) * lam) * tlam
    b = sigma * tlam
    return lam, tlam, a, b


def robin_factor(sigma, mu, gamma, gamma_other):
    """Per-mode factor of one Robin solve (weight gamma, strip symbol sigma,
    interface-mass eigenvalue mu) and the update with the other weight."""
    return (gamma_other * mu - sigma) / (sigma + gamma * mu)


def cj_values(a, b, gamma1, gamma2):
    """Two-sided damping factors c_j of modes with coefficients (a_j, b_j),
    the product of both strips' robin_factor; scalars or arrays."""
    return robin_factor(b, a, gamma1, gamma2) * robin_factor(b, a, gamma2, gamma1)


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

        omega(z) = ((gamma2 - z) / (gamma2 + z)) * ((z - gamma1) / (z + gamma1)),

    which is -c_j at a_j = 1, b_j = z (cj_values); subtracting from 0.0
    keeps omega(gamma1) at +0.0.
    """
    return 0.0 - cj_values(1.0, np.asarray(z, dtype=float), gamma1, gamma2)


def omega_max(gamma1, gamma2):
    """Maximizer z0 = sqrt(gamma1 gamma2) of omega and the maximum value
    ((s2 - s1) / (s2 + s1))^2, s_i = sqrt(gamma_i); gamma2 / gamma1 may
    overflow, and z0 is s1 s2 where gamma1 gamma2 overflows or underflows."""
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError("Robin weights must be positive")
    s1, s2 = math.sqrt(gamma1), math.sqrt(gamma2)
    product = gamma1 * gamma2
    z0 = math.sqrt(product) if 0.0 < product < math.inf else s1 * s2
    return z0, ((s2 - s1) / (s2 + s1)) ** 2


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
    """Damped per-sweep factor theta + (1 - theta) c of transverse frequency
    k on the half plane, with c the two-sided factor of cj_values at
    a = 1, b = k coth k."""
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError("Robin weights must be positive")
    k = np.asarray(k, dtype=float)
    return theta + (1.0 - theta) * cj_values(1.0, k / np.tanh(k), gamma1, gamma2)


COTH_1 = 1.0 / math.tanh(1.0)
ADVISOR_GAMMA2_FACTOR = 1.1


def von_neumann_advisor(K, gamma1):
    """Pick (gamma2, theta) for frequencies 1 <= k <= K at a given gamma1.

    Returns (gamma2, theta, bound) with bound a proven cap on the damped
    factor magnitude over the whole band.  gamma2 = ADVISOR_GAMMA2_FACTOR
    K coth K keeps the second factor of the symbol positive.

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
    z_top = K / math.tanh(K)
    gamma2 = ADVISOR_GAMMA2_FACTOR * z_top
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
