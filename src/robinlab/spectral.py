"""Closed-form mode analysis of the two-sided Robin iteration on uniform grids.

Every trace-space operator of a split diagonalizes in the discrete sine
basis.  For mode j = 1..m of the m interface nodes, with h = 1/(m+1) and
theta_j = j pi / (m+1), a split (split_modes) holds

    mu_j = 4h/6 + (2h/6) cos(theta_j)         (Tridiagonal.interface_mass)
    sigma_j = sinh(kappa_j) coth(k kappa_j),   kappa_j = 2 asinh(sin(theta_j / 2)),

sigma_j for each strip of k columns (strip_symbol, its Neumann Schur symbol,
the discrete k coth(k L)).  With Robin weights g1, g2 a sweep's damped factor is

    theta + (1 - theta) * c_j,   c_j = r_j(sigma1_j, g1, g2) r_j(sigma2_j, g2, g1),
    r_j(sigma, g, g') = (g' mu_j - sigma) / (sigma + g mu_j)     (robin_factor).

strip_load_modes gives a strip load's interface response per mode from the
same kappa_j.  On the symmetric split (m = 2n-1, both strips n columns)
mode_arrays scales the split's (mu_j, sigma_j) by
tlam_j = 1 / (sigma_j + 1 + lam_j/2), lam_j = 4 sin^2(theta_j / 2), the
diagonal of the clamped strip's trace inverse, into the printed (a_j, b_j).
tlam_j stays inside (1/8, 1) for every n, so z_j = sigma_j / mu_j = b_j / a_j
lives in [3 + 7h/16, 21/(2h)] (z_bracket) and c_j in (-1, -1/2), and the
radius at theta = 3/7 is at most 1/7.  That 1/7 is the symmetric split's
envelope; a fixed off-center split has its own (0.33 at x = 5/6).
mode_study reads a split as trace maps: each strip's Dirichlet-to-Neumann
map, in coordinates where the interface mass is the identity, has the
eigenvalue z_j in mode j, so the spectral equivalence
constants (s, t) of the two maps are the extremes of z2_j / z1_j, the
sweep's trace operator T has the eigenvalues -c_j, and weights that
bracket both spectra bound the radius by (2t - 1)/(2t + 1).  The dense
maps, with their LAPACK eigensolves, are its reference in the tests
(tests/dense_oracle.py).
The module also carries the continuous (half-plane Fourier) counterpart
where the trace symbol is k coth k, and tuning helpers built on both.

It is the package's leaf and imports no other robinlab module, so the
pieces every layer shares live here: the sweep parameters (DDParams),
the integer check (is_integral) and the constant-coefficient tridiagonal
blocks (Tridiagonal), the interface mass among them.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np


def is_integral(x) -> bool:
    """Whether x is an integer, or an integral real, that a float can hold.
    An integer is compared with the largest float, not converted to one,
    which would raise OverflowError past it."""
    if isinstance(x, numbers.Integral):
        return abs(x) <= sys.float_info.max
    return isinstance(x, numbers.Real) and float(x).is_integer()


@dataclass
class DDParams:
    """Robin weights, damping, and stopping control for the sweeps."""

    gamma1: float
    gamma2: float
    theta: float
    stop_tol: float = 1e-11
    max_iter: int = 2000

    def __post_init__(self):
        # chained comparisons with inf also reject nan
        if not (0.0 < self.gamma1 < np.inf and 0.0 < self.gamma2 < np.inf):
            raise ValueError("Robin weights gamma1, gamma2 must be positive and finite")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("damping theta must lie in [0, 1)")
        if not 0.0 < self.stop_tol < np.inf:
            raise ValueError("stop_tol must be positive and finite")
        if not (is_integral(self.max_iter) and self.max_iter >= 1):
            raise ValueError("max_iter must be an integer from 1 to the largest float")
        self.max_iter = int(self.max_iter)


@dataclass(frozen=True)
class Tridiagonal:
    """Constant-coefficient symmetric tridiagonal matrix."""

    size: int
    diag: float
    off: float

    @classmethod
    def interface_mass(cls, size):
        """Interface mass matrix (h/6) tridiag(1, 4, 1) on size trace nodes,
        h = 1/(size+1)."""
        h = 1.0 / (size + 1)
        return cls(size, 4.0 * h / 6.0, h / 6.0)

    def matvec(self, v):
        """The product with the vector v."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.size,):
            raise ValueError("vector length does not match matrix size")
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out

    def eigenvalues(self):
        """Eigenvalues in index order j = 1..size: diag + 2 off cos(j pi / (size+1))."""
        j = np.arange(1, self.size + 1)
        return self.diag + 2.0 * self.off * np.cos(j * np.pi / (self.size + 1))

    def to_dense(self):
        out = np.diag(np.full(self.size, self.diag))
        idx = np.arange(self.size - 1)
        out[idx, idx + 1] = self.off
        out[idx + 1, idx] = self.off
        return out


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


def robin_factor(sigma, mu, gamma, gamma_other):
    """Per-mode factor of one Robin solve (weight gamma, strip symbol sigma,
    interface-mass eigenvalue mu) and the update with the other weight."""
    return (gamma_other * mu - sigma) / (sigma + gamma * mu)


class SplitModes(NamedTuple):
    """A split in sine modes: the interface-mass eigenvalues mu and the
    strip_symbol sigma1, sigma2 of its two strips, shared and so read-only
    (split_modes).  mu = 1, sigma1 = sigma2 = z is the half plane (omega)."""

    mu: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray

    def cj_values(self, gamma1, gamma2):
        """Two-sided factors c_j: both strips' robin_factor, gamma1 on strip 1."""
        return (robin_factor(self.sigma1, self.mu, gamma1, gamma2)
                * robin_factor(self.sigma2, self.mu, gamma2, gamma1))


@lru_cache(maxsize=64)
def split_modes(m, k1, k2) -> SplitModes:
    """SplitModes of m interface nodes between strips of k1, k2 >= 1 columns,
    k1 + k2 = m + 1; mu is the spectrum of the interface mass.  The edge
    widths are accepted, but the canonical weights (gamma1 = 1 on strip 1)
    diverge at k2 = 1: at theta = 3/7 the radius is 9.19, 38.4 and 155 at
    n = 36, 144 and 576, and 0.41-0.43 at k1 = 1."""
    if not (k1 >= 1 and k2 >= 1 and k1 + k2 == m + 1):
        raise ValueError(f"strips of {k1} and {k2} columns do not tile the square; it needs "
                         f"widths summing to 2n = {m + 1}, each at least 1")
    mu = Tridiagonal.interface_mass(m).eigenvalues()
    sigma1 = strip_symbol(m, k1)
    sigma2 = sigma1 if k2 == k1 else strip_symbol(m, k2)
    mu.flags.writeable = sigma1.flags.writeable = sigma2.flags.writeable = False
    return SplitModes(mu, sigma1, sigma2)


def mode_arrays(n):
    """(lam, tlam, a = mu tlam, b = sigma tlam) for all modes of the symmetric split."""
    lam = fd_eigenvalue(np.arange(1, 2 * n), 2 * n - 1)
    split = split_modes(2 * n - 1, n, n)
    tlam = 1.0 / (split.sigma1 + 1.0 + 0.5 * lam)
    return lam, tlam, split.mu * tlam, split.sigma1 * tlam


def reduction_spectrum(split: SplitModes, params):
    """Eigenvalues theta + (1-theta) c_j of one damped double sweep on a
    split, for every mode, and their maximum magnitude (the convergence
    rate); params needs attributes gamma1, gamma2, theta."""
    vals = params.theta + (1.0 - params.theta) * split.cj_values(params.gamma1, params.gamma2)
    return vals, float(np.abs(vals).max())


@dataclass
class EquivalenceBounds:
    """Extremes s <= t of the generalized spectrum of (S2, S1), reported raw
    so artificial inputs are not masked: complementary strips give t <= 1
    if strip 1 is the narrower, else s >= 1 (strip_symbol falls with width)."""

    s: float
    t: float


def mode_study(split: SplitModes):
    """(EquivalenceBounds, DDParams, radius) of a split, mode by mode:
    (s, t) are the extremes of z2_j / z1_j, the weights and damping those
    of _recommended_params, and the radius that of reduction_spectrum."""
    z1, z2 = split.sigma1 / split.mu, split.sigma2 / split.mu
    ratio = z2 / z1
    bounds = EquivalenceBounds(s=float(ratio.min()), t=float(ratio.max()))
    params = _recommended_params(min(z1.min(), z2.min()), max(z1.max(), z2.max()), bounds.t)
    return bounds, params, reduction_spectrum(split, params)[1]


def _recommended_params(lo, hi, t) -> DDParams:
    """Weights and damping from the trace maps' spectral extremes: g1 at
    the smallest eigenvalue lo, g2 at three times the largest hi, and
    theta = (2t-1)/(2t+1) with t the upper equivalence constant."""
    return DDParams(gamma1=float(lo), gamma2=3.0 * float(hi),
                    theta=(2.0 * t - 1.0) / (2.0 * t + 1.0))


def omega(z, gamma1, gamma2):
    """Symbol of the undamped double sweep on the half plane:

        omega(z) = ((gamma2 - z) / (gamma2 + z)) * ((z - gamma1) / (z + gamma1)),

    which is -c_j of SplitModes(1, z, z); subtracting from 0.0 keeps
    omega(gamma1) at +0.0.
    """
    z = np.asarray(z, dtype=float)
    return 0.0 - SplitModes(1.0, z, z).cj_values(gamma1, gamma2)


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
    for a symbol ranging over [a, b] (von_neumann_advisor reads it):

        theta0 = (a + b) / (2 + a + b),   value |b - a| / (2 + a + b).
    """
    denom = 2.0 + a + b
    if denom <= 0:
        raise ValueError("range endpoints must satisfy 2 + a + b > 0")
    return (a + b) / denom, abs(b - a) / denom


def von_neumann_rho(k, gamma1, gamma2, theta):
    """Damped per-sweep factor of transverse frequency k on the half plane:
    reduction_spectrum's on SplitModes(1, z, z), z = k coth k (omega), with
    the weights and damping checked by DDParams."""
    z = np.asarray(k, dtype=float) / np.tanh(k)
    return reduction_spectrum(SplitModes(1.0, z, z), DDParams(gamma1, gamma2, theta))[0]


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
    the balance shifts by zeta = (gamma1 - coth 1) / (gamma1 + coth 1):
    theta and the bound are theta_star's over [-zeta, w0].  When the symbol
    maximum w0 does not exceed zeta no damping helps, so theta = 0 with
    bound zeta.
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
    theta, bound = theta_star(w0, -zeta)
    return gamma2, theta, bound


def corollary_rate(theta):
    """Grid-independent rate envelope of the damped double sweep at the
    canonical weights: 1 - 2 theta up to theta = 3/7, then (3 theta - 1)/2."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if theta <= 3.0 / 7.0:
        return 1.0 - 2.0 * theta
    return (3.0 * theta - 1.0) / 2.0


@dataclass(eq=False)
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
    """The symmetric split's symbol values z_j = sigma_j / mu_j (which are
    b_j / a_j) together with the proven enclosure [3 + 7h/16, 21/(2h)]."""
    h = 1.0 / (2 * n)
    split = split_modes(2 * n - 1, n, n)
    return split.sigma1 / split.mu, (3.0 + 7.0 * h / 16.0, 21.0 / (2.0 * h))
