"""Trace-operator view of the two-sided Robin sweep.

The interface response of each strip is condensed into its
Dirichlet-to-Neumann map, the Schur complement of the strip stiffness on
the interface block, expressed in coordinates where the interface mass
matrix is the identity, so adjointness with respect to the trace inner
product becomes plain matrix symmetry.  In those coordinates one damped
double sweep is

    R = theta I - (1 - theta) T,
    T = (S2 - g1)(g2 + S2)^-1 (g2 - S1)(g1 + S1)^-1 = -r(S2; g2, g1) r(S1; g1, g2),

with r(S; g, g') = spectral.robin_factor(S, 1, g, g') each map's one-sided
factor at unit mass.  T is similar to a symmetric positive matrix whenever
the weights bracket both spectra (g1 at or below the smallest eigenvalue,
g2 at or above three times the largest).  That similarity transform bounds
the spectral radius of R by (2t - 1)/(2t + 1) with t the upper spectral
equivalence constant of the two maps.

Both strips' maps are diagonal in one sine basis of the interface, on
either split: a k-column strip's map has the eigenvalue z_j = sigma_j / mu_j
in mode j, its strip_symbol over the interface-mass eigenvalue (both in
spectral.split_modes).  So (s, t) are the extremes of z2_j / z1_j,
T_j = -c_j, and the radius is reduction_spectrum's.  mode_study builds the
operator table that way, with no strip solve and no eigensolve.  The tests
keep the dense maps, built from the strips' own Neumann solvers, with
their LAPACK eigensolves, as its reference (tests/dense_oracle.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from .dd_solvers import DDParams
from .grid_fem import GridSpec
from .spectral import reduction_spectrum, split_modes


@dataclass
class EquivalenceBounds:
    """Extremes s <= t of the generalized spectrum of (S2, S1), reported raw
    so artificial inputs are not masked: complementary strips give t <= 1
    if strip 1 is the narrower, else s >= 1 (strip_symbol falls with width)."""

    s: float
    t: float


def offcenter_columns(grid: GridSpec):
    """Column counts (left, right) for a split at the grid line nearest to
    x = 1/3."""
    k = round(2 * grid.n / 3)
    k = min(max(k, 1), 2 * grid.n - 1)
    return k, 2 * grid.n - k


def mode_study(grid: GridSpec, left_cols: int, right_cols: int):
    """(EquivalenceBounds, DDParams, radius) of the split into strips of
    left_cols and right_cols columns, which must tile the square, mode by
    mode: (s, t) are the extremes of z2_j / z1_j, the weights and damping
    those of _recommended_params, and the radius that of reduction_spectrum."""
    split = split_modes(grid.n_interface, left_cols, right_cols)
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


