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
either split: the map of a k-column strip has the eigenvalue
z_j = sigma_j / mu_j in mode j, its strip_symbol over the interface-mass
eigenvalue (trace_eigenvalues).  So (s, t) are the extremes of z2_j / z1_j,
T_j is a product of two scalars, and the radius is a maximum over the
modes.  mode_study builds the operator table that way, with no strip
solve and no eigensolve.

The dense path (DtNOperator, dtn_schur, equivalence_bounds,
build_iteration_operator, symmetrized_T and iteration_spectral_radius)
builds the same quantities from the strips' own solvers, without the
sine basis: each map is the inverse of its strip's Neumann-to-Dirichlet map,
whose columns are interface traces of the strip's own Neumann solver, and
the constants and the radius come from LAPACK eigensolves.  It is the
tests' reference for the per-mode study and the view of
demos/interface_operator.py, and it imports scipy only when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dd_solvers import DDParams
from .grid_fem import GridSpec, SubdomainSystem, assemble_interface_mass
from .spectral import robin_factor, strip_symbol


@dataclass
class DtNOperator:
    """Dense symmetric interface response map with its eigenpairs.

    The eigenpairs (eigvals ascending, orthonormal eigvecs as columns) are
    computed once, on construction, and every function of the map is
    applied through them.
    """

    matrix: np.ndarray
    eigvals: np.ndarray = field(init=False, repr=False)
    eigvecs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = self.matrix = np.asarray(self.matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("trace map must be a square matrix")
        # eigh reads one triangle only and would hide an asymmetric input
        if np.abs(A - A.T).max() > 1e-12 * max(1.0, np.abs(A).max()):
            raise ValueError("trace map is not symmetric to 1e-12")
        import scipy.linalg

        self.eigvals, self.eigvecs = scipy.linalg.eigh(A)

    @property
    def min_eig(self) -> float:
        return float(self.eigvals[0])

    @property
    def max_eig(self) -> float:
        return float(self.eigvals[-1])

    def function(self, func) -> np.ndarray:
        """f(S) = V f(w) V^T for a function f applied to the eigenvalues."""
        V = self.eigvecs
        return (V * func(self.eigvals)) @ V.T


@dataclass
class EquivalenceBounds:
    """Extremes s <= t of the generalized spectrum of (S2, S1).

    Genuine trace maps of complementary strips give s <= 1 <= t; the raw
    extremes are reported unconditionally so artificial inputs are not
    masked."""

    s: float
    t: float


def dtn_schur(system: SubdomainSystem) -> DtNOperator:
    """Interface Schur complement of one strip, as a DtNOperator.

    The trace of the Neumann solve with load e_j on the interface rows and
    none inside is column j of S^-1, with S = A_GG - A_GI A_II^-1 A_IG, so
    S is the inverse of the m x m matrix of those traces, one solve by
    SubdomainSystem.solver(0.0) per interface node.  S is then congruenced
    by the inverse Cholesky factor of the interface mass.
    """
    import scipy.linalg

    m = system.grid.n_interface
    solve, interior = system.solver(0.0).solve, np.zeros((system.n_cols - 1) * m)
    S = scipy.linalg.inv(np.array([solve(np.concatenate([interior, e]))[-m:]
                                   for e in np.eye(m)]).T)
    L = scipy.linalg.cholesky(system.interface_mass.to_dense(), lower=True)
    S = scipy.linalg.solve_triangular(L, S, lower=True)
    S = scipy.linalg.solve_triangular(L, S.T, lower=True).T
    op = DtNOperator(matrix=0.5 * (S + S.T))
    if op.min_eig <= 0:
        raise ValueError(f"interface response map is not positive definite (min eigenvalue {op.min_eig:.3e})")
    return op


def offcenter_columns(grid: GridSpec):
    """Column counts (left, right) for a split at the grid line nearest to
    x = 1/3."""
    k = round(2 * grid.n / 3)
    k = min(max(k, 1), 2 * grid.n - 1)
    return k, 2 * grid.n - k


def trace_eigenvalues(grid: GridSpec, n_cols: int) -> np.ndarray:
    """Eigenvalues z_j = sigma_j / mu_j, in sine-mode order j = 1..m, of the
    trace map of an n_cols-column strip: its strip_symbol over the
    interface-mass eigenvalues (dtn_schur's eigvals, unsorted)."""
    return strip_symbol(grid.n_interface, n_cols) / assemble_interface_mass(grid).eigenvalues()


def mode_study(grid: GridSpec, left_cols: int, right_cols: int):
    """(EquivalenceBounds, DDParams, radius) of the split into strips of
    left_cols and right_cols columns, mode by mode: (s, t) are the extremes
    of z2_j / z1_j, the weights and damping those of params_from_bounds,
    and the radius max_j |theta - (1 - theta) T_j| with T_j the product of
    the two one-sided factors, as in build_iteration_operator."""
    z1, z2 = trace_eigenvalues(grid, left_cols), trace_eigenvalues(grid, right_cols)
    ratio = z2 / z1
    bounds = EquivalenceBounds(s=float(ratio.min()), t=float(ratio.max()))
    params = _recommended_params(min(z1.min(), z2.min()), max(z1.max(), z2.max()), bounds.t)
    g1, g2, theta = params.gamma1, params.gamma2, params.theta
    T = (0.0 - robin_factor(z2, 1.0, g2, g1)) * robin_factor(z1, 1.0, g1, g2)
    return bounds, params, float(np.abs(theta - (1.0 - theta) * T).max())


def equivalence_bounds(S1: DtNOperator, S2: DtNOperator) -> EquivalenceBounds:
    """Spectral equivalence constants: the extreme eigenvalues of the
    generalized problem S2 x = lambda S1 x."""
    import scipy.linalg

    _check_pair(S1, S2)
    w = scipy.linalg.eigh(S2.matrix, S1.matrix, eigvals_only=True)
    return EquivalenceBounds(s=float(w[0]), t=float(w[-1]))


def _check_pair(S1, S2):
    if S1.matrix.shape != S2.matrix.shape:
        raise ValueError("trace maps have different sizes")


def build_iteration_operator(S1: DtNOperator, S2: DtNOperator, params: DDParams) -> np.ndarray:
    """Dense one-sweep error operator R = theta I - (1 - theta) T on the
    transformed transmission datum; 0.0 - r keeps a vanishing factor +0.0."""
    _check_pair(S1, S2)
    g1, g2 = params.gamma1, params.gamma2
    T = (S2.function(lambda x: 0.0 - robin_factor(x, 1.0, g2, g1))
         @ S1.function(lambda x: robin_factor(x, 1.0, g1, g2)))
    return params.theta * np.eye(len(T)) - (1.0 - params.theta) * T


def symmetrized_T(S1: DtNOperator, S2: DtNOperator, params: DDParams) -> np.ndarray:
    """Symmetric matrix similar to the undamped double-sweep operator T:

        (g1+S1)^(-1/2) (g2-S1)^(1/2) (S2-g1)(g2+S2)^(-1) (g2-S1)^(1/2) (g1+S1)^(-1/2)

    Requires the weights to bracket both spectra; the failing inequality
    is named if they do not.
    """
    _check_pair(S1, S2)
    g1, g2 = params.gamma1, params.gamma2
    lo = min(S1.min_eig, S2.min_eig)
    hi = max(S1.max_eig, S2.max_eig)
    slack = 1e-12 * max(1.0, hi)
    if g1 > lo + slack:
        raise ValueError(
            f"weight bracket violated: gamma1 = {g1:.6g} exceeds the smallest "
            f"trace eigenvalue min(lam1, lam2) = {lo:.6g}")
    if g2 < 3.0 * hi - slack:
        raise ValueError(
            f"weight bracket violated: gamma2 = {g2:.6g} is below three times "
            f"the largest trace eigenvalue, 3 max(lam1, lam2) = {3.0 * hi:.6g}")
    F = S1.function(lambda x: np.sqrt(np.maximum(robin_factor(x, 1.0, g1, g2), 0.0)))
    out = F @ S2.function(lambda x: 0.0 - robin_factor(x, 1.0, g2, g1)) @ F
    return 0.5 * (out + out.T)


def params_from_bounds(S1: DtNOperator, S2: DtNOperator,
                       bounds: EquivalenceBounds) -> DDParams:
    """Weights and damping from the spectral extremes: g1 at the smallest
    eigenvalue, g2 at three times the largest, theta = (2t-1)/(2t+1) with
    t = bounds.t, the upper equivalence constant of the pair."""
    return _recommended_params(min(S1.min_eig, S2.min_eig), max(S1.max_eig, S2.max_eig), bounds.t)


def _recommended_params(lo, hi, t) -> DDParams:
    return DDParams(gamma1=float(lo), gamma2=3.0 * float(hi),
                    theta=(2.0 * t - 1.0) / (2.0 * t + 1.0))


def iteration_spectral_radius(R: np.ndarray) -> float:
    """Spectral radius of the sweep operator: the largest eigenvalue
    modulus from one general (LAPACK geev) eigensolve."""
    import scipy.linalg

    return float(np.abs(scipy.linalg.eigvals(R)).max())
