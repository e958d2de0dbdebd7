"""The dense trace-operator path, kept for the tests as the reference of
spectral.mode_study.

Each strip's Dirichlet-to-Neumann map is built as a dense matrix from the
strip's own Neumann solver, without the sine basis: the inverse of its
Neumann-to-Dirichlet map, whose columns are interface traces of Neumann
solves, congruenced into coordinates where the interface mass matrix is
the identity.  The equivalence constants, the recommended weights and the
sweep radius then come from LAPACK eigensolves of the dense maps and of
the dense one-sweep operator R = theta I - (1 - theta) T, and
symmetrized_T is a symmetric matrix similar to T.  mode_study gives the
same numbers mode by mode; tests/schur_oracle.py builds the same maps by
sparse elimination.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from robinlab.grid_fem import SubdomainSystem
from robinlab.spectral import DDParams, EquivalenceBounds, _recommended_params, robin_factor


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


def dtn_schur(system: SubdomainSystem) -> DtNOperator:
    """Interface Schur complement of one strip, as a DtNOperator.

    The trace of the Neumann solve with load e_j on the interface rows and
    none inside is column j of S^-1, with S = A_GG - A_GI A_II^-1 A_IG, so
    S is the inverse of the m x m matrix of those traces, one solve by
    SubdomainSystem.solver(0.0) per interface node.  S is then congruenced
    by the inverse Cholesky factor of the interface mass.
    """
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


def equivalence_bounds(S1: DtNOperator, S2: DtNOperator) -> EquivalenceBounds:
    """Spectral equivalence constants: the extreme eigenvalues of the
    generalized problem S2 x = lambda S1 x."""
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


def iteration_spectral_radius(R: np.ndarray) -> float:
    """Spectral radius of the sweep operator: the largest eigenvalue
    modulus from one general (LAPACK geev) eigensolve."""
    return float(np.abs(scipy.linalg.eigvals(R)).max())
