"""A strip's interface response map by sparse elimination, kept for the tests as an oracle.

operator_analysis.dtn_schur eliminates the strip interior through the
strip's own fast solvers.  This computes the same map the long way: it
assembles the free-interface strip stiffness as a CSR matrix, slices it
into interior and interface blocks, factors the interior block by SuperLU
and forms S = A_GG - A_GI A_II^-1 A_IG, then applies the same congruence
by the interface mass's Cholesky factor and the same symmetrization.
"""

import scipy.linalg
import scipy.sparse.linalg

from robin_oracle import strip_stiffness


def splu_schur(system):
    """Dense symmetric trace map of one strip in mass-orthonormal coordinates."""
    m = system.grid.n_interface
    base = system.n_cols * m - m
    A = strip_stiffness(system.grid, system.n_cols)
    S = A[base:, base:].toarray()
    if base > 0:
        lu = scipy.sparse.linalg.splu(A[:base, :base].tocsc())
        S = S - A[base:, :base].toarray() @ lu.solve(A[:base, base:].toarray())
    L = scipy.linalg.cholesky(system.interface_mass.to_dense(), lower=True)
    S = scipy.linalg.solve_triangular(L, S, lower=True)
    S = scipy.linalg.solve_triangular(L, S.T, lower=True).T
    return 0.5 * (S + S.T)
