"""Assembled strip matrices, kept for the tests as an oracle.

robinlab builds a strip's Robin block in one place,
SubdomainSystem.interface_block, and never assembles a strip matrix for a
table.  This states the clamped five-point strip matrix and the Neumann
stiffness by their interface blocks, and adds gamma times the interface
mass to the stiffness as COO triplets on the trailing trace block, a sum
that shares no code with interface_block, so the tests can check the
Robin solvers and the closed-form sweep against it.
"""

import numpy as np
from scipy.sparse import csr_matrix

from robinlab.grid_fem import strip_matrix
from robinlab.spectral import Tridiagonal


def strip_stiffness(grid, n_cols=None, clamped=False):
    """CSR of the n_cols-column strip (n by default): the P1 stiffness with
    the interface column free, whose block is half the five-point block
    tridiag(-0.5, 2, -0.5), or with clamped=True the five-point matrix A0
    with the interface column still clamped, block tridiag(-1, 4, -1)."""
    m = grid.n_interface
    block = Tridiagonal(m, 4.0, -1.0) if clamped else Tridiagonal(m, 2.0, -0.5)
    return strip_matrix(grid.n if n_cols is None else n_cols, block)


def add_interface_tridiagonal(A, tri, coeff):
    """A + coeff * R^T tri R, where R restricts to the trailing trace block.

    Summed as triplets rather than as A + B, which would drop entries that
    cancel."""
    coo = A.tocoo()
    size, m = A.shape[0], tri.size
    tr = np.arange(size - m, size)
    i = np.concatenate([coo.row, tr, tr[:-1], tr[1:]])
    j = np.concatenate([coo.col, tr, tr[1:], tr[:-1]])
    v = np.concatenate([coo.data, np.full(m, coeff * tri.diag),
                        np.full(2 * (m - 1), coeff * tri.off)])
    return csr_matrix((v, (i, j)), shape=A.shape)
