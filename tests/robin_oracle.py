"""Robin strip matrices summed the long way, kept for the tests as an oracle.

robinlab builds a strip's Robin block in one place,
SubdomainSystem.interface_block, and never assembles the Robin matrix.
This adds gamma times the interface mass to the assembled Neumann
stiffness as COO triplets on the trailing trace block, a sum that shares
no code with interface_block, so the tests can check the Robin solvers
and the closed-form sweep against it.
"""

import numpy as np
from scipy.sparse import csr_matrix


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
