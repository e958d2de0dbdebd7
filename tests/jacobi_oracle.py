"""Cyclic Jacobi eigensolver for dense symmetric matrices.

robinlab computes every symmetric eigendecomposition with LAPACK.  This
pure-Python kernel shares no code with it and serves the tests as an
independent oracle for those eigenvalues.
"""

import numpy as np

from robinlab.sparse_linalg import ConvergenceError


def jacobi_symmetric_eigen(A, tol=1e-14, max_sweeps=60):
    """Eigen-decomposition of a dense symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, V) with A = V diag(w) V^T.  Asymmetry
    beyond 1e-12 (relative to the matrix scale) is rejected.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, np.abs(A).max())
    if A.size and np.abs(A - A.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to 1e-12")
    m = A.shape[0]
    a = 0.5 * (A + A.T)
    V = np.eye(m)
    if m <= 1:
        return np.diag(a).copy(), V
    fro = np.linalg.norm(a)
    thresh = tol * max(fro, 1.0)
    for _ in range(max_sweeps):
        # Frobenius mass of the strict off-diagonal part, summed directly;
        # the sum(a^2) - sum(diag^2) shortcut cancels to noise once nearly
        # diagonal and never drops below ||a|| * sqrt(eps).
        off_part = a.copy()
        np.fill_diagonal(off_part, 0.0)
        off = np.linalg.norm(off_part)
        if off <= thresh:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[p, q]
                if abs(apq) <= 1e-2 * thresh / m:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * V[:, p] - s * V[:, q]
                rot_q = s * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = rot_p, rot_q
    else:
        raise ConvergenceError("jacobi_symmetric_eigen: off-diagonal mass did not vanish")
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]
