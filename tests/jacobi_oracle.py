"""Hand-written eigen kernels: cyclic Jacobi and power iteration.

robinlab computes every eigendecomposition and spectral radius with
LAPACK.  These pure-Python kernels share no code with it and serve the
tests as independent oracles for those eigenvalues.
"""

import numpy as np


class ConvergenceError(RuntimeError):
    """An iterative kernel ran out of iterations before meeting its tolerance."""


def _as_operator(A):
    if callable(A):
        return A
    mat = np.asarray(A, dtype=float)
    return lambda x: mat @ x


def power_spectral_radius(apply, dim, tol=1e-10, max_iter=10000, seed=20250822):
    """Spectral radius of a linear operator by power iteration.

    Works for operators similar to a symmetric matrix, where the dominant
    eigenvalue is real, possibly appearing as a +/- pair.  Successive norm
    ratios are combined pairwise (geometric mean of two steps), which makes
    the estimate insensitive to the sign oscillation such a pair causes.
    Deterministic for a fixed seed.
    """
    op = _as_operator(apply)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    prev_ratio = None
    estimate = None
    hits = 0
    for _ in range(max_iter):
        y = op(x)
        r = np.linalg.norm(y)
        if r == 0.0:
            return 0.0
        if prev_ratio is not None:
            new_estimate = np.sqrt(r * prev_ratio)
            if estimate is not None and abs(new_estimate - estimate) <= tol * max(1.0, new_estimate):
                hits += 1
                if hits >= 3:
                    return new_estimate
            else:
                hits = 0
            estimate = new_estimate
        prev_ratio = r
        x = y / r
    raise ConvergenceError(
        f"power_spectral_radius: estimate {estimate} not settled to {tol:.1e} in {max_iter} iterations"
    )


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
