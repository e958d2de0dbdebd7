"""Dense and sparse linear-algebra kernels used by every other module.

The sparse format is plain CSR over numpy arrays.  The iterative kernels
(conjugate gradients, power iteration) are written out in full so their
stopping rules are explicit and testable; the direct dense solve delegates
to LAPACK through scipy but adds an explicit singular-to-working-precision
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse


class ConvergenceError(RuntimeError):
    """An iterative kernel ran out of iterations before meeting its tolerance."""


class SingularMatrixError(RuntimeError):
    """A direct solve met a pivot that is zero to working precision."""


@dataclass
class SparseMatrix:
    """Compressed sparse row matrix.

    Column indices are sorted within each row and duplicates are merged
    at construction.  Symmetric matrices are stored fully.
    """

    rows: int
    cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _expanded_rows: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._expanded_rows is None:
            counts = np.diff(self.row_offsets)
            self._expanded_rows = np.repeat(np.arange(self.rows), counts)

    @classmethod
    def from_coo(cls, rows, cols, i, j, v):
        """Build CSR from coordinate triplets, summing duplicate entries."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        v = np.asarray(v, dtype=float)
        if not (len(i) == len(j) == len(v)):
            raise ValueError("coordinate arrays must have equal length")
        if len(i) and (i.min() < 0 or i.max() >= rows or j.min() < 0 or j.max() >= cols):
            raise ValueError("coordinate index out of range")
        order = np.lexsort((j, i))
        i, j, v = i[order], j[order], v[order]
        if len(i):
            head = np.empty(len(i), dtype=bool)
            head[0] = True
            head[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1])
            starts = np.nonzero(head)[0]
            v = np.add.reduceat(v, starts)
            i, j = i[starts], j[starts]
        offsets = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(i, minlength=rows), out=offsets[1:])
        return cls(rows, cols, offsets, j, v)

    def matvec(self, x):
        return spmv(self, x)

    def to_dense(self):
        out = np.zeros((self.rows, self.cols))
        out[self._expanded_rows, self.col_indices] = self.values
        return out

    def to_scipy_csc(self):
        return scipy.sparse.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.rows, self.cols),
        ).tocsc()

    def diagonal(self):
        d = np.zeros(min(self.rows, self.cols))
        on_diag = self._expanded_rows == self.col_indices
        d[self._expanded_rows[on_diag]] = self.values[on_diag]
        return d


def spmv(A: SparseMatrix, x):
    """y = A x for a CSR matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.cols,):
        raise ValueError(f"dimension mismatch: matrix is {A.rows}x{A.cols}, vector has shape {x.shape}")
    prods = A.values * x[A.col_indices]
    return np.bincount(A._expanded_rows, weights=prods, minlength=A.rows).astype(float)


def _as_operator(A):
    if callable(A):
        return A
    if isinstance(A, SparseMatrix):
        return A.matvec
    mat = np.asarray(A, dtype=float)
    return lambda x: mat @ x


def cg_solve(A, b, tol=1e-14, max_iter=None):
    """Conjugate gradients for an SPD operator, from a zero start.

    Stops when the relative residual |b - Ax| / |b| drops below tol.
    Raises ConvergenceError if max_iter steps do not get there.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float)
    apply_a = _as_operator(A)
    if isinstance(A, SparseMatrix) and b.shape != (A.rows,):
        raise ValueError(f"dimension mismatch: matrix is {A.rows}x{A.cols}, rhs has shape {b.shape}")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    if max_iter is None:
        max_iter = 3 * len(b) + 10
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = r @ r
    for _ in range(max_iter):
        Ap = apply_a(p)
        alpha = rr / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rr_next = r @ r
        if np.sqrt(rr_next) <= tol * bnorm:
            return x
        p = r + (rr_next / rr) * p
        rr = rr_next
    raise ConvergenceError(
        f"cg_solve: residual {np.sqrt(rr) / bnorm:.3e} above tol {tol:.1e} after {max_iter} iterations"
    )


def dense_lu_solve(A, b):
    """Solve a dense square system by LU with partial pivoting.

    Pivots smaller than working precision relative to the matrix scale
    raise SingularMatrixError instead of silently returning noise.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if b.shape[0] != A.shape[0]:
        raise ValueError("right-hand side length does not match matrix")
    lu, piv = scipy.linalg.lu_factor(A, check_finite=True)
    scale = max(1.0, np.abs(A).max())
    if np.abs(np.diag(lu)).min() <= A.shape[0] * np.finfo(float).eps * scale:
        raise SingularMatrixError("matrix is singular to working precision")
    return scipy.linalg.lu_solve((lu, piv), b)


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
