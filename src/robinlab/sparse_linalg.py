"""Iterative kernel for the trace-operator analysis.

Matrices everywhere else are scipy.sparse CSR or dense numpy arrays.  The
one kernel kept here is power iteration, written out in full so its
stopping rule is explicit and testable.
"""

from __future__ import annotations

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
