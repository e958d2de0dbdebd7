"""Per-mode strip symbols computed the long way, kept for the tests as oracles.

robinlab computes the Schur symbol of a strip in closed form,
spectral.strip_symbol, and builds the clamped strip's trace response from
it.  These compute the same numbers by routes that share no code with it:
the last dpttrf pivot of each mode system of a StripSolver, the pivot
recursion in long double, and the lattice sum over the clamped strip's
modes.  The half-plane sweep factor in its raw product form is the
second form against which spectral.von_neumann_rho, written through the
two-sided factor cj_values, is checked.
"""

import math

import numpy as np

from robinlab.spectral import fd_eigenvalue


def interface_symbol(solver):
    """Last dpttrf pivot of each mode system of a StripSolver.

    The mode systems are decoupled, so the last pivot of mode j is the
    Schur complement of its tridiagonal system onto the last unknown.  The
    pivots repeat the roundoff of a_j = 4 - 2 cos(theta_j), which loses
    digits in the low modes: about 1.4e-11 relative at n = 576.
    """
    return solver._d.reshape(solver.m, solver.n_cols)[:, -1].copy()


def longdouble_symbol(m, k):
    """Neumann strip symbol by the pivot recursion in np.longdouble.

    a_j = 2 + 4 sin^2(theta_j / 2) with pi taken in long double; the
    recursion r <- a_j - 1/r runs k - 2 times from r = a_j, and then
    sigma_j = a_j / 2 - 1/r, or a_j / 2 for one column.
    """
    pi = 4 * np.arctan(np.longdouble(1))
    s = np.sin(np.arange(1, m + 1, dtype=np.longdouble) * pi / (2 * (m + 1)))
    a = 2 + 4 * s * s
    if k == 1:
        return a / 2
    r = a
    for _ in range(k - 2):
        r = a - 1 / r
    return a / 2 - 1 / r


def tilde_lambda(j, n):
    """Diagonal entry of the clamped-strip trace inverse in the sine basis:

        tlam_j = (2/(n+1)) sum_{i=1..n} sin^2(i pi/(n+1)) / (lam_i^(n) + lam_j^(2n-1))

    summed with math.fsum so the value is reliable far past n = 10^4.
    """
    m = 2 * n - 1
    if not 1 <= j <= m:
        raise ValueError("mode index out of range")
    lam_j = float(fd_eigenvalue(j, m))
    terms = []
    for i in range(1, n + 1):
        s = math.sin(i * math.pi / (n + 1))
        terms.append(s * s / (float(fd_eigenvalue(i, n)) + lam_j))
    return 2.0 / (n + 1) * math.fsum(terms)


def tilde_lambda_all(n):
    """Vectorized tilde_lambda for every mode j = 1..2n-1 at once."""
    m = 2 * n - 1
    lam_col = fd_eigenvalue(np.arange(1, n + 1), n)[:, None]
    lam_row = fd_eigenvalue(np.arange(1, m + 1), m)[None, :]
    s = np.sin(np.arange(1, n + 1) * np.pi / (n + 1))[:, None]
    return 2.0 / (n + 1) * np.sum(s * s / (lam_col + lam_row), axis=0)


def von_neumann_rho_product(k, gamma1, gamma2, theta):
    """Same factor as von_neumann_rho in the raw product form
    theta + (1-theta) (s/(gamma2+z) - 1)(s/(gamma1+z) - 1), with
    s = gamma1 + gamma2 and z = k coth k."""
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError("Robin weights must be positive")
    k = np.asarray(k, dtype=float)
    z = k / np.tanh(k)
    s = gamma1 + gamma2
    return theta + (1.0 - theta) * (s / (gamma2 + z) - 1.0) * (s / (gamma1 + z) - 1.0)
