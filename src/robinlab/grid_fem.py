"""Uniform criss triangulations of the unit square and their P1 matrices.

The square is cut into 2n x 2n cells of width h = 1/(2n), each cell split
into two triangles by its south-west to north-east diagonal.  On that mesh
the P1 stiffness matrix coincides exactly with the five-point difference
stencil, which is what makes closed-form mode analysis possible.

The square is decomposed into two vertical strips meeting at x = 1/2 (or
at an off-center grid line when a strip width is given explicitly).  The
interface is a mesh line, and interface unknowns are numbered last within
each strip.  The right strip is numbered mirror-image (columns counted
from x = 1 leftward), which makes the two subdomain matrices identical
entry by entry.

Strip loads are summed on the node lattice by shifted slice adds, from
O(n_cols + n) load values per quadrature point.  A SubdomainSystem holds
no assembled matrix: its strip solvers apply and factor the stencil, each
once, when a strip is solved.  A strip has one solver family,
solver(gamma) for gamma >= 0, whose interface column carries
interface_block(gamma).  No solver clamps the interface: a Dirichlet
solve is a Neumann solve whose interface load is corrected through the
Schur complement (the capacitance method of Buzbee, Dorr, George and
Golub).  The sweeps solve no strip: they read the load's interface
response in closed form per sine mode (load_modes, from
spectral.strip_load_modes).  strip_matrix builds the CSR of a strip with
a given interface block, only for --dump-matrices and for the tests.
Both import their scipy module when run (StripSolver its LAPACK
routines, strip_matrix scipy.sparse), so a table that solves no strip
loads no scipy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import sine_basis_matrix, strip_load_modes

LEFT = "left"
RIGHT = "right"
SIDES = (LEFT, RIGHT)


@dataclass(frozen=True)
class GridSpec:
    """Mesh resolution bookkeeping for one half of the square.

    n is the number of columns in each (symmetric) strip, h = 1/(2n) the
    mesh width and n_interface = 2n - 1 the number of interior interface
    nodes.
    """

    n: int
    h: float
    n_interface: int

    def coord(self, i):
        """Coordinate of grid line i, computed as i / (2n) so that
        coord(2n) == 1.0 and coord(n) == 0.5 exactly."""
        return np.asarray(i) / (2.0 * self.n)


def build_grid(n: int) -> GridSpec:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)
    return GridSpec(n=n, h=1.0 / (2 * n), n_interface=2 * n - 1)


def _check_side(side):
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


@dataclass(frozen=True)
class Tridiagonal:
    """Constant-coefficient symmetric tridiagonal matrix."""

    size: int
    diag: float
    off: float

    def matvec(self, v):
        """The product with v, or with each row of a 2-D v."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != self.size:
            raise ValueError("vector length does not match matrix size")
        out = self.diag * v
        out[..., :-1] += self.off * v[..., 1:]
        out[..., 1:] += self.off * v[..., :-1]
        return out

    def eigenvalues(self):
        """Eigenvalues in index order j = 1..size: diag + 2 off cos(j pi / (size+1))."""
        j = np.arange(1, self.size + 1)
        return self.diag + 2.0 * self.off * np.cos(j * np.pi / (self.size + 1))

    def to_dense(self):
        out = np.diag(np.full(self.size, self.diag))
        idx = np.arange(self.size - 1)
        out[idx, idx + 1] = self.off
        out[idx + 1, idx] = self.off
        return out


def assemble_interface_mass(grid: GridSpec) -> Tridiagonal:
    """Interface mass matrix (h/6) tridiag(1, 4, 1) on the 2n-1 trace nodes."""
    return Tridiagonal(grid.n_interface, 4.0 * grid.h / 6.0, grid.h / 6.0)


def strip_matrix(n_cols: int, last_block: Tridiagonal):
    """CSR of the n_cols-column strip operator, numbered column-major with
    the interface column last: every column carries the five-point block
    tridiag(-1, 4, -1) but the last, which carries last_block, and
    neighbouring columns couple by -I.  Every entry of last_block is
    stored, a zero one included, so strip_matrix(1, tri) is tri itself."""
    from scipy.sparse import csr_matrix

    if n_cols < 1:
        raise ValueError("strip must have at least one column")
    m = last_block.size
    idx = np.arange(n_cols * m)
    col, row = divmod(idx, m)
    last = col == n_cols - 1
    up = idx[row < m - 1]
    off = np.where(last[up], last_block.off, -1.0)
    right = idx[~last]
    i = np.concatenate([idx, up, up + 1, right, right + m])
    j = np.concatenate([idx, up + 1, up, right + m, right])
    v = np.concatenate([np.where(last, last_block.diag, 4.0), off, off,
                        np.full(2 * len(right), -1.0)])
    return csr_matrix((v, (i, j)), shape=(len(idx), len(idx)))


# The degree-six Dunavant rule on the reference triangle, in barycentric
# coordinates.  Weights sum to one and multiply the triangle area.

def _dunavant_degree6():
    a1, w1 = 0.063089014491502, 0.050844906370207
    a2, w2 = 0.249286745170910, 0.116786275726379
    b1, b2, b3 = 0.053145049844817, 0.310352451033784, 0.636502499121399
    w3 = 0.082851075618374
    pts, wts = [], []
    for a, w in ((a1, w1), (a2, w2)):
        for perm in ((a, a, 1 - 2 * a), (a, 1 - 2 * a, a), (1 - 2 * a, a, a)):
            pts.append(perm)
            wts.append(w)
    from itertools import permutations
    for perm in sorted(set(permutations((b1, b2, b3)))):
        pts.append(perm)
        wts.append(w3)
    return np.array(pts), np.array(wts)


TRI_DEGREE6 = _dunavant_degree6()


# vertex offsets from a cell's south-west corner, in vertex-slot order, for
# the cell's lower and upper triangle
_LOWER = ((0, 0), (1, 0), (1, 1))
_UPPER = ((0, 0), (1, 1), (0, 1))


def assemble_load(grid: GridSpec, f, side=LEFT, n_cols=None):
    """Load vector (f, phi_i) over one strip by triangle quadrature.

    f must accept broadcastable numpy arrays.  On the criss mesh a
    quadrature point's x depends only on the cell column and its y only on
    the cell row, so f is called once per quadrature point on x of shape
    (2, n_cols, 1) and y of shape (2, 1, 2n) (lower, upper triangle), and
    its result, a scalar or any broadcastable array, is broadcast to
    (2, n_cols, 2n).  Each coordinate has the bits of the per-triangle
    one, so an elementwise f gives bit-identical loads.  The rule
    integrates degree six exactly, which covers polynomial data like the
    manufactured right-hand side without quadrature error.

    The shares are summed on the strip's (n_cols+1) x (2n+1) node lattice:
    per quadrature point and vertex slot, the lower then the upper
    triangles' shares are added to a zeroed lattice, which is added to the
    total.  That is the order of a scatter-add over the triangle list.
    n_cols, the strip's width, must be an integer in 1..2n-1.
    """
    _check_side(side)
    n_cols = grid.n if n_cols is None else n_cols
    if not (float(n_cols).is_integer() and 1 <= n_cols < 2 * grid.n):
        raise ValueError(f"n_cols must be an integer in 1..{2 * grid.n - 1}, got {n_cols!r}")
    n_cols = int(n_cols)
    bary, weights = TRI_DEGREE6
    two_n = 2 * grid.n
    x0 = 0 if side == LEFT else two_n - n_cols
    # corner coordinates per axis and triangle (lower, upper): (2, n_cols, 3), (2, 2n, 3)
    cx = np.arange(x0, x0 + n_cols)[:, None]
    cy = np.arange(two_n)[:, None]
    x = grid.coord(np.stack([cx + [dx for dx, _ in tri] for tri in (_LOWER, _UPPER)]))
    y = grid.coord(np.stack([cy + [dy for _, dy in tri] for tri in (_LOWER, _UPPER)]))
    area = 0.5 * grid.h * grid.h
    F = np.zeros((n_cols + 1, two_n + 1))
    G = np.empty_like(F)
    for b, w in zip(bary, weights):
        fx = np.broadcast_to(np.asarray(f((x @ b)[:, :, None], (y @ b)[:, None, :]),
                                        dtype=float), (2, n_cols, two_n))
        for k in range(3):
            c = area * w * b[k]
            G[...] = 0.0
            for f_tri, tri in zip(fx, (_LOWER, _UPPER)):
                dx, dy = tri[k]
                G[dx:dx + n_cols, dy:dy + two_n] += c * f_tri
            F += G
    # strip unknowns run column by column from the far edge to the interface
    nodes = F[1:, 1:two_n] if side == LEFT else F[:-1, 1:two_n][::-1]
    return nodes.ravel()


class StripSolver:
    """Direct fast-Poisson solver for a k-column strip operator.

    The strip is numbered column-major with the interface column last.
    Every column carries the five-point block tridiag(-1, 4, -1), coupled
    to its neighbours by -I, except the last, whose block is last_block.
    Every block is diagonal in the orthonormal sine basis, so the sine
    transform in y splits the system into m tridiagonal systems in x, one
    per sine mode.  They are laid end to end, factored once by LAPACK
    dpttrf (each is positive definite) and solved by dpttrs, and the same
    transform maps back.  The transform is a dense product with the sine
    basis matrix, which at these sizes is faster than an FFT.  The last
    pivot of mode j is its Schur complement onto the last column; for the
    Neumann block spectral.strip_symbol gives it in closed form, so the
    pivots are not exposed.

    One step of iterative refinement follows, with the residual taken by
    the stencil in physical space.  The mode systems have constant
    coefficients, so the roundoff of their factors repeats in every row
    and adds up in the smooth low modes.  Without the step a solve at
    n = 64 is about 1e-13 (relative) from a sparse direct solve instead of
    1e-15, which moves the table1 error cells on fine meshes by up to 1e-8
    relative and keeps the sweeps' sup-norm change above the stopping
    tolerance at n = 144.
    """

    def __init__(self, n_cols: int, last_block: Tridiagonal):
        from scipy.linalg.lapack import dpttrf, dpttrs

        if n_cols < 1:
            raise ValueError("strip must have at least one column")
        self.n_cols = k = int(n_cols)
        self.m = m = last_block.size
        # last column: the stencil adds last_block - tridiag(-1, 4, -1)
        self._last_correction = Tridiagonal(m, last_block.diag - 4.0, last_block.off + 1.0)
        self._basis = sine_basis_matrix(m)
        d = np.repeat(Tridiagonal(m, 4.0, -1.0).eigenvalues()[:, None], k, axis=1)
        d[:, -1] = last_block.eigenvalues()
        off = np.full((m, k), -1.0)
        off[:, -1] = 0.0  # no coupling across mode blocks
        # the LAPACK wrapper takes one off-diagonal entry even for a 1 x 1 system
        d, e, info = dpttrf(d.ravel(), off.ravel()[:max(m * k - 1, 1)])
        if info != 0:
            raise ValueError("strip operator is not positive definite")
        self._d, self._e, self._dpttrs = d, e, dpttrs

    def _apply(self, x):
        """The strip operator applied by its stencil to x of shape (k, m)."""
        y = 4.0 * x
        y[:, 1:] -= x[:, :-1]
        y[:, :-1] -= x[:, 1:]
        y[1:] -= x[:-1]
        y[:-1] -= x[1:]
        y[-1] += self._last_correction.matvec(x[-1])
        return y

    def _solve_modes(self, b):
        """Transform, mode solves and transform back, for b of shape (k, m)."""
        coef = self._basis @ b.T  # mode-major: row j holds mode j
        y = self._dpttrs(self._d, self._e, coef.ravel())[0]
        return y.reshape(self.m, self.n_cols).T @ self._basis

    def solve(self, rhs) -> np.ndarray:
        k, m = self.n_cols, self.m
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (k * m,):
            raise ValueError("right-hand side has wrong length")
        b = rhs.reshape(k, m)
        x = self._solve_modes(b)
        x += self._solve_modes(b - self._apply(x))
        return x.ravel()


@dataclass
class SubdomainSystem:
    """One strip: its grid, width and load fix it, and its blocks and
    interface mass follow from the grid.  The load is fixed once the strip
    is built.  Each strip solver is factored on first use and the same
    StripSolver is handed to every later caller; load_modes is formed on
    first read and kept the same way."""

    grid: GridSpec
    n_cols: int
    load: np.ndarray
    _solvers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def interface_mass(self) -> Tridiagonal:
        return assemble_interface_mass(self.grid)

    def interface_block(self, gamma: float = 0.0) -> Tridiagonal:
        """The interface column's block A_GG of the stiffness plus gamma
        times the interface mass; gamma = 0 gives the Neumann block, half
        the five-point block."""
        if not 0.0 <= gamma < np.inf:
            raise ValueError("gamma must be non-negative and finite")
        mass = self.interface_mass
        return Tridiagonal(mass.size, 2.0 + gamma * mass.diag, -0.5 + gamma * mass.off)

    def solver(self, gamma: float) -> StripSolver:
        """Fast solver of the stiffness plus gamma times the interface mass
        on the trace block; gamma = 0 gives the Neumann stiffness."""
        if gamma not in self._solvers:
            self._solvers[gamma] = StripSolver(self.n_cols, self.interface_block(gamma))
        return self._solvers[gamma]

    @cached_property
    def load_modes(self) -> np.ndarray:
        """spectral.strip_load_modes of the load: divided by sigma + gamma mu
        per mode, the sine coefficients of the interface trace of
        solver(gamma).solve(load), for every weight gamma."""
        modes = strip_load_modes(self.load, self.grid.n_interface, self.n_cols)
        modes.flags.writeable = False  # every caller shares it
        return modes


def build_subdomain_system(grid: GridSpec, f, side=LEFT, n_cols=None) -> SubdomainSystem:
    n_cols = grid.n if n_cols is None else n_cols
    load = assemble_load(grid, f, side, n_cols)  # checks n_cols
    return SubdomainSystem(grid, int(n_cols), load)


def write_strip_matrices(grid: GridSpec, directory):
    """Write into directory the n-column strip's matrix with the interface
    column clamped (a0) and free, the interface mass, and the coupling a0
    loses when freed, which is the Neumann block, as MatrixMarket files."""
    n, m = grid.n, grid.n_interface
    neumann = Tridiagonal(m, 2.0, -0.5)  # SubdomainSystem.interface_block(0.0)
    for name, A, what in (
            ("a0", strip_matrix(n, Tridiagonal(m, 4.0, -1.0)), "clamped strip five-point matrix"),
            ("stiffness", strip_matrix(n, neumann), "free-interface strip stiffness"),
            ("interface_mass", strip_matrix(1, assemble_interface_mass(grid)), "interface mass"),
            ("interface_stiffness", strip_matrix(1, neumann), "interface coupling")):
        write_matrix_market(os.path.join(directory, f"{name}_n{n}.mtx"), A,
                            comment=f"{what}, n={n}")


def write_matrix_market(path, A, comment=""):
    """Write a CSR matrix in MatrixMarket coordinate format (1-based
    indices); strip_matrix(1, tri) gives the CSR of a Tridiagonal."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            fh.write(f"% {comment}\n")
        fh.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
        for r, c, v in zip(rows, A.indices, A.data):
            fh.write(f"{r + 1} {c + 1} {v:.17g}\n")
