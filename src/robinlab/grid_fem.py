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
once, for the sweeps and the trace-operator analysis alike.  CSR matrices
are built only for --dump-matrices and for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.lapack
from scipy.sparse import csr_matrix

from .spectral import sine_basis_matrix

LEFT = "left"
RIGHT = "right"
SIDES = (LEFT, RIGHT)


@dataclass(frozen=True)
class GridSpec:
    """Mesh resolution bookkeeping for one half of the square.

    n is the number of columns in each (symmetric) strip, h = 1/(2n) the
    mesh width, n_interface = 2n - 1 the number of interior interface
    nodes, and n_subdomain_unknowns = n * (2n - 1) the unknowns per strip
    including its interface column.
    """

    n: int
    h: float
    n_interface: int
    n_subdomain_unknowns: int

    def coord(self, i):
        """Coordinate of grid line i, computed as i / (2n) so that
        coord(2n) == 1.0 and coord(n) == 0.5 exactly."""
        return np.asarray(i) / (2.0 * self.n)


def build_grid(n: int) -> GridSpec:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)
    return GridSpec(n=n, h=1.0 / (2 * n), n_interface=2 * n - 1,
                    n_subdomain_unknowns=n * (2 * n - 1))


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


def assemble_interface_stiffness(grid: GridSpec) -> Tridiagonal:
    """Interface contribution (1/2) tridiag(-1, 4, -1) removed from the full
    Dirichlet form to impose the natural condition on the trace column."""
    return Tridiagonal(grid.n_interface, 2.0, -0.5)


def _strip_five_point(grid: GridSpec, n_cols: int):
    """COO triplets of the five-point operator on an n_cols-column strip
    with homogeneous Dirichlet values on all four strip edges."""
    m = grid.n_interface
    size = n_cols * m
    idx = np.arange(size)
    col, row = divmod(idx, m)
    ii = [idx]
    jj = [idx]
    vv = [np.full(size, 4.0)]
    up = idx[row < m - 1]
    ii += [up, up + 1]
    jj += [up + 1, up]
    vv += [np.full(len(up), -1.0)] * 2
    right = idx[col < n_cols - 1]
    ii += [right, right + m]
    jj += [right + m, right]
    vv += [np.full(len(right), -1.0)] * 2
    return size, np.concatenate(ii), np.concatenate(jj), np.concatenate(vv)


def assemble_a0(grid: GridSpec, n_cols=None) -> csr_matrix:
    """Strip matrix A0: the five-point form with the interface column still
    clamped (diagonal 4 everywhere).  Used as the auxiliary operator in the
    closed-form trace analysis."""
    n_cols = grid.n if n_cols is None else int(n_cols)
    if n_cols < 1:
        raise ValueError("strip must have at least one column")
    size, i, j, v = _strip_five_point(grid, n_cols)
    return csr_matrix((v, (i, j)), shape=(size, size))


def _with_trace_block(size, i, j, v, tri: Tridiagonal, coeff: float) -> csr_matrix:
    """CSR of the triplets (i, j, v) plus coeff * tri on the trailing trace
    block, summed as triplets rather than as A + B, which would drop
    entries that cancel."""
    m = tri.size
    if size < m:
        raise ValueError("matrix smaller than the trace block")
    tr = np.arange(size - m, size)
    i = np.concatenate([i, tr, tr[:-1], tr[1:]])
    j = np.concatenate([j, tr, tr[1:], tr[:-1]])
    v = np.concatenate([v, np.full(m, coeff * tri.diag),
                        np.full(m - 1, coeff * tri.off), np.full(m - 1, coeff * tri.off)])
    return csr_matrix((v, (i, j)), shape=(size, size))


def assemble_subdomain_stiffness(grid: GridSpec, n_cols=None) -> csr_matrix:
    """Subdomain stiffness with the natural (free) condition on the interface
    column: A0 minus the interface correction on the trace block.  Both
    sides share it, because the right strip is numbered mirror-image."""
    n_cols = grid.n if n_cols is None else int(n_cols)
    return _with_trace_block(*_strip_five_point(grid, n_cols),
                             assemble_interface_stiffness(grid), -1.0)


def add_interface_tridiagonal(A: csr_matrix, tri: Tridiagonal, coeff: float) -> csr_matrix:
    """A + coeff * R^T tri R, where R restricts to the trailing trace block."""
    coo = A.tocoo()
    return _with_trace_block(A.shape[0], coo.row, coo.col, coo.data, tri, coeff)


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
    """
    _check_side(side)
    n_cols = grid.n if n_cols is None else int(n_cols)
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
        if n_cols < 0:
            raise ValueError("strip cannot have a negative column count")
        self.n_cols = k = int(n_cols)
        self.m = m = last_block.size
        self.last_block = last_block
        if k == 0:
            return
        # last column: the stencil adds last_block - tridiag(-1, 4, -1)
        self._last_correction = Tridiagonal(m, last_block.diag - 4.0, last_block.off + 1.0)
        self._basis = sine_basis_matrix(m)
        d = np.repeat(Tridiagonal(m, 4.0, -1.0).eigenvalues()[:, None], k, axis=1)
        d[:, -1] = last_block.eigenvalues()
        off = np.full((m, k), -1.0)
        off[:, -1] = 0.0  # no coupling across mode blocks
        # the LAPACK wrapper takes one off-diagonal entry even for a 1 x 1 system
        d, e, info = scipy.linalg.lapack.dpttrf(d.ravel(), off.ravel()[:max(m * k - 1, 1)])
        if info != 0:
            raise ValueError("strip operator is not positive definite")
        self._d, self._e = d, e

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
        y = scipy.linalg.lapack.dpttrs(self._d, self._e, coef.ravel())[0]
        return y.reshape(self.m, self.n_cols).T @ self._basis

    def solve(self, rhs) -> np.ndarray:
        k, m = self.n_cols, self.m
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (k * m,):
            raise ValueError("right-hand side has wrong length")
        if k == 0:
            return rhs.copy()
        b = rhs.reshape(k, m)
        x = self._solve_modes(b)
        x += self._solve_modes(b - self._apply(x))
        return x.ravel()


@dataclass
class SubdomainSystem:
    """One strip: the load, the interface mass and stiffness couplings,
    and the strip solvers built from them.  Each solver is factored on
    first use and the same StripSolver is handed to every later caller."""

    grid: GridSpec
    n_cols: int
    interface_mass: Tridiagonal
    interface_stiffness: Tridiagonal
    load: np.ndarray
    _solvers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def solver(self, gamma: float) -> StripSolver:
        """Fast solver of the stiffness plus gamma times the interface mass
        on the trace block; gamma = 0 gives the Neumann stiffness."""
        if not 0.0 <= gamma < np.inf:
            raise ValueError("gamma must be non-negative and finite")
        if gamma not in self._solvers:
            stiff, mass = self.interface_stiffness, self.interface_mass
            last = Tridiagonal(mass.size, 4.0 - stiff.diag + gamma * mass.diag,
                               -1.0 - stiff.off + gamma * mass.off)
            self._solvers[gamma] = StripSolver(self.n_cols, last)
        return self._solvers[gamma]

    def dirichlet_solver(self) -> StripSolver:
        """Fast solver of the interior block: the stiffness with the
        interface column removed (n_cols - 1 five-point columns)."""
        if "dirichlet" not in self._solvers:
            self._solvers["dirichlet"] = StripSolver(
                self.n_cols - 1, Tridiagonal(self.grid.n_interface, 4.0, -1.0))
        return self._solvers["dirichlet"]


def build_subdomain_system(grid: GridSpec, f, side=LEFT, n_cols=None) -> SubdomainSystem:
    n_cols = grid.n if n_cols is None else int(n_cols)
    return SubdomainSystem(
        grid=grid,
        n_cols=n_cols,
        interface_mass=assemble_interface_mass(grid),
        interface_stiffness=assemble_interface_stiffness(grid),
        load=assemble_load(grid, f, side, n_cols),
    )


def write_matrix_market(path, A, comment=""):
    """Write a CSR or Tridiagonal matrix in MatrixMarket coordinate format
    (1-based indices)."""
    if isinstance(A, Tridiagonal):
        A = add_interface_tridiagonal(csr_matrix((A.size, A.size)), A, 1.0)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            fh.write(f"% {comment}\n")
        fh.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
        for r, c, v in zip(rows, A.indices, A.data):
            fh.write(f"{r + 1} {c + 1} {v:.17g}\n")
