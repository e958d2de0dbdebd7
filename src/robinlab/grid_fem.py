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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .sparse_linalg import SparseMatrix
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
        v = np.asarray(v, dtype=float)
        if v.shape != (self.size,):
            raise ValueError("vector length does not match matrix size")
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out

    def quadratic_form(self, v):
        return float(np.asarray(v) @ self.matvec(v))

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


def assemble_a0(grid: GridSpec, n_cols=None) -> SparseMatrix:
    """Strip matrix A0: the five-point form with the interface column still
    clamped (diagonal 4 everywhere).  Used as the auxiliary operator in the
    closed-form trace analysis."""
    n_cols = grid.n if n_cols is None else int(n_cols)
    if n_cols < 1:
        raise ValueError("strip must have at least one column")
    size, i, j, v = _strip_five_point(grid, n_cols)
    return SparseMatrix.from_coo(size, size, i, j, v)


def assemble_subdomain_stiffness(grid: GridSpec, side=LEFT, n_cols=None) -> SparseMatrix:
    """Subdomain stiffness with the natural (free) condition on the interface
    column: A0 minus the interface correction on the trace block.

    The two sides give identical matrices because the right strip is
    numbered mirror-image; the side argument is kept for interface clarity.
    """
    _check_side(side)
    n_cols = grid.n if n_cols is None else int(n_cols)
    size, i, j, v = _strip_five_point(grid, n_cols)
    m = grid.n_interface
    a_gamma = assemble_interface_stiffness(grid)
    base = size - m
    tr = np.arange(base, size)
    i = np.concatenate([i, tr, tr[:-1], tr[1:]])
    j = np.concatenate([j, tr, tr[1:], tr[:-1]])
    v = np.concatenate([v, np.full(m, -a_gamma.diag),
                        np.full(m - 1, -a_gamma.off), np.full(m - 1, -a_gamma.off)])
    return SparseMatrix.from_coo(size, size, i, j, v)


def add_interface_tridiagonal(A: SparseMatrix, tri: Tridiagonal, coeff: float) -> SparseMatrix:
    """A + coeff * R^T tri R, where R restricts to the trailing trace block."""
    m = tri.size
    base = A.rows - m
    if base < 0:
        raise ValueError("matrix smaller than the trace block")
    tr = np.arange(base, A.rows)
    i = np.concatenate([A._expanded_rows, tr, tr[:-1], tr[1:]])
    j = np.concatenate([A.col_indices, tr, tr[1:], tr[:-1]])
    v = np.concatenate([A.values, np.full(m, coeff * tri.diag),
                        np.full(m - 1, coeff * tri.off), np.full(m - 1, coeff * tri.off)])
    return SparseMatrix.from_coo(A.rows, A.cols, i, j, v)


def apply_restriction(grid: GridSpec, v, size=None):
    """Trace of a strip vector on the interface column (the trailing block)."""
    v = np.asarray(v, dtype=float)
    m = grid.n_interface
    size = grid.n_subdomain_unknowns if size is None else int(size)
    if v.shape != (size,):
        raise ValueError("strip vector has wrong length")
    return v[-m:].copy()


def restriction_adjoint(grid: GridSpec, g, size=None):
    """Adjoint of the trace restriction: pad with zeros off the interface."""
    g = np.asarray(g, dtype=float)
    m = grid.n_interface
    if g.shape != (m,):
        raise ValueError("trace vector has wrong length")
    size = grid.n_subdomain_unknowns if size is None else int(size)
    out = np.zeros(size)
    out[-m:] = g
    return out


# Quadrature rules on the reference triangle, in barycentric coordinates.
# Weights sum to one and multiply the triangle area.

TRI_MIDPOINT = (
    np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
    np.array([1.0, 1.0, 1.0]) / 3.0,
)


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

QUADRATURES = {"midpoint": TRI_MIDPOINT, "degree6": TRI_DEGREE6}


def _strip_node_ids(grid: GridSpec, n_cols: int, side: str, ix, iy):
    """Map global lattice coordinates (ix, iy) to strip unknown indices,
    -1 for Dirichlet or out-of-strip nodes."""
    m = grid.n_interface
    two_n = 2 * grid.n
    ix = np.asarray(ix)
    iy = np.asarray(iy)
    if side == LEFT:
        col = ix - 1
        inside = (ix >= 1) & (ix <= n_cols)
    else:
        col = (two_n - 1) - ix
        inside = (ix >= two_n - n_cols) & (ix <= two_n - 1)
    inside = inside & (iy >= 1) & (iy <= m)
    return np.where(inside, col * m + (iy - 1), -1)


def strip_triangles(grid: GridSpec, side=LEFT, n_cols=None):
    """All triangles of one strip: lattice corner coordinates (T, 3) for x
    and y, and strip unknown ids (T, 3) with -1 marking clamped nodes."""
    _check_side(side)
    n_cols = grid.n if n_cols is None else int(n_cols)
    two_n = 2 * grid.n
    if side == LEFT:
        gx = np.arange(0, n_cols)
    else:
        gx = np.arange(two_n - n_cols, two_n)
    gy = np.arange(0, two_n)
    cx, cy = np.meshgrid(gx, gy, indexing="ij")
    cx = cx.ravel()
    cy = cy.ravel()
    # one north-east diagonal per cell: lower and upper triangle
    tri_x = np.concatenate([
        np.stack([cx, cx + 1, cx + 1], axis=1),
        np.stack([cx, cx + 1, cx], axis=1),
    ])
    tri_y = np.concatenate([
        np.stack([cy, cy, cy + 1], axis=1),
        np.stack([cy, cy + 1, cy + 1], axis=1),
    ])
    ids = _strip_node_ids(grid, n_cols, side, tri_x, tri_y)
    return tri_x, tri_y, ids


def global_triangles(grid: GridSpec):
    """All triangles of the whole-square mesh with interior node numbering
    (ix - 1) * (2n - 1) + (iy - 1); -1 on the outer boundary."""
    two_n = 2 * grid.n
    m = two_n - 1
    gx, gy = np.meshgrid(np.arange(two_n), np.arange(two_n), indexing="ij")
    cx = gx.ravel()
    cy = gy.ravel()
    tri_x = np.concatenate([
        np.stack([cx, cx + 1, cx + 1], axis=1),
        np.stack([cx, cx + 1, cx], axis=1),
    ])
    tri_y = np.concatenate([
        np.stack([cy, cy, cy + 1], axis=1),
        np.stack([cy, cy + 1, cy + 1], axis=1),
    ])
    inside = (tri_x >= 1) & (tri_x <= m) & (tri_y >= 1) & (tri_y <= m)
    ids = np.where(inside, (tri_x - 1) * m + (tri_y - 1), -1)
    return tri_x, tri_y, ids


def _quadrature_load(grid, tri_x, tri_y, ids, n_unknowns, f, rule):
    try:
        bary, weights = QUADRATURES[rule]
    except KeyError:
        raise ValueError(f"unknown quadrature rule {rule!r}") from None
    x = grid.coord(tri_x)
    y = grid.coord(tri_y)
    area = 0.5 * grid.h * grid.h
    F = np.zeros(n_unknowns)
    for b, w in zip(bary, weights):
        fx = np.asarray(f(x @ b, y @ b), dtype=float)
        for k in range(3):
            mask = ids[:, k] >= 0
            F += np.bincount(ids[mask, k], weights=(area * w * b[k]) * fx[mask],
                             minlength=n_unknowns)
    return F


def assemble_load(grid: GridSpec, f, side=LEFT, rule="degree6", n_cols=None):
    """Load vector (f, phi_i) over one strip by triangle quadrature.

    f must accept numpy arrays.  The default rule integrates degree six
    exactly, which covers polynomial data like the manufactured right-hand
    side without quadrature error.
    """
    _check_side(side)
    n_cols = grid.n if n_cols is None else int(n_cols)
    tri_x, tri_y, ids = strip_triangles(grid, side, n_cols)
    return _quadrature_load(grid, tri_x, tri_y, ids, n_cols * grid.n_interface, f, rule)


def assemble_p1_forms(grid: GridSpec, tri_x, tri_y, ids, n_unknowns):
    """Consistent mass and stiffness matrices for a P1 triangle list.

    Element loop in vectorized form; returns (mass, stiffness) as CSR.
    """
    x = grid.coord(tri_x)
    y = grid.coord(tri_y)
    # edge vectors opposite each vertex give the P1 gradients
    bvec = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cvec = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * grid.h * grid.h
    ii, jj, vm, vk = [], [], [], []
    for p in range(3):
        for q in range(3):
            mask = (ids[:, p] >= 0) & (ids[:, q] >= 0)
            ii.append(ids[mask, p])
            jj.append(ids[mask, q])
            vm.append(np.full(mask.sum(), area / 12.0 * (2.0 if p == q else 1.0)))
            vk.append((bvec[mask, p] * bvec[mask, q] + cvec[mask, p] * cvec[mask, q]) / (4.0 * area))
    ii = np.concatenate(ii)
    jj = np.concatenate(jj)
    mass = SparseMatrix.from_coo(n_unknowns, n_unknowns, ii, jj, np.concatenate(vm))
    stiffness = SparseMatrix.from_coo(n_unknowns, n_unknowns, ii, jj, np.concatenate(vk))
    return mass, stiffness


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
    basis matrix, which at these sizes is faster than an FFT.

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
    """Assembled pieces for one strip: stiffness with free interface
    column, the interface mass and stiffness couplings, and the load."""

    grid: GridSpec
    side: str
    n_cols: int
    stiffness: SparseMatrix
    interface_mass: Tridiagonal
    interface_stiffness: Tridiagonal
    load: np.ndarray

    def robin_matrix(self, gamma: float) -> SparseMatrix:
        """Stiffness plus gamma times the interface mass on the trace block."""
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return add_interface_tridiagonal(self.stiffness, self.interface_mass, gamma)

    def solver(self, gamma: float) -> StripSolver:
        """Fast solver of the stiffness plus gamma times the interface mass
        on the trace block; gamma = 0 gives the Neumann stiffness."""
        if not 0.0 <= gamma < np.inf:
            raise ValueError("gamma must be non-negative and finite")
        stiff, mass = self.interface_stiffness, self.interface_mass
        last = Tridiagonal(mass.size, 4.0 - stiff.diag + gamma * mass.diag,
                           -1.0 - stiff.off + gamma * mass.off)
        return StripSolver(self.n_cols, last)

    def dirichlet_solver(self) -> StripSolver:
        """Fast solver of the interior block: the stiffness with the
        interface column removed (n_cols - 1 five-point columns)."""
        return StripSolver(self.n_cols - 1, Tridiagonal(self.grid.n_interface, 4.0, -1.0))


def build_subdomain_system(grid: GridSpec, f, side=LEFT, rule="degree6",
                           n_cols=None) -> SubdomainSystem:
    _check_side(side)
    n_cols = grid.n if n_cols is None else int(n_cols)
    return SubdomainSystem(
        grid=grid,
        side=side,
        n_cols=n_cols,
        stiffness=assemble_subdomain_stiffness(grid, side, n_cols),
        interface_mass=assemble_interface_mass(grid),
        interface_stiffness=assemble_interface_stiffness(grid),
        load=assemble_load(grid, f, side, rule, n_cols),
    )


def global_poisson_system(grid: GridSpec, f, rule="degree6"):
    """Single-domain stiffness and load on the whole square; the stiffness
    is the five-point matrix on the (2n-1) x (2n-1) interior lattice."""
    tri_x, tri_y, ids = global_triangles(grid)
    m = grid.n_interface
    _, stiffness = assemble_p1_forms(grid, tri_x, tri_y, ids, m * m)
    return stiffness, _quadrature_load(grid, tri_x, tri_y, ids, m * m, f, rule)


def write_matrix_market(path, A, comment=""):
    """Write a matrix in MatrixMarket coordinate format (1-based indices)."""
    if isinstance(A, Tridiagonal):
        A = _tridiagonal_to_sparse(A)
    if isinstance(A, SparseMatrix):
        with open(path, "w") as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            if comment:
                fh.write(f"% {comment}\n")
            fh.write(f"{A.rows} {A.cols} {len(A.values)}\n")
            for r, c, v in zip(A._expanded_rows, A.col_indices, A.values):
                fh.write(f"{r + 1} {c + 1} {v:.17g}\n")
        return
    A = np.asarray(A, dtype=float)
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        if comment:
            fh.write(f"% {comment}\n")
        fh.write(f"{A.shape[0]} {A.shape[1]}\n")
        for v in A.T.ravel():
            fh.write(f"{v:.17g}\n")


def _tridiagonal_to_sparse(tri: Tridiagonal) -> SparseMatrix:
    idx = np.arange(tri.size)
    i = np.concatenate([idx, idx[:-1], idx[1:]])
    j = np.concatenate([idx, idx[1:], idx[:-1]])
    v = np.concatenate([np.full(tri.size, tri.diag),
                        np.full(tri.size - 1, tri.off), np.full(tri.size - 1, tri.off)])
    return SparseMatrix.from_coo(tri.size, tri.size, i, j, v)
