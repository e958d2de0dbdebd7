"""Triangle-list P1 assembly, kept for the tests as an oracle.

robinlab never assembles the whole square: the sweeps work on the two
strips, error_norms applies the mass and stiffness forms by stencil, and
assemble_load sums strip loads on the node lattice.  These element-loop
helpers (vectorized over triangles) list the triangles of a strip or of
the whole square with their unknown ids, and build the P1 forms and the
quadrature load of any triangle list by scatter-adds, so the tests can
check the strip assembly, the converged sweeps and the stencils against
them.
"""

import numpy as np
from scipy.sparse import csr_matrix

from robinlab.grid_fem import LEFT, TRI_DEGREE6, GridSpec, _check_side


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


def _quadrature_load(grid, tri_x, tri_y, ids, n_unknowns, f):
    bary, weights = TRI_DEGREE6
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


def assemble_p1_forms(grid: GridSpec, tri_x, tri_y, ids, n_unknowns):
    """Consistent mass and stiffness matrices for a P1 triangle list.

    Element loop in vectorized form; returns (mass, stiffness) as CSR, the
    duplicate element contributions summed.
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
    shape = (n_unknowns, n_unknowns)
    mass = csr_matrix((np.concatenate(vm), (ii, jj)), shape=shape)
    stiffness = csr_matrix((np.concatenate(vk), (ii, jj)), shape=shape)
    return mass, stiffness


def global_poisson_system(grid: GridSpec, f):
    """Single-domain stiffness and load on the whole square; the stiffness
    is the five-point matrix on the (2n-1) x (2n-1) interior lattice."""
    tri_x, tri_y, ids = global_triangles(grid)
    m = grid.n_interface
    _, stiffness = assemble_p1_forms(grid, tri_x, tri_y, ids, m * m)
    return stiffness, _quadrature_load(grid, tri_x, tri_y, ids, m * m, f)
