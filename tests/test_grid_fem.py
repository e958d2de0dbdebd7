"""Mesh, assembly, and quadrature checks against element-loop oracles."""
import math

import numpy as np
import pytest

from robinlab import (Tridiagonal, assemble_load, build_grid, build_subdomain_system,
                      fd_eigenvalue)
from robinlab.experiments import manufactured_solution
from robinlab.grid_fem import TRI_DEGREE6, offcenter_columns, strip_matrix
from robinlab.spectral import sine_basis_matrix
from p1_oracle import (_quadrature_load, assemble_p1_forms, global_poisson_system,
                       global_triangles, strip_triangles)
from robin_oracle import add_interface_tridiagonal, strip_stiffness


def element_loop_stiffness(vertices, ids, n_unknowns):
    """Scalar-loop P1 stiffness oracle: one triangle at a time.

    vertices is a list of three (x, y) pairs per triangle, ids the matching
    unknown indices with -1 for clamped nodes.
    """
    K = np.zeros((n_unknowns, n_unknowns))
    for verts, nid in zip(vertices, ids):
        (x0, y0), (x1, y1), (x2, y2) = verts
        area = 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        bs = (y1 - y2, y2 - y0, y0 - y1)
        cs = (x2 - x1, x0 - x2, x1 - x0)
        for p in range(3):
            if nid[p] < 0:
                continue
            for q in range(3):
                if nid[q] < 0:
                    continue
                K[nid[p], nid[q]] += (bs[p] * bs[q] + cs[p] * cs[q]) / (4.0 * area)
    return K


def element_loop_mass(vertices, ids, n_unknowns):
    M = np.zeros((n_unknowns, n_unknowns))
    for verts, nid in zip(vertices, ids):
        (x0, y0), (x1, y1), (x2, y2) = verts
        area = 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        for p in range(3):
            if nid[p] < 0:
                continue
            for q in range(3):
                if nid[q] < 0:
                    continue
                M[nid[p], nid[q]] += area / 12.0 * (2.0 if p == q else 1.0)
    return M


def rectangle_triangles(nx, ny, h, node_id):
    """Triangulate [0, nx h] x [0, ny h] with one north-east diagonal per
    cell; node_id maps lattice points to unknown indices (-1 clamped)."""
    vertices, ids = [], []
    for i in range(nx):
        for j in range(ny):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            for tri in ([0, 1, 2], [0, 2, 3]):
                vertices.append([(corners[k][0] * h, corners[k][1] * h) for k in tri])
                ids.append([node_id(*corners[k]) for k in tri])
    return vertices, ids


def test_grid_spec_fields():
    grid = build_grid(2)
    assert grid.h == 0.25
    assert grid.n_interface == 3
    assert grid.coord(4) == 1.0
    assert grid.coord(2) == 0.5


def test_build_grid_rejects_bad_n():
    with pytest.raises(ValueError):
        build_grid(0)
    with pytest.raises(ValueError):
        build_grid(2.5)


@pytest.mark.parametrize("side", ["left", "right"])
def test_strip_width_must_fit_the_square(side):
    # a strip has 1..2n-1 whole columns; a wider one would take its load
    # from outside the unit square
    grid = build_grid(2)
    _, f = manufactured_solution()
    for k in (1, 3):
        system = build_subdomain_system(grid, f, side, n_cols=k)
        assert system.n_cols == k
        assert system.load.shape == (k * grid.n_interface,)
    for k in (0, 4, 2.5):
        with pytest.raises(ValueError, match="n_cols must be an integer in 1..3"):
            build_subdomain_system(grid, f, side, n_cols=k)


def test_integer_past_largest_float_is_rejected():
    # a width or n past the largest float is checked without converting it
    # to float, which would raise OverflowError
    with pytest.raises(ValueError, match="n must be a positive integer"):
        build_grid(10 ** 400)
    _, f = manufactured_solution()
    with pytest.raises(ValueError, match="n_cols must be an integer in 1..3"):
        build_subdomain_system(build_grid(2), f, "left", 10 ** 400)


def test_tridiagonal_against_dense():
    tri = Tridiagonal(5, 2.0, -0.5)
    dense = tri.to_dense()
    v = np.array([1.0, -2.0, 0.0, 3.0, 1.0])
    assert np.abs(tri.matvec(v) - dense @ v).max() < 1e-14
    assert np.abs(np.sort(tri.eigenvalues()) - np.linalg.eigvalsh(dense)).max() < 1e-12


def test_interface_mass_entries():
    assert np.array_equal(Tridiagonal.interface_mass(build_grid(1).n_interface).to_dense(),
                          [[1.0 / 3.0]])
    M = Tridiagonal.interface_mass(build_grid(2).n_interface)
    assert M.diag == pytest.approx(1.0 / 6.0)
    assert M.off == pytest.approx(1.0 / 24.0)
    # interior row sum equals the mesh width
    assert M.to_dense()[1].sum() == pytest.approx(0.25)


def neumann_block(grid):
    return build_subdomain_system(grid, lambda x, y: 0.0).interface_block()


def test_interface_stiffness_entries():
    # the Neumann block is half the five-point block
    assert np.array_equal(neumann_block(build_grid(1)).to_dense(), [[2.0]])
    A = neumann_block(build_grid(2))
    assert A.diag == 2.0
    assert A.off == -0.5
    dense = A.to_dense()
    assert np.array_equal(dense, dense.T)


def test_interface_matrices_diagonalized_by_sine_basis():
    grid = build_grid(3)
    m = grid.n_interface
    h = grid.h
    lam = np.array([fd_eigenvalue(j, m) for j in range(1, m + 1)])
    phi = sine_basis_matrix(m).T  # modes as columns
    M = Tridiagonal.interface_mass(grid.n_interface).to_dense()
    A = neumann_block(grid).to_dense()
    assert np.abs(phi.T @ M @ phi - np.diag(h - (h / 6.0) * lam)).max() < 1e-12
    assert np.abs(phi.T @ A @ phi - np.diag(1.0 + 0.5 * lam)).max() < 1e-12


def test_a0_single_unknown():
    assert np.array_equal(strip_stiffness(build_grid(1), clamped=True).toarray(), [[4.0]])


def test_a0_equals_clamped_element_loop():
    # the five-point strip matrix is the P1 stiffness of the one-column-wider
    # rectangle with zero boundary values all around
    for n in (1, 2, 3):
        grid = build_grid(n)
        m = grid.n_interface

        def node_id(ix, iy):
            if 1 <= ix <= n and 1 <= iy <= m:
                return (ix - 1) * m + (iy - 1)
            return -1

        vertices, ids = rectangle_triangles(n + 1, 2 * n, grid.h, node_id)
        want = element_loop_stiffness(vertices, ids, n * m)
        assert np.abs(strip_stiffness(grid, clamped=True).toarray() - want).max() < 1e-13


def test_a0_eigenvector_identity():
    for n in (2, 3):
        grid = build_grid(n)
        m = grid.n_interface
        A = strip_stiffness(grid, clamped=True)
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                v = np.kron(sine_basis_matrix(n)[i - 1], sine_basis_matrix(m)[j - 1])
                lam = fd_eigenvalue(i, n) + fd_eigenvalue(j, m)
                assert np.abs(A @ v - lam * v).max() < 1e-10


def test_subdomain_stiffness_single_unknown():
    assert np.array_equal(
        strip_stiffness(build_grid(1)).toarray(), [[2.0]])


def test_subdomain_stiffness_equals_free_interface_element_loop():
    # element loop over the strip cells only; the trace column stays free
    for n in (1, 2, 3):
        grid = build_grid(n)
        m = grid.n_interface

        def node_id(ix, iy):
            if 1 <= ix <= n and 1 <= iy <= m:
                return (ix - 1) * m + (iy - 1)
            return -1

        vertices, ids = rectangle_triangles(n, 2 * n, grid.h, node_id)
        want = element_loop_stiffness(vertices, ids, n * m)
        got = strip_stiffness(grid).toarray()
        assert np.abs(got - want).max() < 1e-13


def test_one_column_strip_matrix_is_the_tridiagonal():
    # every entry is stored, a zero off-diagonal included
    for tri in (Tridiagonal(1, 2.0, -0.5), Tridiagonal(5, 2.0 / 3.0, 1.0 / 6.0),
                Tridiagonal(4, 2.0, 0.0)):
        A = strip_matrix(1, tri)
        assert np.array_equal(A.toarray(), tri.to_dense())
        assert A.nnz == 3 * tri.size - 2


def test_robin_matrix_positive_definite():
    grid = build_grid(2)
    stiffness = strip_stiffness(grid)
    rng = np.random.default_rng(1)
    for gamma in (1e-3, 1.0, 1e3):
        A = add_interface_tridiagonal(stiffness, Tridiagonal.interface_mass(grid.n_interface),
                                      gamma)
        dense = A.toarray()
        assert np.abs(dense - dense.T).max() < 1e-13
        for _ in range(20):
            v = rng.standard_normal(A.shape[0])
            assert v @ (dense @ v) > 0.0


def test_quadrature_rules_integrate_monomials():
    # reference-triangle moments: int x^a y^b = a! b! / (a+b+2)!
    bary, weights = TRI_DEGREE6
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    xs = bary[:, 1]
    ys = bary[:, 2]
    for a in range(7):
        for b in range(7 - a):
            exact = (math.factorial(a) * math.factorial(b)
                     / math.factorial(a + b + 2))
            got = 0.5 * np.sum(weights * xs ** a * ys ** b)
            assert got == pytest.approx(exact, abs=5e-15), (a, b)


def test_load_zero_field():
    grid = build_grid(2)
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    assert np.array_equal(assemble_load(grid, zero, "left"), np.zeros(6))


def test_load_constant_field():
    # hat integrals for f=1: h^2 at interior columns, h^2/2 on the trace
    grid = build_grid(2)
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    want = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5]) / 16.0
    got = assemble_load(grid, one, "left")
    assert np.abs(got - want).max() < 1e-15


def test_load_manufactured_exact_integrals():
    # exact rational integrals of f against each hat, n=2 strips
    grid = build_grid(2)
    _, f = manufactured_solution()
    want_left = np.array([-77 / 240, -229 / 480, -77 / 240,
                          59 / 960, -7 / 960, 17 / 960])
    want_right = np.array([613 / 240, 1451 / 480, 553 / 240,
                           563 / 960, 599 / 960, 97 / 192])
    got_left = assemble_load(grid, f, "left")
    got_right = assemble_load(grid, f, "right")
    assert np.abs(got_left - want_left).max() < 1e-10
    assert np.abs(got_right - want_right).max() < 1e-10


def test_load_bit_identical_to_triangle_scatter():
    # the lattice sum adds the same terms in the same order as a bincount
    # over the triangle list, so the two agree to the last bit
    _, f_poly = manufactured_solution()

    def f_smooth(x, y):
        return np.exp(x) * np.sin(3.0 * y) + np.cos(x * y)

    cases = [(n, n_cols) for n in list(range(1, 30)) + [36, 72, 108, 144]
             for n_cols in sorted({n, *offcenter_columns(build_grid(n))})]
    for n, n_cols in cases + [(288, 288)]:
        grid = build_grid(n)
        for side in ("left", "right"):
            tri_x, tri_y, ids = strip_triangles(grid, side, n_cols)
            for f in (f_poly, f_smooth):
                want = _quadrature_load(grid, tri_x, tri_y, ids,
                                        n_cols * grid.n_interface, f)
                got = assemble_load(grid, f, side, n_cols)
                assert np.array_equal(got, want), (n, side, n_cols)


def test_load_broadcasts_field_result():
    # a scalar or an axis-shaped result stands for the full-lattice field
    def full(x, y):
        return np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)))

    for n in (1, 2, 7):
        grid = build_grid(n)
        for side in ("left", "right"):
            for n_cols in sorted({n, *offcenter_columns(grid)}):
                want = assemble_load(grid, full, side, n_cols)
                for f in (lambda x, y: 1.0, lambda x, y: np.ones_like(x)):
                    got = assemble_load(grid, f, side, n_cols)
                    assert np.array_equal(got, want), (n, side, n_cols)


def test_load_evaluates_field_on_axes():
    # f sees one coordinate per cell column (x) and per cell row (y), for
    # the lower and the upper triangle, not one per triangle
    for n, n_cols in ((3, 3), (5, 2)):
        shapes = []

        def f(x, y):
            shapes.append((x.shape, y.shape))
            return x + y

        assemble_load(build_grid(n), f, "right", n_cols)
        assert shapes == [((2, n_cols, 1), (2, 1, 2 * n))] * len(TRI_DEGREE6[1])


def test_strip_triangles_cover_strip():
    grid = build_grid(2)
    tri_x, tri_y, ids = strip_triangles(grid, "left")
    assert tri_x.shape == (16, 3)
    # total area of the triangles equals the strip area 1/2 * 1
    area = 0.5 * grid.h * grid.h * len(tri_x)
    assert area == pytest.approx(0.5)
    assert ids.max() == 5 and ids.min() == -1
    # right strip ids mirror: the interface column keeps the same numbers
    _, _, rids = strip_triangles(grid, "right")
    assert set(rids.ravel()) == set(ids.ravel())


def test_p1_forms_match_element_loop():
    grid = build_grid(2)
    tri_x, tri_y, ids = strip_triangles(grid, "left")
    n_unknowns = grid.n * grid.n_interface
    mass, stiffness = assemble_p1_forms(grid, tri_x, tri_y, ids, n_unknowns)
    vertices = [[(grid.coord(tri_x[t, k]), grid.coord(tri_y[t, k]))
                 for k in range(3)] for t in range(len(tri_x))]
    want_k = element_loop_stiffness(vertices, ids.tolist(), n_unknowns)
    want_m = element_loop_mass(vertices, ids.tolist(), n_unknowns)
    assert np.abs(stiffness.toarray() - want_k).max() < 1e-13
    assert np.abs(mass.toarray() - want_m).max() < 1e-15


def test_global_system_matches_element_loop():
    grid = build_grid(2)
    _, f = manufactured_solution()
    K, load = global_poisson_system(grid, f)
    m = grid.n_interface

    def node_id(ix, iy):
        if 1 <= ix <= m and 1 <= iy <= m:
            return (ix - 1) * m + (iy - 1)
        return -1

    vertices, ids = rectangle_triangles(2 * grid.n, 2 * grid.n, grid.h, node_id)
    want = element_loop_stiffness(vertices, ids, m * m)
    assert np.abs(K.toarray() - want).max() < 1e-13
    # load splits into the two strip loads: left columns, then the right
    # strip's mirrored columns; interface entries are shared sums
    left = assemble_load(grid, f, "left")
    right = assemble_load(grid, f, "right")
    glob = np.zeros(m * m)
    for col in range(grid.n - 1):
        glob[col * m:(col + 1) * m] += left[col * m:(col + 1) * m]
    glob[(grid.n - 1) * m:grid.n * m] += left[(grid.n - 1) * m:]
    for col in range(grid.n - 1):
        gcol = (2 * grid.n - 2) - col
        glob[gcol * m:(gcol + 1) * m] += right[col * m:(col + 1) * m]
    glob[(grid.n - 1) * m:grid.n * m] += right[(grid.n - 1) * m:]
    assert np.abs(load - glob).max() < 1e-14


def test_global_triangles_tile_square():
    grid = build_grid(3)
    tri_x, _, ids = global_triangles(grid)
    assert len(tri_x) == 2 * (2 * grid.n) ** 2
    assert ids.max() == grid.n_interface ** 2 - 1
