import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from bdie2d import geometry, laplace
from bdie2d.errors import GeometryError, SingularEvaluationError
from bdie2d.geometry import boundary_grid, domain_mesh, make_curve


@pytest.fixture(scope="module")
def circle64():
    return boundary_grid(make_curve("circle"), 64)


@pytest.mark.parametrize("n", range(1, 9))
def test_boundary_operator_fourier_modes(circle64, n):
    grid = circle64
    mode = np.cos(n * grid.t)
    assert_allclose(laplace.single_layer_matrix(grid) @ mode,
                    mode / (2 * n), atol=1e-12)
    assert_allclose(laplace.double_layer_matrix(grid) @ mode, 0.0,
                    atol=1e-12)
    assert_allclose(laplace.hypersingular_matrix(grid) @ mode,
                    0.5 * n * mode, atol=1e-12)


def test_double_layer_of_constant_is_half_on_boundary(circle64):
    ones = np.ones(circle64.n)
    assert_allclose(laplace.double_layer_matrix(circle64) @ ones, 0.5,
                    atol=1e-13)


@pytest.mark.parametrize("name,params,inner,outer", [
    ("circle", {}, (0.3, -0.2), (2.5, 1.0)),
    ("ellipse", {"a": 2.0, "b": 1.0}, (0.5, 0.2), (3.5, 1.5)),
])
def test_gauss_identity_off_boundary(name, params, inner, outer):
    grid = boundary_grid(make_curve(name, **params), 64)
    ones = np.ones(grid.n)
    v_in, v_out = laplace.layer_rows_offboundary(
        grid, np.array([inner, outer]))[1] @ ones
    assert_allclose(v_in, 1.0, atol=1e-12)
    assert_allclose(v_out, 0.0, atol=1e-12)


def test_single_layer_closed_forms_off_boundary(circle64):
    grid = circle64
    y = np.array([[2.0, 0.0]])
    single = laplace.layer_rows_offboundary(grid, y)[0]
    val = single @ np.ones(grid.n)
    assert_allclose(val[0], -2 * np.pi * np.log(2.0) / (2 * np.pi),
                    atol=1e-13)
    cos_val = single @ np.cos(grid.t)
    # exterior single layer of cos(n t): cos(n phi) / (2 n r^n)
    assert_allclose(cos_val[0], 1.0 / 4.0, atol=1e-13)


def test_double_layer_mode_off_boundary(circle64):
    y = np.array([[2.0, 0.0]])
    dens = np.cos(2 * circle64.t)
    val = laplace.layer_rows_offboundary(circle64, y)[1] @ dens
    # exterior double layer of cos(n t): -cos(n phi) / (2 r^n)
    assert_allclose(val[0], -1.0 / 8.0, atol=1e-13)


def test_near_boundary_single_layer_closed_form(circle64):
    d = 1e-3
    y = np.array([[(1.0 + d) * np.cos(0.7), (1.0 + d) * np.sin(0.7)]])
    val = laplace.layer_rows_offboundary(circle64, y)[0] @ np.cos(circle64.t)
    exact = np.cos(0.7) / (2.0 * (1.0 + d))
    assert_allclose(val[0], exact, atol=1e-9)


def _circle_layers(mode, r, theta):
    """Single and double layer of cos(mode t) on the unit circle at polar
    (r, theta): the exterior and interior harmonic extensions."""
    if mode == 0:
        return (-np.log(r), 0.0) if r > 1.0 else (0.0, 1.0)
    c = np.cos(mode * theta)
    if r > 1.0:
        return c / (2 * mode * r ** mode), -c / (2 * r ** mode)
    return r ** mode * c / (2 * mode), r ** mode * c / 2


@pytest.mark.parametrize("n", [32, 512])
def test_close_evaluation_matches_the_circle_closed_forms(n):
    grid = boundary_grid(make_curve("circle"), n)
    d = np.array([1e-8, 1e-5, 1e-3, 1e-1, 0.5])
    r = np.concatenate([1.0 + d, 1.0 - d])
    theta = np.linspace(0.2, 6.1, r.size)
    targets = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    rows = laplace.layer_rows_offboundary(grid, targets)
    for mode in (0, 1, 3):
        dens = np.cos(mode * grid.t)
        exact = np.array([_circle_layers(mode, *p) for p in zip(r, theta)])
        for kind, col in (("single", 0), ("double", 1)):
            got = rows[col] @ dens
            err = np.abs(got - exact[:, col]) / np.maximum(
                1.0, np.abs(exact[:, col]))
            assert err.max() <= 1e-14, (mode, kind, err.max())


def test_fourier_diff_exactness():
    n = 32
    t = 2 * np.pi * np.arange(n) / n
    f = np.sin(4 * t) + 0.5 * np.cos(7 * t)
    # _times_derivative gives f[None] @ D = -(D f)^T
    df = -laplace._times_derivative(f[None], 1).real[0]
    assert_allclose(df, 4 * np.cos(4 * t) - 3.5 * np.sin(7 * t), atol=1e-12)


def _kress_weights_by_cosine_sum(grid):
    """The Kress weights as the plain O(N^3) sum of cosine matrices."""
    n_half = grid.n // 2
    dt = grid.t[:, None] - grid.t[None, :]
    acc = np.zeros((grid.n, grid.n))
    for m in range(1, n_half):
        acc += np.cos(m * dt) / m
    return -(2 * np.pi / n_half) * acc - (np.pi / n_half ** 2) * np.cos(n_half * dt)


@pytest.mark.parametrize("n", [8, 16, 64, 512])
def test_kress_weights_match_the_cosine_sum(n):
    grid = boundary_grid(make_curve("star", alpha=0.2, k=5), n)
    ref = _kress_weights_by_cosine_sum(grid)
    weights = laplace.kress_log_weights(grid)
    assert not weights.flags.writeable
    assert_allclose(weights, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())


def _single_layer_by_formula(grid):
    """The single layer built on whole (n, n) arrays: the reference for
    the row blocks, which keep its operations and their order."""
    x = grid.points
    dt = grid.t[:, None] - grid.t[None, :]
    d2 = ((x[:, None, 0] - x[None, :, 0]) ** 2
          + (x[:, None, 1] - x[None, :, 1]) ** 2)
    s2 = 4.0 * np.sin(dt / 2.0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        smooth = 0.5 * np.log(d2 / s2)
    np.fill_diagonal(smooth, np.log(grid.speeds))
    r_w = laplace.kress_log_weights(grid)
    mat = -(0.5 * r_w + (2 * np.pi / grid.n) * smooth) / (2 * np.pi)
    return mat * grid.speeds[None, :]


def _double_layer_by_formula(grid):
    """The double layer built on whole (n, n) arrays."""
    x = grid.points
    zx = x[None, :, 0] - x[:, None, 0]
    zy = x[None, :, 1] - x[:, None, 1]
    r2 = zx ** 2 + zy ** 2
    num = grid.normals[None, :, 0] * zx + grid.normals[None, :, 1] * zy
    with np.errstate(divide="ignore", invalid="ignore"):
        ker = -num / (2 * np.pi * r2) * grid.speeds[None, :]
    kappa_term = grid.curve.curvature_term(grid.t)
    np.fill_diagonal(ker, kappa_term / (2.0 * 2 * np.pi))
    return ker * (2 * np.pi / grid.n)


# n below, at, off a multiple of, and above the 64-row block
@pytest.mark.parametrize("n", [8, 64, 130, 512])
@pytest.mark.parametrize("name,params", [("circle", {}),
                                         ("ellipse", {"a": 2.0, "b": 1.0}),
                                         ("star", {"alpha": 0.2, "k": 5})])
def test_row_blocks_are_bitwise_the_whole_matrix_formulas(name, params, n):
    grid = boundary_grid(make_curve(name, **params), n)
    single = laplace.single_layer_matrix(grid)
    assert np.array_equal(single, _single_layer_by_formula(grid))
    assert single.flags.writeable and single.flags.owndata
    assert np.array_equal(laplace.double_layer_matrix(grid),
                          _double_layer_by_formula(grid))


@pytest.mark.parametrize("kind", ["single", "double"])
def test_base_size_rows_are_the_layer_weights(circle64, kind):
    # 2 and 3 from the circle: 8 L / d < 64, so the trapezoid rows
    targets = np.array([[3.0, 0.0], [0.5, -3.9], [-2.1, 2.1]])
    col = ("single", "double").index(kind)
    weights = laplace._layer_weights(circle64, targets)[col]
    assert np.array_equal(laplace.layer_rows_offboundary(circle64, targets)[col],
                          weights)
    assert np.array_equal(laplace._layer_weights(circle64, targets[1])[col],
                          weights[1])


def test_layer_rows_match_applied_potential(circle64):
    # far, inside and near targets: a block gives the potentials that each
    # target gives alone
    targets = np.array([[2.0, 0.5], [0.2, 0.1], [1.4, -1.2], [0.99, 0.05]])
    dens = np.cos(circle64.t) + 0.3 * np.sin(2 * circle64.t)
    block = laplace.layer_rows_offboundary(circle64, targets)
    for i, y in enumerate(targets):
        alone = laplace.layer_rows_offboundary(circle64, y)
        for rows, rows_alone in zip(block, alone):
            assert_allclose(rows[i] @ dens, rows_alone[0] @ dens, atol=1e-10)


@pytest.mark.parametrize("target,error", [
    ((1.0, 0.0), SingularEvaluationError),
    ((np.nan, 0.5), GeometryError),
], ids=["on-curve", "nan"])
def test_offboundary_rejects_on_curve_and_non_finite_targets(circle64, target,
                                                             error):
    y = np.array([[2.0, 0.5], target])
    with pytest.raises(error):
        laplace.layer_rows_offboundary(circle64, y)


def test_a_grid_with_flipped_normals_is_rejected_near_the_curve(circle64):
    flipped = dataclasses.replace(circle64, normals=-circle64.normals)
    ones = np.ones(circle64.n)
    # a trapezoid-rule target uses the grid's own normals: W 1 = -1 inside
    assert_allclose(laplace.layer_rows_offboundary(
        flipped, [[0.05, 0.0]])[1] @ ones, [-1.0], atol=1e-12)
    # a close-evaluated one would take the curve's normals instead
    with pytest.raises(GeometryError):
        laplace.layer_rows_offboundary(flipped, [[0.99, 0.0]])


def _rule_points(us, vs, target):
    """Points (u, v) and weights of the block builder's rule for one target
    on the cells with the lines us and vs."""
    p, pieces = laplace._cell_rule(us[None], vs[None], [target],
                                   np.ones((1, vs.size - 1), dtype=bool))
    parts = [np.broadcast_arrays(*laplace._points(pc, rule, p)) for pc, rule
             in zip(pieces, laplace._reference_rules(laplace._ORDER))]
    return (np.concatenate([part[k] for part in parts], axis=None)
            for k in range(3))


@pytest.mark.parametrize("v_cap", [np.inf, 0.05], ids=["uncapped", "capped"])
@pytest.mark.parametrize("center", [(0.37, 0.12), (0.0, 0.41), (1.0, -0.3)],
                         ids=["inside", "edge", "corner"])
def test_dyadic_rule_integrates_linear_functions(center, v_cap):
    # the near-field rule (once a dyadic grid, now the cell rule) on one
    # rectangle, cut into columns no taller than v_cap when that is finite
    rect = (0.0, 1.0, -0.3, 0.7)
    x0, x1, y0, y1 = rect
    n_v = 1 if np.isinf(v_cap) else int(np.ceil((y1 - y0) / v_cap))
    u, v, w = _rule_points(np.array([x0, x1]), np.linspace(y0, y1, n_v + 1),
                           center)
    assert np.all((u > x0) & (u < x1) & (v > y0) & (v < y1))
    # cells no taller than v_cap leave no larger gap between nodes along v
    assert np.diff(np.unique(v)).max() < v_cap
    # the rule covers the whole rectangle
    area = (x1 - x0) * (y1 - y0)
    exact = np.array([area, area * (x0 + x1) / 2, area * (y0 + y1) / 2])
    got = np.array([w.sum(), w @ u, w @ v])
    assert_allclose(got, exact, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("target", [
    (1.9, 0.07), (1.9, 0.0), (None, 0.0), (2.5, 0.2), (0.0, -0.13),
    (0.0, 0.0), (6.0, 0.11), (2.5 + 1e-13, 0.2 - 1e-13)],
    ids=["inside", "column-line", "mesh-node", "cell-corner", "rho-0",
         "rho-0-column-line", "rho-above-1", "near-a-corner"])
def test_cell_rule_integrates_linear_functions_on_each_cell(ring_mesh,
                                                            target):
    # the cells of the bump-dipole N=32 mesh, scaled as _blocks does:
    # radial span 5, 12 columns of width 0.2
    us = ring_mesh.breakpoints * 5.0
    vs = np.arange(-6, 7) * 0.2
    if target[0] is None:
        target = (ring_mesh.rho[5] * 5.0, target[1])
    u, v, w = _rule_points(us, vs, target)
    # every point lies inside one cell, off its lines
    iu, iv = np.searchsorted(us, u) - 1, np.searchsorted(vs, v) - 1
    assert iu.min() >= 0 and iu.max() < us.size - 1
    assert iv.min() >= 0 and iv.max() < vs.size - 1
    assert not np.isin(u, us).any() and not np.isin(v, vs).any()
    n_u, n_v = us.size - 1, vs.size - 1
    cell = iu * n_v + iv
    got = np.stack([np.bincount(cell, w * f, minlength=n_u * n_v)
                    for f in (1.0, u, v)], axis=1)
    u0, v0 = np.repeat(us[:-1], n_v), np.tile(vs[:-1], n_u)
    du, dv = np.repeat(np.diff(us), n_v), np.tile(np.diff(vs), n_u)
    exact = (du * dv)[:, None] * np.stack([np.ones_like(u0), u0 + du / 2,
                                           v0 + dv / 2], axis=1)
    assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()


@pytest.fixture(scope="module")
def annulus_mesh():
    return domain_mesh(make_curve("circle"), 4.0, 4 * np.pi / 64, m_theta=64)


def _radial_newtonian(rho_target, g, r_out):
    """(1/2pi) integral of log|y-x| g(|x|) over the annulus at a radial target."""
    val, _ = quad(lambda r: np.log(max(r, rho_target)) * g(r) * r, 1.0,
                  r_out, limit=200)
    return val


def test_newtonian_potential_radial_oracle(annulus_mesh):
    mesh = annulus_mesh
    g = lambda r: np.exp(-r ** 2)
    g_fn = lambda p: np.exp(-(p[:, 0] ** 2 + p[:, 1] ** 2))
    targets = np.array([[1.7, 0.9], [0.5, -3.1], [3.9, 0.0], [1.05, 0.0]])
    vals = laplace.newtonian_potential(mesh, targets, g_fn=g_fn)
    for k, y in enumerate(targets):
        exact = _radial_newtonian(np.hypot(*y), g, 4.0)
        assert abs(vals[k] - exact) <= 1e-5


def test_a_four_column_mesh_gets_a_two_column_window():
    # 0.9 pi is 1.8 columns here, which rounds down to no even count; the
    # window keeps two, and no division by a zero width happens
    mesh = domain_mesh(make_curve("circle"), 4.0, 0.5, m_theta=4)
    y = np.array([[1.7, 0.9]])
    with np.errstate(all="raise"):
        val = laplace.newtonian_potential(
            mesh, y, g_fn=lambda p: np.exp(-(p[:, 0] ** 2 + p[:, 1] ** 2)))
    exact = _radial_newtonian(np.hypot(*y[0]), lambda r: np.exp(-r ** 2), 4.0)
    assert abs(val[0] - exact) <= 0.05 * abs(exact)


def test_declared_zero_density_gives_a_zero_potential(annulus_mesh):
    targets = np.array([[1.7, 0.9], [0.5, -3.1], [1.05, 0.0]])
    zero_fn = lambda p: np.zeros(len(p))
    assert np.array_equal(
        laplace.newtonian_potential(annulus_mesh, targets, g_fn=None),
        laplace.newtonian_potential(annulus_mesh, targets, g_fn=zero_fn))


def test_domain_rows_consistent_with_direct_quadrature(annulus_mesh):
    mesh = annulus_mesh
    g_fn = lambda p: np.exp(-(p[:, 0] ** 2 + p[:, 1] ** 2)) \
        * (1.0 + 0.2 * p[:, 0])
    targets = np.array([[1.6, 0.4], [2.5, -1.0]])
    direct = laplace.newtonian_potential(mesh, targets, g_fn=g_fn)
    rows = laplace.domain_rows(mesh, targets, _unit)[0]
    assert_allclose(rows @ g_fn(mesh.points), direct, atol=2e-5)


def _unit(x):
    """Row factors of the plain Laplace kernel P(x - y)."""
    return (np.ones(len(x)),), None


def _per_point_rows(mesh, targets, kernel, near):
    """domain_rows with a 16-entry interpolation stencil per fine point of
    each (target, piece) pair."""
    rows = np.zeros((len(targets), mesh.n_nodes))
    dtheta = 2 * np.pi / mesh.m_theta
    for block in laplace._blocks(mesh, targets, near, False):
        ii, jj, w_row, _ = laplace._far(mesh, block.centre, block.half,
                                        near[block.idx])
        y = targets[block.idx]
        rows[block.idx[ii], jj] = w_row * kernel(mesh.points[jj], y[ii])
        for kind, rule in zip(block.near,
                              laplace._reference_rules(laplace._ORDER)):
            # each distinct piece's points, as its own target places them
            own = kind.pieces.cell[:, 0]
            u, v, w = (a.reshape(own.size, -1) for a in np.broadcast_arrays(
                *laplace._points(kind.pieces, rule, block.p)))
            su, sv = block.scale[own, 0, None], block.scale[own, 1, None]
            rho, dth = u / su, v / sv
            theta = mesh.theta[block.centre[own], None] + dth
            x, span, r = mesh.physical(rho, theta)
            w = w / (su * sv) * span * r
            own_col = kind.pieces.cell[:, 2, None]
            for t, p, col in zip(kind.target, kind.piece, kind.col):
                if not near[block.idx[t]]:
                    continue
                window = laplace._bump((dth[p] / dtheta - own_col[p] + col)
                                       / block.half[t])
                idx, wts = mesh.interpolation(rho[p], theta[p])
                np.add.at(rows, (block.idx[t], idx),
                          (w[p] * window * kernel(x[p], y[t]))[:, None] * wts)
    return rows


@pytest.mark.parametrize("curve,r_trunc,m_theta,order", [
    (("circle", {}), 4.0, 32, 4),
    (("star", {"alpha": 0.2, "k": 5}), 3.0, 24, 4),
    (("circle", {}), 4.0, 8, 4),
    (("circle", {}), 4.0, 32, 6),
    (("star", {"alpha": 0.2, "k": 5}), 3.0, 24, 6)],
    ids=["circle", "star", "circle-8-columns", "circle-6-point",
         "star-6-point"])
def test_domain_rows_match_the_per_point_scatter(curve, r_trunc, m_theta,
                                                 order, monkeypatch):
    # the interpolant is the mesh's: its panel order and angular stencil
    # are set in geometry alone
    monkeypatch.setattr(geometry, "_Q", order)
    monkeypatch.setattr(geometry, "_STENCIL",
                        np.arange(1 - order // 2, 1 + order // 2))
    mesh = domain_mesh(make_curve(curve[0], **curve[1]), r_trunc,
                       4 * np.pi / m_theta, m_theta=m_theta)
    j = m_theta // 3
    th = mesh.theta[j]
    on_curve = mesh.r_curve[j] * np.array([np.cos(th), np.sin(th)])
    targets = np.array([
        mesh.points[2 * mesh.m_theta + j],          # interior node
        on_curve,                                   # boundary node, rho = 0
        (r_trunc + 0.3) * np.array([np.cos(0.4), np.sin(0.4)]),  # rho > 1
        [0.4 * r_trunc, -0.3 * r_trunc]])           # near field skipped
    near = np.array([True, True, True, False])

    def kernel(x, y):
        return laplace._kernels(x, y)[0] * (1.0 + 0.3 * x[:, 0])

    rows = laplace.domain_rows(
        mesh, targets, lambda x: ((1.0 + 0.3 * x[:, 0],), None),
        near_targets=near)[0]
    ref = _per_point_rows(mesh, targets, kernel, near)
    assert np.abs(rows - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.fixture(scope="module")
def ring_mesh():
    """The bump-dipole N=32 mesh, rotation-invariant by whole columns."""
    return domain_mesh(make_curve("circle"), 6.0, 4 * np.pi / 32, m_theta=32)


def test_rows_of_a_circle_ring_are_rotations_of_one_row(ring_mesh):
    mesh = ring_mesh
    targets = mesh.points[5 * mesh.m_theta:6 * mesh.m_theta]
    rows = laplace.domain_rows(mesh, targets, _unit)[0]
    first = rows[0].reshape(mesh.n_r, mesh.m_theta)
    gap = max(np.abs(np.roll(row.reshape(mesh.n_r, mesh.m_theta), -j, axis=1)
                     - first).max() for j, row in enumerate(rows))
    assert gap <= 1e-13 * np.abs(rows).max()


def test_a_roundoff_shift_of_the_target_keeps_its_row(ring_mesh):
    mesh = ring_mesh
    targets = mesh.points[5 * mesh.m_theta:6 * mesh.m_theta]
    rows = laplace.domain_rows(mesh, targets, _unit)[0]
    for shift in ([1e-14, 0.0], [0.0, -1e-14]):
        moved = laplace.domain_rows(mesh, targets + shift, _unit)[0]
        assert np.abs(moved - rows).max() <= 1e-10 * np.abs(rows).max()


def _factors(x):
    """Row factors and value factors of a smooth weight times P(x - y),
    the value one a Gaussian times the row one."""
    p = 1.0 + 0.3 * x[:, 0]
    return (p,), (p * np.exp(-0.1 * (x[:, 0] ** 2 + x[:, 1] ** 2)),)


@pytest.fixture
def blocks(monkeypatch):
    """Records (targets, points of the (target, piece) pairs, points of the
    distinct pieces) of each block that laplace._blocks yields."""
    seen, build = [], laplace._blocks
    sizes = [rule[2].size for rule in laplace._reference_rules(laplace._ORDER)]

    def recorded(*args):
        for block in build(*args):
            seen.append((block.idx.size,
                         sum(k.target.size * n
                             for k, n in zip(block.near, sizes)),
                         sum(k.pieces.cell.shape[0] * n
                             for k, n in zip(block.near, sizes))))
            yield block

    monkeypatch.setattr(laplace, "_blocks", recorded)
    return seen


@pytest.mark.parametrize("curve,r_trunc", [
    (("circle", {}), 6.0), (("star", {"alpha": 0.2, "k": 5}), 6.0)],
    ids=["circle", "star"])
def test_a_block_of_targets_matches_one_target_at_a_time(curve, r_trunc,
                                                         blocks, monkeypatch):
    mesh = domain_mesh(make_curve(curve[0], **curve[1]), r_trunc,
                       4 * np.pi / 32, m_theta=32)
    m, j = mesh.m_theta, 5
    th = mesh.theta[j] + np.array([0.0, 0.5 * 2 * np.pi / m])
    targets = np.concatenate([
        mesh.points[[2 * m + j, 6 * m + 11, 9 * m + 20]],   # mesh nodes
        mesh.curve.position(th),                 # boundary node; rho = 0
        [[2.3, 1.1], [-1.7, -2.6], [0.4, 3.3]],  # between columns
        (r_trunc + 0.7) * np.array([[np.cos(0.4), np.sin(0.4)]]),  # far
        [[-2.9, 0.6], [1.9, -2.2]]])   # rows skip the near field, values not
    near = np.ones(len(targets), dtype=bool)
    near[-2:] = False
    cuts, cut = [], laplace._cell_rule

    def counted(*args):
        cuts.append(len(args[2]))
        return cut(*args)

    monkeypatch.setattr(laplace, "_cell_rule", counted)
    rows, values = laplace.domain_rows(mesh, targets, _factors,
                                       near_targets=near)
    # one cut for all, whatever their windows' half-widths (on the circle 8
    # columns at the boundary nodes, 6 at the mesh nodes, none at the far
    # target)
    assert cuts == [len(targets)]
    assert max(n_targets for n_targets, _, _ in blocks) > 1
    for i, y in enumerate(targets):
        row, value = laplace.domain_rows(mesh, y[None], _factors,
                                         near_targets=near[i:i + 1])
        assert np.abs(rows[i] - row[0]).max() <= 1e-13 * np.abs(row).max()
        assert abs(values[i] - value[0]) <= 1e-13 * abs(value[0])


def test_no_chunk_exceeds_the_point_cap(ring_mesh, blocks, monkeypatch):
    # the kernels and, apart from the mesh nodes, the factors see at most
    # _POINTS points at a time, also where one target's pieces hold more
    seen, kernels = [], laplace._kernels

    def counted(x, y):
        seen.append(x[..., 0].size)
        return kernels(x, y)

    monkeypatch.setattr(laplace, "_kernels", counted)
    fine_mesh = domain_mesh(make_curve("circle"), 6.0, 4 * np.pi / 128,
                            m_theta=128)
    for mesh, targets in ((ring_mesh, ring_mesh.points[::3]),
                          (fine_mesh, fine_mesh.points[[300, 2000]])):
        points = []

        def factors(x):
            points.append(len(x))
            return _factors(x)

        laplace.domain_rows(mesh, targets, factors)
        assert points[0] == mesh.n_nodes
        assert max(points[1:]) <= laplace._POINTS
    assert max(seen) <= laplace._POINTS
    # each of the 128-column mesh's two targets holds more than the cap
    assert blocks[-1][0] == 2 and blocks[-1][1] > 2 * laplace._POINTS


def test_each_node_factor_is_evaluated_once_per_pass(ring_mesh, blocks,
                                                     monkeypatch):
    # the factors run once at the mesh nodes, for the far parts of all
    # targets, and once at each distinct piece of a block
    monkeypatch.setattr(laplace, "_SHARED", 1000)  # several blocks
    points = []

    def counted(x):
        points.append(len(x))
        return _factors(x)

    targets = np.concatenate([ring_mesh.points[::7],
                              [[2.3, 1.1], [-2.9, 0.6]]])
    near = np.ones(len(targets), dtype=bool)
    near[-1] = False   # rows skip the near field, values not
    laplace.domain_rows(ring_mesh, targets, counted, near_targets=near)
    assert len(blocks) > 1
    assert sum(points) == ring_mesh.n_nodes + sum(f for _, _, f in blocks)
    assert sum(points) < ring_mesh.n_nodes + sum(p for _, p, _ in blocks)


def test_no_targets_give_empty_rows_and_values(ring_mesh):
    columns = np.arange(0, ring_mesh.n_nodes, 3)
    rows, values = laplace.domain_rows(ring_mesh, np.zeros((0, 2)), _factors,
                                       columns=columns)
    assert rows.shape == (0, columns.size) and values.shape == (0,)


def test_a_non_finite_volume_target_is_rejected(ring_mesh):
    with pytest.raises(GeometryError):
        laplace.domain_rows(ring_mesh, [[2.0, 0.5], [np.nan, 1.0]], _unit)
