import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ellipe

from bdie2d.errors import (DiscretizationError, GeometryError,
                           UnknownCatalogError)
from bdie2d.geometry import (CurveParametrization, boundary_grid, domain_mesh,
                             make_curve)


def test_circle_grid_length():
    grid = boundary_grid(make_curve("circle"), 64)
    assert_allclose(grid.length, 2 * np.pi, rtol=1e-14)


def test_circle_radius_scaling():
    grid = boundary_grid(make_curve("circle", radius=2.5), 64)
    assert_allclose(grid.length, 5 * np.pi, rtol=1e-14)
    assert_allclose(np.hypot(grid.points[:, 0], grid.points[:, 1]), 2.5)


def test_ellipse_perimeter():
    a, b = 2.0, 1.0
    grid = boundary_grid(make_curve("ellipse", a=a, b=b), 256)
    exact = 4 * a * ellipe(1 - (b / a) ** 2)
    assert_allclose(grid.length, exact, rtol=1e-12)


@pytest.mark.parametrize("name,params", [
    ("circle", {}),
    ("ellipse", {"a": 2.0, "b": 1.0}),
    ("star", {"alpha": 0.2, "k": 5}),
])
def test_normals_point_into_bounded_complement(name, params):
    curve = make_curve(name, **params)
    grid = boundary_grid(curve, 64)
    inside = grid.points + 0.05 * grid.normals
    assert np.all(curve.is_inside_bounded(inside))
    outside = grid.points - 0.05 * grid.normals
    assert not np.any(curve.is_inside_bounded(outside))


def _unit_circle(turns=1, centre=(0.0, 0.0), radius=1.0):
    """A unit circle traversed ``turns`` times (clockwise for a negative
    count), moved to ``centre`` and declared with the constant radial
    profile ``radius``."""
    def at(t):
        return np.stack([np.cos(turns * t), np.sin(turns * t)], axis=-1)

    return CurveParametrization(
        lambda t: at(t) + np.asarray(centre),
        lambda t: turns * at(t) @ np.array([[0.0, 1.0], [-1.0, 0.0]]),
        lambda t: -turns ** 2 * at(t),
        lambda th: np.full_like(np.asarray(th, dtype=float), radius))


@pytest.mark.parametrize("kwargs", [
    {"turns": -1}, {"radius": 1.5}, {"centre": (3.0, 0.0)}, {"turns": 2}],
    ids=["clockwise", "wrong-profile", "origin-outside", "twice-round"])
def test_a_curve_outside_the_contract_raises(kwargs):
    _unit_circle()  # meets the contract; each change breaks one part of it
    with pytest.raises(GeometryError):
        _unit_circle(**kwargs)


@pytest.mark.parametrize("name,params", [
    ("circle", {}), ("ellipse", {}), ("star", {"alpha": 0.0}),
    ("star", {"alpha": 0.2}), ("star", {"alpha": 0.9})],
    ids=["circle", "ellipse", "star-0", "star-0.2", "star-0.9"])
def test_every_catalogue_curve_meets_the_contract(name, params):
    make_curve(name, **params)


def test_boundary_grid_rejects_bad_n():
    curve = make_curve("circle")
    with pytest.raises(DiscretizationError):
        boundary_grid(curve, 33)
    with pytest.raises(DiscretizationError):
        boundary_grid(curve, 4)


def test_unknown_curve_raises():
    with pytest.raises(UnknownCatalogError):
        make_curve("triangle")
    with pytest.raises(UnknownCatalogError):
        make_curve("circle", wiggle=3)


def test_degenerate_curves_raise():
    with pytest.raises(GeometryError):
        make_curve("circle", radius=-1.0)
    with pytest.raises(GeometryError):
        make_curve("ellipse", a=0.0, b=1.0)
    with pytest.raises(GeometryError):
        make_curve("star", alpha=1.2)


def test_mesh_weights_integrate_annulus_area():
    curve = make_curve("circle")
    mesh = domain_mesh(curve, 3.0, 0.1, m_theta=64)
    assert_allclose(mesh.weights.sum(), np.pi * (9.0 - 1.0), rtol=1e-12)


def test_mesh_weights_ellipse():
    curve = make_curve("ellipse", a=2.0, b=1.0)
    mesh = domain_mesh(curve, 4.0, 0.1, m_theta=126)
    assert_allclose(mesh.weights.sum(), np.pi * 16.0 - np.pi * 2.0,
                    rtol=1e-10)


def test_mesh_quadrature_converges_on_smooth_integrand():
    curve = make_curve("circle")

    def f(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return np.exp(-r2) * (1.0 + 0.3 * p[:, 0])

    # closed form: 2*pi * int_1^R exp(-r^2) r dr (odd part integrates out)
    exact = np.pi * (np.exp(-1.0) - np.exp(-16.0))
    vals = []
    for h, m_theta in ((0.4, 16), (0.2, 32), (0.1, 64)):
        mesh = domain_mesh(curve, 4.0, h, m_theta=m_theta)
        vals.append(abs(np.sum(mesh.weights * f(mesh.points)) - exact))
    assert vals[-1] <= 1e-9
    assert vals[0] > vals[-1]


def test_mesh_interpolation_reproduces_nodal_field():
    curve = make_curve("circle")
    mesh = domain_mesh(curve, 3.0, 0.2, m_theta=64)

    def f(p):
        return np.cos(p[:, 0]) * np.exp(-0.2 * p[:, 1])

    nodes = f(mesh.points)
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.05, 0.95, 200)
    theta = rng.uniform(0.0, 2 * np.pi, 200)
    idx, wts = mesh.interpolation(rho, theta)
    approx = np.sum(nodes[idx] * wts, axis=1)
    r = 1.0 + 2.0 * rho
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    assert np.abs(approx - f(pts)).max() <= 5e-4


def _lagrange_row(x, nodes):
    return [np.prod([(x - b) / (a - b) for b in nodes if b != a])
            for a in nodes]


def test_mesh_interpolation_matches_per_point_stencils():
    mesh = domain_mesh(make_curve("star", alpha=0.2, k=5), 3.0, 0.2,
                       m_theta=38)
    rng = np.random.default_rng(4)
    # breakpoints, and rho outside [0, 1] (clamped to the end panels)
    rho = np.concatenate([mesh.breakpoints, [-0.1, 1.1],
                          rng.uniform(0.0, 1.0, 40)])
    theta = rng.uniform(-1.0, 7.0, rho.size)
    idx, wts = mesh.interpolation(rho, theta)
    n_panels = len(mesh.breakpoints) - 1
    q = mesh.rho.size // n_panels
    dtheta = 2 * np.pi / mesh.m_theta
    for i, (r, t) in enumerate(zip(rho, theta % (2 * np.pi))):
        p = min(max(np.searchsorted(mesh.breakpoints, r, "right") - 1, 0),
                n_panels - 1)
        j0 = int(np.floor(t / dtheta))
        ir = p * q + np.arange(q)
        cols = (j0 + np.arange(-1, 3)) % mesh.m_theta
        w_r = _lagrange_row(r, mesh.rho[ir])
        w_t = _lagrange_row(t, (j0 + np.arange(-1, 3)) * dtheta)
        np.testing.assert_array_equal(
            idx[i], (ir[:, None] * mesh.m_theta + cols[None, :]).ravel())
        assert_allclose(wts[i], np.outer(w_r, w_t).ravel(), rtol=1e-13,
                        atol=1e-13)


def test_truncation_radius_must_exceed_circumradius():
    with pytest.raises(GeometryError):
        domain_mesh(make_curve("circle"), 0.5, 0.1, m_theta=64)
    with pytest.raises(GeometryError):
        domain_mesh(make_curve("ellipse", a=2.0, b=1.0), 1.5, 0.1,
                    m_theta=126)


def test_a_coarse_spacing_guards_inner_node_distance():
    # one radial panel is the fewest, and its innermost node lies within h/10
    for h in (1.5, 2.0):
        with pytest.raises(DiscretizationError):
            domain_mesh(make_curve("circle"), 3.0, h, m_theta=16)


@pytest.mark.parametrize("h,r_trunc,error", [
    (np.nan, 3.0, DiscretizationError), (np.inf, 3.0, DiscretizationError),
    (0.2, np.inf, GeometryError), (0.2, np.nan, GeometryError)])
def test_a_non_finite_spacing_or_truncation_radius_raises(h, r_trunc, error):
    with pytest.raises(error):
        domain_mesh(make_curve("circle"), r_trunc, h, m_theta=32)


@pytest.mark.parametrize("m_theta", [-2, 0, 1, 3])
def test_fewer_columns_than_the_angular_stencil_raise(m_theta):
    # a 4-column stencil on fewer columns wraps onto itself
    with pytest.raises(DiscretizationError):
        domain_mesh(make_curve("circle"), 3.0, 0.4, m_theta=m_theta)
    assert domain_mesh(make_curve("circle"), 3.0, 0.4, m_theta=4).m_theta == 4


def test_interpolation_is_the_outer_product_of_its_factors():
    mesh = domain_mesh(make_curve("star", alpha=0.2, k=5), 3.0, 0.2,
                       m_theta=38)
    b, dtheta = mesh.breakpoints, 2 * np.pi / mesh.m_theta
    # at their own nodes the factors are the identity
    i_r, w_r = mesh.radial_factors((mesh.rho[:4] - b[0]) / (b[1] - b[0]))
    j, _ = mesh.angular_factors(np.zeros(1))
    assert_allclose(w_r, np.eye(4), atol=1e-13)
    assert_allclose(mesh.angular_factors(j.astype(float))[1], np.eye(j.size),
                    atol=1e-13)
    # at points inside a cell, interpolation is the cell's factor product
    rng = np.random.default_rng(6)
    panel = rng.integers(0, b.size - 1, 40)
    col = rng.integers(0, mesh.m_theta, 40)
    s_r, s_t = rng.uniform(0.0, 1.0, (2, 40))
    idx, wts = mesh.interpolation(b[panel] + s_r * (b[panel + 1] - b[panel]),
                                  (col + s_t) * dtheta)
    i_r, w_r = mesh.radial_factors(s_r)
    j, w_th = mesh.angular_factors(s_t)
    rows = panel[:, None] * i_r.size + i_r
    cols = (col[:, None] + j) % mesh.m_theta
    assert np.array_equal(idx, (rows[:, :, None] * mesh.m_theta
                                + cols[:, None, :]).reshape(40, -1))
    assert_allclose(wts, (w_r[:, :, None] * w_th[:, None, :]).reshape(40, -1),
                    rtol=1e-12, atol=1e-13)
