from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bdie2d import parametrix
from bdie2d.coefficient import (CoefficientField, check_conditions,
                                make_coefficient, weight)
from bdie2d.errors import CoefficientError, UnknownCatalogError
from bdie2d.geometry import domain_mesh, make_curve


def test_weight_closed_form():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    assert_allclose(weight(pts), np.sqrt(1.0 + r2) * np.log(2.0 + r2))


def test_constant_field():
    field = make_coefficient("constant", value=2.0)
    assert field.is_constant
    a, g, lap = field.eval(np.array([[1.0, 2.0], [3.0, -1.0]]))
    assert_allclose(a, 2.0)
    assert_allclose(g, 0.0)
    assert_allclose(lap, 0.0)
    assert field.support_radius == 0.0


@pytest.mark.parametrize("name,params", [
    ("gaussian_bump", {"beta": 1.0, "sigma": 1.0}),
    ("gaussian_bump", {"beta": 0.7, "sigma": 1.3, "center": (0.5, -0.2)}),
    ("compact_bump", {"beta": 0.5, "sigma": 0.8, "center": (1.5, 0.0)}),
])
def test_derivatives_match_finite_differences(name, params):
    field = make_coefficient(name, **params)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2.0, 2.0, (40, 2))
    h = 1e-5
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    a, g, lap = field.eval(pts)
    ap1, _, _ = field.eval(pts + e1)
    am1, _, _ = field.eval(pts - e1)
    ap2, _, _ = field.eval(pts + e2)
    am2, _, _ = field.eval(pts - e2)
    assert_allclose(g[:, 0], (ap1 - am1) / (2 * h), atol=1e-7)
    assert_allclose(g[:, 1], (ap2 - am2) / (2 * h), atol=1e-7)
    assert_allclose(lap, (ap1 + am1 + ap2 + am2 - 4 * a) / h ** 2, atol=1e-4)


def _relative_close(actual, expected):
    scale = max(np.abs(expected).max(), 1e-300)
    assert np.abs(actual - expected).max() <= 1e-14 * scale


@pytest.mark.parametrize("params", [
    {},
    {"beta": 0.7, "sigma": 1.3, "center": (0.5, -0.2)},
])
def test_gaussian_bump_matches_its_closed_form(params):
    field = make_coefficient("gaussian_bump", **params)
    beta = params.get("beta", 1.0)
    sigma = params.get("sigma", 1.0)
    center = np.asarray(params.get("center", (0.0, 0.0)))
    rng = np.random.default_rng(3)
    # inside the bump, on its flank and far in the tail
    pts = np.concatenate([rng.uniform(-1.0, 1.0, (20, 2)),
                          rng.uniform(-4.0, 4.0, (20, 2)),
                          [[field.support_radius + 0.5, 0.0], [0.0, -9.0]]])
    d = pts - center
    r2 = np.sum(d * d, axis=1)
    e = np.exp(-r2 / sigma ** 2)
    a, g, lap = field.eval(pts)
    _relative_close(a, 1.0 + beta * e)
    _relative_close(g, -2.0 * beta / sigma ** 2 * e[:, None] * d)
    # radial a = 1 + beta f(r): Delta a = beta (f'' + f'/r)
    f1_over_r = -2.0 / sigma ** 2 * e
    f2 = (4.0 * r2 / sigma ** 4 - 2.0 / sigma ** 2) * e
    _relative_close(lap, beta * (f2 + f1_over_r))


def test_compact_bump_matches_its_closed_form():
    beta, sigma, center = 0.5, 1.25, np.array([1.5, 0.0])
    field = make_coefficient("compact_bump", beta=beta, sigma=sigma,
                             center=tuple(center))
    rng = np.random.default_rng(4)
    # inside the support, outside it, and exactly on the seam s^2 = 1
    # (dyadic offsets: 0.75^2 + 1^2 = 1.25^2 without rounding)
    seam = center + np.array([[0.75, 1.0], [-1.0, -0.75], [1.25, 0.0],
                              [0.0, -1.25]])
    pts = np.concatenate([center + rng.uniform(-0.8, 0.8, (20, 2)),
                          rng.uniform(-3.0, 4.0, (20, 2)), seam])
    d = pts - center
    s2 = np.sum(d * d, axis=1) / sigma ** 2
    assert np.all(s2[-4:] == 1.0)
    u = np.where(s2 < 1.0, 1.0 - s2, 0.0)
    a, g, lap = field.eval(pts)
    _relative_close(a, 1.0 + beta * u ** 6)
    _relative_close(g, (-12.0 * beta / sigma ** 2 * u ** 5)[:, None] * d)
    # radial a = 1 + beta f(r), f = (1 - r^2/sigma^2)^6: Delta a = beta (f'' + f'/r)
    f1_over_r = -12.0 / sigma ** 2 * u ** 5
    f2 = f1_over_r + 120.0 * s2 / sigma ** 2 * u ** 4
    _relative_close(lap, beta * (f2 + f1_over_r))
    assert np.array_equal(a[-4:], np.ones(4))
    assert not np.any(g[-4:]) and not np.any(lap[-4:])


def test_gaussian_bump_values_and_support():
    field = make_coefficient("gaussian_bump", beta=1.0, sigma=1.0)
    a, _, _ = field.eval(np.zeros((1, 2)))
    assert_allclose(a[0], 2.0)
    assert np.isfinite(field.support_radius)
    far = np.array([[field.support_radius + 1.0, 0.0]])
    _, g, _ = field.eval(far)
    assert weight(far)[0] * np.hypot(*g[0]) <= 1e-8
    assert field.c1 <= 1.0 <= field.c2


def test_compact_bump_is_one_outside_support():
    field = make_coefficient("compact_bump", beta=0.5, sigma=0.8,
                             center=(1.5, 0.0))
    outside = np.array([[3.0, 0.0], [0.0, 2.0], [-4.0, 1.0]])
    a, g, lap = field.eval(outside)
    assert_allclose(a, 1.0)
    assert_allclose(g, 0.0)
    assert_allclose(lap, 0.0)
    assert_allclose(field.support_radius, 2.3)


def test_nonpositive_coefficient_rejected():
    field = make_coefficient("constant", value=1.0)
    with pytest.raises(CoefficientError):
        make_coefficient("constant", value=-1.0)
    # declared bounds must be consistent
    with pytest.raises(CoefficientError):
        CoefficientField(field.derivatives, c1=2.0, c2=1.0)


def test_a_nan_coefficient_value_is_rejected():
    def derivatives(x):
        a = np.where(x[:, 0] > 0.0, np.nan, 1.0)
        return a, np.zeros_like(x), np.zeros(x.shape[0])

    field = CoefficientField(derivatives, c1=1.0, c2=1.0)
    field.eval(np.array([[-1.0, 0.0]]))
    with pytest.raises(CoefficientError):
        field.eval(np.array([[-1.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("name", ["gaussian_bump", "compact_bump"])
@pytest.mark.parametrize("params", [
    {"sigma": 0.0}, {"sigma": -1.0}, {"sigma": np.nan}, {"sigma": np.inf},
    {"beta": np.nan}, {"beta": np.inf}, {"center": (0.0, np.nan)},
    {"center": (0.0, 0.0, 0.0)},
])
def test_bump_parameters_must_be_finite_with_positive_sigma(name, params):
    with pytest.raises(CoefficientError):
        make_coefficient(name, **params)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_constant_is_rejected(value):
    with pytest.raises(CoefficientError):
        make_coefficient("constant", value=value)


def test_unknown_coefficient_raises():
    with pytest.raises(UnknownCatalogError):
        make_coefficient("sine_wave")


def test_grad_log_and_laplacian_log_identities():
    field = make_coefficient("gaussian_bump", beta=1.0, sigma=1.0)
    pts = np.array([[0.5, 0.3], [1.2, -0.7]])
    a, g, lap = field.eval(pts)
    assert_allclose(field.grad_log(pts), g / a[:, None])
    assert_allclose(field.laplacian_log(pts),
                    lap / a - np.sum(g * g, axis=1) / a ** 2)


def test_normal_log_derivative():
    field = make_coefficient("gaussian_bump", beta=1.0, sigma=1.0)
    pts = np.array([[1.0, 0.0]])
    normals = np.array([[-1.0, 0.0]])
    a, g, _ = field.eval(pts)
    nodes = SimpleNamespace(points=pts, normals=normals)
    assert_allclose(parametrix._boundary_data(field, nodes)[1],
                    -g[0, 0] / a[0])


def test_condition_report_for_decaying_coefficient():
    field = make_coefficient("gaussian_bump", beta=1.0, sigma=1.0)
    mesh = domain_mesh(make_curve("circle"), 6.0, 0.2, m_theta=32)
    report = check_conditions(field, mesh)
    assert report.passed
    d = report.as_dict()
    assert d["decay_ok"] and d["bounds_ok"]
    assert d["sup_weighted_gradient"] > 0


def test_condition_report_flags_slow_decay():
    field = make_coefficient("gaussian_bump", beta=1.0, sigma=4.0)
    mesh = domain_mesh(make_curve("circle"), 3.0, 0.2, m_theta=32)
    report = check_conditions(field, mesh)
    assert not report.decay_ok
    assert not report.passed
