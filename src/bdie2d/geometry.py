"""Boundary curves, boundary quadrature grids, and exterior-domain meshes.

Orientation convention (fixed once, used by every sign-sensitive identity):
the unit normal ``n`` returned everywhere points *into* the bounded
complement ``Omega^-``, i.e. out of the unbounded exterior domain ``Omega``.
For the unit circle this means ``n(t) = -x(t)``.

Curve contract (checked once, when a CurveParametrization is built): the
curve is star-shaped about the origin and counter-clockwise, its polar
angle increasing once round the origin along it, and its radial profile
gives its radius at each polar angle.  The mesh, the inside test and the
close evaluation of the single layer rely on it.

The exterior domain is truncated at a radius ``r_trunc``; the mesh covers
the annular region between the curve and the circle of that radius with a
boundary-fitted polar tensor grid (trapezoidal in the polar angle,
composite Gauss-Legendre panels in the scaled radial coordinate).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DiscretizationError, GeometryError, UnknownCatalogError

_TWO_PI = 2.0 * np.pi
# curve samples taken by circumradius
_N_CIRCUMRADIUS = 1024


class CurveParametrization:
    """A smooth closed curve t in [0, 2pi) -> R^2 with derivative data.

    position, derivative and second_derivative map arrays of parameter
    values to arrays of shape (n, 2); ``radial_profile`` maps polar angles
    to the curve's radius there.  The curve must be star-shaped about the
    origin and counter-clockwise (module docstring).
    """

    def __init__(self, position, derivative, second_derivative,
                 radial_profile):
        self.position = position
        self.derivative = derivative
        self.second_derivative = second_derivative
        self.radial_profile = radial_profile
        self._validate()

    def _validate(self):
        t = np.linspace(0.0, _TWO_PI, 256, endpoint=False)
        x = self.position(t)
        dx = self.derivative(t)
        speed = np.hypot(dx[:, 0], dx[:, 1])
        if np.any(speed <= 1e-14):
            raise GeometryError("degenerate parametrization: zero speed on sample grid")
        gap = np.linalg.norm(self.position(np.array([0.0]))
                             - self.position(np.array([_TWO_PI - 1e-13])))
        if gap > 1e-9:
            raise GeometryError("curve is not closed: x(0) != x(2pi)")
        # x cross x' > 0 and the polar angle wraps once: it increases once
        # round the origin, which makes the curve simple, star-shaped about
        # the origin and counter-clockwise
        theta = np.arctan2(x[:, 1], x[:, 0])
        wraps = np.count_nonzero(np.diff(theta, append=theta[0]) < 0.0)
        if np.any(x[:, 0] * dx[:, 1] - x[:, 1] * dx[:, 0] <= 0.0) or wraps != 1:
            raise GeometryError("curve is not star-shaped about the origin "
                                "and counter-clockwise")
        r = np.hypot(x[:, 0], x[:, 1])
        if np.any(np.abs(self.radial_profile(theta) - r) > 1e-12 * r.max()):
            raise GeometryError("radial profile differs from the curve's "
                                "radius")

    def evaluate(self, t):
        """Return (point, unit tangent, unit normal, speed) at parameters t.

        The normal is the tangent turned 90 degrees to the left, into the
        bounded complement Omega^-.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = self.position(t)
        dx = self.derivative(t)
        speed = np.hypot(dx[:, 0], dx[:, 1])
        if np.any(speed <= 1e-14):
            raise GeometryError("degenerate parametrization: zero speed")
        tangent = dx / speed[:, None]
        normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
        return x, tangent, normal, speed

    def curvature_term(self, t):
        """n(t) . x''(t) / |x'(t)| at parameters t (double-layer diagonal data)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        _, _, normal, speed = self.evaluate(t)
        ddx = self.second_derivative(t)
        return np.sum(normal * ddx, axis=1) / speed

    def circumradius(self) -> float:
        t = np.linspace(0.0, _TWO_PI, _N_CIRCUMRADIUS, endpoint=False)
        x = self.position(t)
        return float(np.hypot(x[:, 0], x[:, 1]).max())

    def is_inside_bounded(self, points) -> np.ndarray:
        """True for points lying in the bounded complement Omega^-."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        return np.hypot(pts[:, 0], pts[:, 1]) < self.radial_profile(theta)


def make_curve(name: str, **params) -> CurveParametrization:
    """Catalog: circle(radius), ellipse(a, b), star(alpha, k, radius)."""
    if name == "circle":
        r0 = float(params.pop("radius", 1.0))
        if params:
            raise UnknownCatalogError(f"unknown circle parameters {sorted(params)}")
        if r0 <= 0:
            raise GeometryError("circle radius must be positive")
        return CurveParametrization(
            position=lambda t: r0 * np.stack([np.cos(t), np.sin(t)], axis=-1),
            derivative=lambda t: r0 * np.stack([-np.sin(t), np.cos(t)], axis=-1),
            second_derivative=lambda t: -r0 * np.stack([np.cos(t), np.sin(t)], axis=-1),
            radial_profile=lambda th: np.full_like(np.asarray(th, dtype=float), r0),
        )
    if name == "ellipse":
        a = float(params.pop("a", 2.0))
        b = float(params.pop("b", 1.0))
        if params:
            raise UnknownCatalogError(f"unknown ellipse parameters {sorted(params)}")
        if a <= 0 or b <= 0:
            raise GeometryError("ellipse semi-axes must be positive")
        return CurveParametrization(
            position=lambda t: np.stack([a * np.cos(t), b * np.sin(t)], axis=-1),
            derivative=lambda t: np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1),
            second_derivative=lambda t: np.stack([-a * np.cos(t), -b * np.sin(t)], axis=-1),
            radial_profile=lambda th: a * b / np.sqrt(
                (b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2),
        )
    if name == "star":
        alpha = float(params.pop("alpha", 0.2))
        k = int(params.pop("k", 5))
        r0 = float(params.pop("radius", 1.0))
        if params:
            raise UnknownCatalogError(f"unknown star parameters {sorted(params)}")
        if not (0.0 <= alpha < 1.0):
            raise GeometryError("star amplitude must satisfy 0 <= alpha < 1")

        def rad(t):
            return r0 * (1.0 + alpha * np.cos(k * np.asarray(t, dtype=float)))

        def drad(t):
            return -r0 * alpha * k * np.sin(k * np.asarray(t, dtype=float))

        def ddrad(t):
            return -r0 * alpha * k * k * np.cos(k * np.asarray(t, dtype=float))

        def pos(t):
            r = rad(t)
            return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

        def dpos(t):
            r, dr = rad(t), drad(t)
            return np.stack([dr * np.cos(t) - r * np.sin(t),
                             dr * np.sin(t) + r * np.cos(t)], axis=-1)

        def ddpos(t):
            r, dr, ddr = rad(t), drad(t), ddrad(t)
            return np.stack([ddr * np.cos(t) - 2 * dr * np.sin(t) - r * np.cos(t),
                             ddr * np.sin(t) + 2 * dr * np.cos(t) - r * np.sin(t)],
                            axis=-1)

        return CurveParametrization(pos, dpos, ddpos, radial_profile=rad)
    raise UnknownCatalogError(f"unknown curve name {name!r}")


@dataclass(frozen=True)
class BoundaryGrid:
    """Equispaced Nystroem grid on the boundary curve."""

    curve: CurveParametrization
    n: int
    t: np.ndarray          # (n,) parameter values
    points: np.ndarray     # (n, 2)
    normals: np.ndarray    # (n, 2), pointing into Omega^-
    speeds: np.ndarray     # (n,)
    weights: np.ndarray    # (n,) trapezoidal arc-length weights
    # operator data built from the grid on first use (laplace's row data
    # and Cauchy diagonal, parametrix's coefficient values per field)
    memo: dict = field(default_factory=dict, init=False, compare=False,
                       repr=False)

    @property
    def length(self) -> float:
        return float(self.weights.sum())


def boundary_grid(curve: CurveParametrization, n: int) -> BoundaryGrid:
    if n < 8 or n % 2 != 0:
        raise DiscretizationError(f"boundary grid needs even N >= 8, got {n}")
    t = _TWO_PI * np.arange(n) / n
    points, _, normals, speeds = curve.evaluate(t)
    weights = (_TWO_PI / n) * speeds
    return BoundaryGrid(curve=curve, n=n, t=t, points=points,
                        normals=normals, speeds=speeds, weights=weights)


# the nodal interpolant's one setting: the Gauss-Legendre order of every
# radial panel, and the angular stencil's columns from a cell's first line
_Q = 4
_STENCIL = np.arange(-1, 3)


@functools.cache
def _monomial_basis(nodes):
    """The Lagrange basis on the nodes (a tuple) as coefficients of the
    monomials 1, x, x^2, ..., one column per node."""
    return np.linalg.inv(np.vander(nodes, increasing=True))


def _lagrange(s, nodes):
    """The Lagrange basis on ``nodes`` at the points s: s.shape + (k,)."""
    basis = _monomial_basis(tuple(nodes))
    return (np.vander(s.ravel(), len(basis), increasing=True)
            @ basis).reshape(s.shape + (len(basis),))


@dataclass
class DomainMesh:
    """Quadrature nodes on Omega intersected with the disk of radius r_trunc.

    Tensor structure: ``m_theta`` equispaced polar angles (trapezoid rule)
    times composite Gauss-Legendre nodes in the scaled radial coordinate
    rho in [0, 1], with r = r_curve(theta) + (r_trunc - r_curve(theta)) rho
    (``physical``).  Node index = i_r * m_theta + j_theta.  The nodal
    interpolant on a cell, one panel by one column, is ``radial_factors``
    times ``angular_factors``; ``interpolation`` locates the cells.
    """

    curve: CurveParametrization
    r_trunc: float
    h: float
    m_theta: int
    breakpoints: np.ndarray     # (n_panels + 1,) in [0, 1]
    rho: np.ndarray             # (n_r,) scaled radial nodes
    rho_weights: np.ndarray     # (n_r,)
    theta: np.ndarray           # (m_theta,)
    points: np.ndarray = field(default=None)    # (n_nodes, 2)
    weights: np.ndarray = field(default=None)   # (n_nodes,)

    def __post_init__(self):
        self.n_r = self.rho.shape[0]
        self.n_nodes = self.n_r * self.m_theta
        points, span, rr = self.physical(self.rho[:, None], self.theta)
        self.points = points.reshape(-1, 2)
        self.weights = (self.rho_weights[:, None] * span * rr
                        * (_TWO_PI / self.m_theta)).ravel()

    def physical(self, rho, theta):
        """The map to physical points at scaled coordinates (rho, theta),
        broadcast together: the points, shape + (2,), the span
        r_trunc - r_curve(theta) and the radius r."""
        r_s = self.curve.radial_profile(theta)
        span = self.r_trunc - r_s
        r = r_s + span * rho
        return np.stack([r * np.cos(theta), r * np.sin(theta)], -1), span, r

    def mesh_coords(self, points):
        """Map physical points to (rho, theta); rho < 0 means inside Omega^-."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        theta = np.arctan2(pts[:, 1], pts[:, 0]) % _TWO_PI
        r = np.hypot(pts[:, 0], pts[:, 1])
        r_s = self.curve.radial_profile(theta)
        rho = (r - r_s) / (self.r_trunc - r_s)
        return rho, theta

    def radial_factors(self, s):
        """Radial factor of the interpolant at s, the coordinate across a
        panel (0 and 1 at its breakpoints): the node offsets (q,) in the
        panel and their Lagrange weights s.shape + (q,)."""
        b = self.breakpoints
        q = self.n_r // (b.size - 1)
        return np.arange(q), _lagrange(s, (self.rho[:q] - b[0]) / (b[1] - b[0]))

    def angular_factors(self, s):
        """Angular factor of the interpolant at s, in columns from a cell's
        first line: the stencil's column offsets from that line and their
        Lagrange weights s.shape + (k,)."""
        return _STENCIL, _lagrange(s, _STENCIL.astype(float))

    def interpolation(self, rho, theta):
        """Nodal interpolation weights at scaled coordinates (m,), rho
        outside [0, 1] in the end panels: (indices, weights) of shape
        (m, q k), the outer product of the factors of each point's cell."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float)) % _TWO_PI
        b, dtheta = self.breakpoints, _TWO_PI / self.m_theta
        panel = np.clip(np.searchsorted(b, rho, side="right") - 1,
                        0, b.size - 2)
        col = np.floor(theta / dtheta)
        i_r, w_r = self.radial_factors(
            (rho - b[panel]) / (b[panel + 1] - b[panel]))
        j, w_th = self.angular_factors(theta / dtheta - col)
        i_r = panel[:, None] * i_r.size + i_r
        cols = (col.astype(int)[:, None] + j) % self.m_theta
        return ((i_r[:, :, None] * self.m_theta
                 + cols[:, None, :]).reshape(rho.size, -1),
                (w_r[:, :, None] * w_th[:, None, :]).reshape(rho.size, -1))


def domain_mesh(curve: CurveParametrization, r_trunc: float, h: float, *,
                m_theta: int) -> DomainMesh:
    """Build the truncated-exterior quadrature mesh: m_theta columns, and
    radial panels of about _Q h."""
    if not 0.0 < h < np.inf:
        raise DiscretizationError(f"mesh spacing {h} is not positive and finite")
    circ = curve.circumradius()
    if not circ < r_trunc < np.inf:
        raise GeometryError(f"truncation radius {r_trunc} must be finite and "
                            f"exceed the curve circumradius {circ:.6g}")
    if m_theta < _STENCIL.size:  # the angular stencil would wrap onto itself
        raise DiscretizationError(f"m_theta {m_theta} is below the angular "
                                  f"stencil's {_STENCIL.size} columns")
    theta = _TWO_PI * np.arange(m_theta) / m_theta
    r_curve = np.asarray(curve.radial_profile(theta), dtype=float)
    span_min = float((r_trunc - r_curve).min())
    gx, gw = np.polynomial.legendre.leggauss(_Q)
    gx, gw = 0.5 * (gx + 1.0), 0.5 * gw
    n_panels = max(1, int(np.ceil((r_trunc - r_curve.min()) / (_Q * h))))
    # keep the innermost Gauss node clear of the boundary (> h/10)
    cap = int(np.floor(10.0 * float(gx[0]) * span_min / h))
    n_panels = max(1, min(n_panels, cap))
    breakpoints = np.linspace(0.0, 1.0, n_panels + 1)
    rho = (breakpoints[:-1, None] + np.diff(breakpoints)[:, None] * gx).ravel()
    rho_w = (np.diff(breakpoints)[:, None] * gw).ravel()
    mesh = DomainMesh(curve=curve, r_trunc=r_trunc, h=h, m_theta=m_theta,
                      breakpoints=breakpoints, rho=rho, rho_weights=rho_w,
                      theta=theta)
    d_first = rho[0] * span_min
    if d_first <= h / 10.0:
        raise DiscretizationError(
            f"innermost mesh node sits {d_first:.3g} from the boundary, "
            f"below the h/10 = {h / 10:.3g} floor; use fewer/larger radial panels")
    return mesh
