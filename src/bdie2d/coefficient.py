"""Variable diffusion coefficient a(x), the exterior weight, and the
runtime checks on the coefficient's growth/decay conditions.

Coefficients are supplied analytically, as one derivative closure that
returns a, grad a and the Laplacian together: the remainder kernel needs
all three at every quadrature point, so each point pays once for the
subexpressions they share.  Condition checks are sampled on mesh nodes
plus an outer ring; they can falsify the conditions but never certify
them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import CoefficientError, UnknownCatalogError
from .geometry import DomainMesh

# the gaussian bump's support radius is where |grad a| drops below this
_TAIL_TOL = 1e-8
# limits of check_conditions on sup w |grad a| (also on the outer ring),
# sup w^2 |Delta a| and, for decay, the outer ring's w |grad a|
_GRADIENT_BOUND = 1e3
_LAPLACIAN_BOUND = 1e3
_DECAY_TOL = 1e-3


def weight(x) -> np.ndarray:
    """Radial weight (1 + |x|^2)^(1/2) * ln(2 + |x|^2) used for exterior spaces."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    return np.sqrt(1.0 + r2) * np.log(2.0 + r2)


class CoefficientField:
    """Scalar coefficient with analytic gradient and Laplacian.

    derivatives(x) maps (n, 2) points to (a, grad a, Delta a), of shapes
    (n,), (n, 2) and (n,).  c1/c2 are the declared positivity bounds,
    support_radius the radius outside which |grad a| is numerically
    negligible (0 for constants, inf if unbounded).
    """

    def __init__(self, derivatives, c1, c2, support_radius=np.inf):
        self.derivatives = derivatives
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.support_radius = float(support_radius)
        if not (0.0 < self.c1 <= self.c2):
            raise CoefficientError("declared bounds must satisfy 0 < C1 <= C2")

    def eval(self, x):
        """Return (a, grad a, laplacian a) at the given points."""
        a, g, lap = self.derivatives(np.atleast_2d(np.asarray(x, dtype=float)))
        if not np.all(a > 0.0):  # False for NaN too
            raise CoefficientError(
                "coefficient is nonpositive or NaN at a sampled point")
        return a, g, lap

    def log_derivatives(self, x):
        """(a, grad(ln a), Delta(ln a)) at the given points from one
        evaluation, Delta(ln a) = Delta a / a - |grad(ln a)|^2."""
        a, g, lap = self.eval(x)
        gl = np.empty_like(g)
        gl[:, 0] = g[:, 0] / a
        gl[:, 1] = g[:, 1] / a
        return a, gl, lap / a - (gl[:, 0] ** 2 + gl[:, 1] ** 2)

    def grad_log(self, x):
        """grad(ln a) at the given points."""
        return self.log_derivatives(x)[1]

    def laplacian_log(self, x):
        """Delta(ln a) at the given points."""
        return self.log_derivatives(x)[2]

    @property
    def is_constant(self) -> bool:
        return self.support_radius == 0.0


def make_coefficient(name: str, **params) -> CoefficientField:
    """Catalog: constant(value), gaussian_bump(beta, center, sigma),
    compact_bump(beta, center, sigma)."""
    if name == "constant":
        c = float(params.pop("value", 1.0))
        if params:
            raise UnknownCatalogError(f"unknown constant parameters {sorted(params)}")
        if not 0.0 < c < np.inf:
            raise CoefficientError(
                "constant coefficient must be positive and finite")
        return CoefficientField(
            lambda x: (np.full(x.shape[0], c), np.zeros_like(x),
                       np.zeros(x.shape[0])),
            c1=c, c2=c, support_radius=0.0)
    if name not in ("gaussian_bump", "compact_bump"):
        raise UnknownCatalogError(f"unknown coefficient name {name!r}")
    beta = float(params.pop("beta", 1.0 if name == "gaussian_bump" else 0.5))
    center = np.asarray(params.pop("center", (0.0, 0.0)), dtype=float)
    sigma = float(params.pop("sigma", 1.0))
    if params:
        raise UnknownCatalogError(f"unknown {name} parameters {sorted(params)}")
    if not (np.isfinite(beta) and np.isfinite(sigma)
            and center.shape == (2,) and np.isfinite(center).all()):
        raise CoefficientError(
            f"{name} needs a finite beta, sigma and 2-d center")
    if sigma <= 0.0:
        raise CoefficientError(f"{name} needs sigma > 0, not {sigma}")
    if 1.0 + min(beta, 0.0) <= 0:
        raise CoefficientError(f"{name} makes the coefficient nonpositive")
    c1 = 1.0 + min(beta, 0.0) if beta < 0 else 1.0
    c2 = 1.0 + max(beta, 0.0)
    cx, cy = center
    sigma2 = sigma ** 2
    if name == "gaussian_bump":
        def derivatives(x):
            dx = x[:, 0] - cx
            dy = x[:, 1] - cy
            r2 = dx ** 2 + dy ** 2
            b = beta * np.exp(r2 / -sigma2)  # a - 1
            g_b = (-2.0 / sigma2) * b
            g = np.empty_like(x)
            g[:, 0] = g_b * dx
            g[:, 1] = g_b * dy
            return 1.0 + b, g, b * (r2 * (4.0 / sigma ** 4) - 4.0 / sigma2)

        # |grad a| = 2|beta| s exp(-s^2/sigma^2), decreasing beyond its peak:
        # scan outward from the peak for the tail radius
        s = np.linspace(sigma / np.sqrt(2.0), 60.0 * sigma, 200001)
        mag = 2.0 * abs(beta) * s / sigma2 * np.exp(-s ** 2 / sigma2)
        below = np.nonzero(mag < _TAIL_TOL)[0]
        r_a = float(np.hypot(*center) + (s[below[0]] if below.size else np.inf))
        return CoefficientField(derivatives, c1=c1, c2=c2, support_radius=r_a)
    p = 6  # a = 1 + beta (1 - s^2)^p inside |x - c| < sigma, C^(p-1) at the seam
    g_scale = -2.0 * p * beta / sigma2

    def derivatives(x):
        n = x.shape[0]
        a, g, lap = np.ones(n), np.zeros((n, 2)), np.zeros(n)
        dx = x[:, 0] - cx
        dy = x[:, 1] - cy
        s_sq = (dx ** 2 + dy ** 2) / sigma2
        inside = s_sq < 1.0
        s_sq = s_sq[inside]
        u = 1.0 - s_sq
        u_p2 = u ** (p - 2)
        u_p1 = u_p2 * u
        a[inside] += beta * (u_p1 * u)
        g[inside, 0] = g_scale * u_p1 * dx[inside]
        g[inside, 1] = g_scale * u_p1 * dy[inside]
        lap[inside] = -g_scale * (2.0 * (p - 1) * s_sq * u_p2 - 2.0 * u_p1)
        return a, g, lap

    return CoefficientField(derivatives, c1=c1, c2=c2,
                            support_radius=float(np.hypot(*center) + sigma))


@dataclass(frozen=True)
class ConditionReport:
    """Sampled suprema for the coefficient growth/decay conditions."""

    sup_weighted_gradient: float       # sup omega2 |grad a|
    sup_weighted_laplacian: float      # sup omega2^2 |Delta a|
    outer_ring_weighted_gradient: float
    bounds_ok: bool
    gradient_ok: bool
    laplacian_ok: bool
    decay_ok: bool

    @property
    def passed(self) -> bool:
        return self.bounds_ok and self.gradient_ok and self.laplacian_ok and self.decay_ok

    def as_dict(self):
        return {**asdict(self), "passed": self.passed}


def check_conditions(field: CoefficientField, mesh: DomainMesh) -> ConditionReport:
    """Sample the boundedness/decay requirements on mesh nodes + outer ring."""
    if mesh.n_nodes == 0:
        raise CoefficientError("condition check needs a nonempty mesh")
    pts = mesh.points
    a, g, lap = field.eval(pts)
    w = weight(pts)
    gmag = np.hypot(g[:, 0], g[:, 1])
    sup_wg = float(np.max(w * gmag))
    sup_wl = float(np.max(w ** 2 * np.abs(lap)))
    ring_theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    ring = mesh.r_trunc * np.stack([np.cos(ring_theta), np.sin(ring_theta)], axis=1)
    _, gr, _ = field.eval(ring)
    ring_val = float(np.max(weight(ring) * np.hypot(gr[:, 0], gr[:, 1])))
    bounds_ok = bool(np.all(a >= field.c1 - 1e-12) and np.all(a <= field.c2 + 1e-12))
    return ConditionReport(
        sup_weighted_gradient=sup_wg,
        sup_weighted_laplacian=sup_wl,
        outer_ring_weighted_gradient=ring_val,
        bounds_ok=bounds_ok,
        gradient_ok=sup_wg <= _GRADIENT_BOUND and ring_val <= _GRADIENT_BOUND,
        laplacian_ok=sup_wl <= _LAPLACIAN_BOUND,
        decay_ok=ring_val <= _DECAY_TOL,
    )
