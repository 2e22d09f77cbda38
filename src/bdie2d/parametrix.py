"""Parametrix-based potentials for the variable-coefficient operator
div(a grad u).

The parametrix divides the Laplace fundamental solution by the
coefficient at the source point,

    P(x, y) = P_L(x - y) / a(x),

so every variable-coefficient potential reduces to a constant-coefficient
one acting on a rescaled density, plus boundary corrections involving the
normal derivative of ln a:

    volume:        Q rho  = Q_L(rho / a)
    single layer:  V rho  = V_L(rho / a)
    double layer:  W tau  = W_L tau - V_L(tau d(ln a)/dn)

(the _L suffix marks the Laplace operators from laplace.py).  Applying
div(a grad .) to the parametrix leaves the remainder kernel

    R(x, y) = -lap(ln a)(x) P_L(x - y) - grad(ln a)(x) . grad_x P_L(x - y),

whose integral operator is compact because grad a decays; its rows vanish
at source nodes outside the coefficient support.
"""

from __future__ import annotations

import numpy as np

from . import laplace
from .coefficient import CoefficientField
from .geometry import BoundaryGrid, DomainMesh

_TWO_PI = 2.0 * np.pi


def _boundary_data(field: CoefficientField, grid: BoundaryGrid):
    """a and d(ln a)/dn = n . grad a / a at the boundary nodes, from one
    evaluation of the coefficient."""
    a, g, _ = field.eval(grid.points)
    return a, np.sum(grid.normals * g, axis=1) / a


# ---------------------------------------------------------------------------
# volume potential and remainder

def _scaled_density(field: CoefficientField, rho_fn):
    """rho / a, None for a declared zero density."""
    if rho_fn is None:
        return None
    return lambda p: rho_fn(p) / field.eval(p)[0]


def _zeros(targets, *shape):
    """Zeros with one leading entry per target."""
    return np.zeros((np.atleast_2d(targets).shape[0],) + shape)


def volume_potential(mesh: DomainMesh, field: CoefficientField, targets, *,
                     rho_fn):
    """Parametrix volume potential of the analytic density
    ``rho_fn(points)`` at given points; ``rho_fn`` None declares a zero
    density, whose potential is zero without any quadrature."""
    return laplace.newtonian_potential(mesh, targets,
                                       g_fn=_scaled_density(field, rho_fn))


def remainder_kernel(field: CoefficientField, x, y):
    """R(x, y) for source points x (m, 2) and a target y: one point (2,),
    or one per source point (m, 2).

    Coincident points are safe when the coefficient log-derivatives are
    negligible there (the kernel factor vanishes outside the support);
    the evaluation is genuinely singular otherwise and raises.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return _remainder(field.log_derivatives(x)[1:],
                      *_separation(x, np.asarray(y, dtype=float)))


def _separation(x, y):
    """Columns (z0, z1) of z = x - y, r2 = |z|^2 and P_L(z) = ln(r2) / (4 pi)
    for source points x and a target y, one point or one per source point;
    columns beat (m, 2) broadcasting."""
    z = (x[:, 0] - y[..., 0], x[:, 1] - y[..., 1])
    r2 = z[0] ** 2 + z[1] ** 2
    with np.errstate(divide="ignore"):
        return z, r2, np.log(r2) / (2.0 * _TWO_PI)


def _remainder(log_derivatives, z, r2, p_l):
    """R(x, y) from (grad(ln a), Delta(ln a)) at the source points x and
    their _separation (z, r2, p_l) from y."""
    gl, ll = log_derivatives
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -ll * p_l - (gl[:, 0] * z[0] + gl[:, 1] * z[1]) / (_TWO_PI * r2)
    same = r2 == 0.0
    if same.any():
        if np.any(same & ((np.abs(gl).max(axis=1) > 1e-8) | (np.abs(ll) > 1e-8))):
            from .errors import SingularEvaluationError
            raise SingularEvaluationError(
                "remainder kernel evaluated at a coincident point inside "
                "the coefficient support")
        out[same] = 0.0
    return out


def _near_mask_for_support(field: CoefficientField, targets):
    """Targets whose remainder rows need local quadrature: those within 1
    of the coefficient support."""
    pts = np.atleast_2d(np.asarray(targets, dtype=float))
    if not np.isfinite(field.support_radius):
        return None
    r = np.hypot(pts[:, 0], pts[:, 1])
    return r <= field.support_radius + 1.0


def remainder_rows(mesh: DomainMesh, field: CoefficientField, targets):
    """Matrix rows of the remainder operator acting on nodal densities."""
    if field.is_constant:
        return _zeros(targets, mesh.n_nodes)
    near = _near_mask_for_support(field, targets)
    return laplace.domain_rows(
        mesh, targets, lambda x, y: remainder_kernel(field, x, y),
        near_targets=near)


def volume_terms(mesh: DomainMesh, field: CoefficientField, targets,
                 columns, *, rho_fn):
    """Remainder rows on the mesh nodes ``columns`` and the volume
    potential of the analytic density ``rho_fn(points)``, at given points.

    Both come from one near/far rule per target: the rows are those of
    remainder_rows, the values those of volume_potential.  With ``rho_fn``
    None (a zero density) the values are zeros and only the rows take a
    quadrature, none at all for a constant coefficient.
    """
    if field.is_constant:
        return (_zeros(targets, len(columns)),
                volume_potential(mesh, field, targets, rho_fn=rho_fn))
    if rho_fn is None:
        return (remainder_rows(mesh, field, targets)[:, columns],
                _zeros(targets))

    def terms(x, y):
        # one coefficient evaluation and one separation serve both kernels
        a, *log_derivatives = field.log_derivatives(x)
        z, r2, p_l = _separation(x, y)
        return _remainder(log_derivatives, z, r2, p_l), rho_fn(x) / a * p_l

    rows, values = laplace.domain_rows(
        mesh, targets, terms, with_values=True,
        near_targets=_near_mask_for_support(field, targets))
    return rows[:, columns], values


def remainder_apply(mesh: DomainMesh, field: CoefficientField, targets, *,
                    rho_fn):
    """Remainder potential of the analytic density ``rho_fn(points)`` at
    given targets."""
    if field.is_constant:
        return _zeros(targets)
    return laplace._volume_apply(
        mesh, targets,
        lambda x, y: (None, remainder_kernel(field, x, y) * rho_fn(x)),
        values=True)[1]


def remainder_split(mesh: DomainMesh, rows: np.ndarray, r_split: float):
    """Split remainder rows into a core part (sources inside radius r_split,
    smoothly cut off by 2 r_split) and the complementary tail part.

    The cutoff scales columns, so the two parts add back exactly.
    """
    r = np.hypot(mesh.points[:, 0], mesh.points[:, 1])
    s = np.clip((r - r_split) / r_split, 0.0, 1.0)
    chi = 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)
    return rows * chi[None, :], rows * (1.0 - chi)[None, :], chi


# ---------------------------------------------------------------------------
# boundary operators (direct values on S)

def single_layer_boundary(grid: BoundaryGrid, field: CoefficientField):
    a, _ = _boundary_data(field, grid)
    return laplace.single_layer_matrix(grid) / a[None, :]


def double_layer_boundary(grid: BoundaryGrid, field: CoefficientField):
    if field.is_constant:
        return laplace.double_layer_matrix(grid)  # d(ln a)/dn = 0
    a, dln = _boundary_data(field, grid)
    return (laplace.double_layer_matrix(grid)
            - laplace.single_layer_matrix(grid) * dln[None, :])


# ---------------------------------------------------------------------------
# off-boundary layer potentials

def layer_rows_offboundary(grid: BoundaryGrid, field: CoefficientField,
                           targets):
    """Rows (V, W) mapping nodal densities to the single and double layer at
    off-boundary targets, both from one Laplace pass:
    V = V_L / a and W = W_L - V_L d(ln a)/dn, with a and d(ln a)/dn at the
    source nodes."""
    single, double = laplace.layer_rows_offboundary(grid, targets)
    a, dln = _boundary_data(field, grid)
    if field.is_constant:
        return single / a[None, :], double  # d(ln a)/dn = 0
    return single / a[None, :], double - single * dln[None, :]


def conormal_derivative(field: CoefficientField, points, normals, gradients):
    """T u = a n . grad u from pointwise gradient samples."""
    a, _, _ = field.eval(points)
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    gradients = np.atleast_2d(np.asarray(gradients, dtype=float))
    return a * np.sum(normals * gradients, axis=1)
