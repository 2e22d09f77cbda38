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


def _boundary_data(field: CoefficientField, grid: BoundaryGrid):
    """a and d(ln a)/dn = n . grad a / a at the boundary nodes, from one
    evaluation of the coefficient."""
    a, g, _ = field.eval(grid.points)
    return a, np.sum(grid.normals * g, axis=1) / a


# ---------------------------------------------------------------------------
# volume potential and remainder

def _zeros(targets, *shape):
    """Zeros with one leading entry per target."""
    return np.zeros((np.atleast_2d(targets).shape[0],) + shape)


def volume_potential(mesh: DomainMesh, field: CoefficientField, targets, *,
                     rho_fn):
    """Parametrix volume potential of the analytic density
    ``rho_fn(points)`` at given points; ``rho_fn`` None declares a zero
    density, whose potential is zero without any quadrature."""
    return laplace.newtonian_potential(
        mesh, targets, g_fn=None if rho_fn is None
        else lambda p: rho_fn(p) / field.eval(p)[0])


def _remainder_factors(field: CoefficientField, x):
    """The factors (-Delta(ln a), -d1(ln a), -d2(ln a)) of the remainder
    kernel R(x, y), matched with laplace's kernel triple (P_L, d1 P_L,
    d2 P_L) of x - y, and a, at source points x, from one evaluation of the
    coefficient."""
    a, gl, ll = field.log_derivatives(x)
    return (-ll, -gl[:, 0], -gl[:, 1]), a


def _near_mask_for_support(field: CoefficientField, targets):
    """Targets whose remainder rows need local quadrature: those inside the
    coefficient support, and those outside it where a factor of the
    remainder still exceeds what laplace allows at a point on its target
    (laplace._AT_TARGET), as far-only rows would meet it there."""
    pts = np.atleast_2d(np.asarray(targets, dtype=float))
    if not np.isfinite(field.support_radius):
        return None
    near = np.hypot(pts[:, 0], pts[:, 1]) <= field.support_radius
    if not near.all():
        factors = _remainder_factors(field, pts[~near])[0]
        near[~near] = np.abs(factors).max(axis=0) > laplace._AT_TARGET
    return near


def remainder_rows(mesh: DomainMesh, field: CoefficientField, targets):
    """Matrix rows of the remainder operator acting on nodal densities."""
    return volume_terms(mesh, field, targets, np.arange(mesh.n_nodes),
                        rho_fn=None)[0]


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

    def factors(x):
        # one coefficient evaluation serves both integrands
        row, a = _remainder_factors(field, x)
        return row, None if rho_fn is None else (rho_fn(x) / a,)

    rows, values = laplace.domain_rows(
        mesh, targets, factors, columns=columns,
        near_targets=_near_mask_for_support(field, targets))
    return rows, _zeros(targets) if values is None else values


def remainder_apply(mesh: DomainMesh, field: CoefficientField, targets, *,
                    rho_fn):
    """Remainder potential of the analytic density ``rho_fn(points)`` at
    given targets."""
    if field.is_constant:
        return _zeros(targets)

    def factors(x):
        rho = rho_fn(x)
        return None, tuple(f * rho for f in _remainder_factors(field, x)[0])

    return laplace.domain_rows(mesh, targets, factors)[1]


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
    mat = laplace.single_layer_matrix(grid)
    mat /= a  # a fresh matrix: scaled in place
    return mat


def double_layer_boundary(grid: BoundaryGrid, field: CoefficientField):
    if field.is_constant:
        return laplace.double_layer_matrix(grid)  # d(ln a)/dn = 0
    a, dln = _boundary_data(field, grid)
    mat = laplace.double_layer_matrix(grid)
    mat -= laplace.single_layer_matrix(grid) * dln
    return mat


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
    return single / a[None, :], double - single * dln[None, :]


def conormal_derivative(field: CoefficientField, points, normals, gradients):
    """T u = a n . grad u from pointwise gradient samples."""
    a, _, _ = field.eval(points)
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    gradients = np.atleast_2d(np.asarray(gradients, dtype=float))
    return a * np.sum(normals * gradients, axis=1)
