"""Assembly and solution of the coupled boundary-domain system.

Unknowns are the solution values u at the domain mesh nodes that lie
inside the coefficient support (outside it the remainder kernel vanishes
and u is recovered by evaluation), the conormal density psi at the
boundary nodes, and one Lagrange multiplier tied to the zero-mean flux
constraint on psi.  The block layout is

    [ I + R_dd   -V_db    0 ] [ u   ]   [ F0 at domain nodes        ]
    [   R_bd     -V_bb    1 ] [ psi ] = [ trace F0 - phi0           ]
    [    0        w^T     0 ] [ lam ]   [ 0                         ]

with F0 = (volume potential of f) - (double layer of phi0).  The
multiplier vanishes in exact arithmetic whenever the data satisfy the
compatibility condition; its computed size is reported as a diagnostic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import parametrix
from .coefficient import CoefficientField
from .errors import (AssemblyError, CompatibilityError, GeometryError,
                     SolverSingularError)
from .geometry import BoundaryGrid, DomainMesh


@dataclass
class DirichletProblem:
    """Exterior Dirichlet problem data.

    ``source(points)`` is the volume right-hand side f, or None to declare
    f = 0, which skips the volume potential of f altogether;
    ``dirichlet(t)`` is the boundary data as a function of the curve
    parameter.
    """

    curve: object
    field: CoefficientField
    source: object
    dirichlet: object

    def source_values(self, points):
        """f at the given points, zeros for a declared zero source."""
        if self.source is None:
            return np.zeros(np.atleast_2d(points).shape[0])
        return self.source(points)

    def check_compatibility(self, mesh: DomainMesh, tol):
        """Discrete zero-mean requirement on a finite f; returns the integral."""
        f = self.source_values(mesh.points)
        if not np.isfinite(f).all():
            raise CompatibilityError("volume source is not finite on the mesh")
        total = float(np.sum(mesh.weights * f))
        scale = float(np.sum(mesh.weights * np.abs(f)))
        if abs(total) > tol * max(scale, 1.0):
            raise CompatibilityError(
                f"volume source has nonzero mean {total:.3e} "
                f"(tolerance {tol:.1e} relative to {max(scale, 1.0):.3e})")
        return total


@dataclass
class BdieSystem:
    """Assembled discrete system plus everything needed to evaluate u."""

    problem: DirichletProblem
    grid: BoundaryGrid
    mesh: DomainMesh
    dom_idx: np.ndarray            # mesh node indices carrying u unknowns
    matrix: np.ndarray
    rhs: np.ndarray

    @property
    def n_dom(self):
        return self.dom_idx.shape[0]

    @property
    def n_bnd(self):
        return self.grid.n


@dataclass
class BdieSolution:
    """Solved densities and reconstruction of u anywhere in the domain."""

    system: BdieSystem
    u_dom: np.ndarray
    psi: np.ndarray
    multiplier: float
    iterations: int                # always 0: the solve is direct
    residual: float

    def evaluate(self, targets):
        """u(y) = F0(y) - (R u)(y) + (V psi)(y) at targets in the exterior
        domain, at any distance from the curve: one point (2,) or a block
        (m, 2).  Targets of any other shape, non-finite targets, and
        targets inside or on the curve by their mesh radius (rho <= 0),
        raise GeometryError; an on-curve target whose rho rounds above
        zero (within 8 eps |y| of the curve's radial profile) raises
        SingularEvaluationError in the layer terms, before any volume rule
        is built."""
        sys_ = self.system
        targets = np.asarray(targets, dtype=float)
        if targets.ndim not in (1, 2) or targets.shape[-1] != 2:
            raise GeometryError(
                f"evaluation targets have shape {targets.shape}, "
                "not (2,) or (m, 2)")
        targets = np.atleast_2d(targets)
        if not np.isfinite(targets).all():
            raise GeometryError("evaluation target is not finite")
        if np.any(sys_.mesh.mesh_coords(targets)[0] <= 0.0):
            raise GeometryError(
                "evaluation target lies on or inside the curve")
        problem = sys_.problem
        # layer terms first: their side test rejects on-curve targets before
        # any volume rule is built
        v_rows, w_rows = parametrix.layer_rows_offboundary(
            sys_.grid, problem.field, targets)
        r_rows, pf = parametrix.volume_terms(
            sys_.mesh, problem.field, targets, sys_.dom_idx,
            rho_fn=problem.source)
        f0 = pf - w_rows @ problem.dirichlet(sys_.grid.t)
        return f0 - r_rows @ self.u_dom + v_rows @ self.psi


def _domain_indices(mesh: DomainMesh, field: CoefficientField):
    """The mesh nodes within the coefficient's support: none for a constant
    (support radius 0), all for an unbounded support."""
    r = np.hypot(mesh.points[:, 0], mesh.points[:, 1])
    return np.nonzero(r <= field.support_radius)[0]


def assemble_system(problem: DirichletProblem, grid: BoundaryGrid,
                    mesh: DomainMesh, *, compatibility_tol=1e-6) -> BdieSystem:
    """Build the dense block system for the given discretization."""
    if grid.curve is not mesh.curve:
        raise AssemblyError("boundary grid and domain mesh use different curves")
    problem.check_compatibility(mesh, tol=compatibility_tol)
    field = problem.field
    dom_idx = _domain_indices(mesh, field)
    nd, nb = dom_idx.shape[0], grid.n
    n_tot = nd + nb + 1
    mat = np.zeros((n_tot, n_tot))
    rhs = np.zeros(n_tot)
    phi = problem.dirichlet(grid.t)

    # one volume pass: R and the volume part of F0 at the domain nodes, then
    # at the boundary nodes
    r_rows, pf = parametrix.volume_terms(
        mesh, field, np.concatenate([mesh.points[dom_idx], grid.points]),
        dom_idx, rho_fn=problem.source)
    v_db, w_db = parametrix.layer_rows_offboundary(grid, field,
                                                   mesh.points[dom_idx])
    mat[:nd, :nd] = r_rows[:nd]
    mat[range(nd), range(nd)] += 1.0
    np.negative(v_db, out=mat[:nd, nd:nd + nb])
    rhs[:nd] = pf[:nd] - w_db @ phi
    # the boundary block: gamma+ F0 through the double-layer jump relation
    mat[nd:nd + nb, :nd] = r_rows[nd:]
    np.negative(parametrix.single_layer_boundary(grid, field),
                out=mat[nd:nd + nb, nd:nd + nb])
    mat[nd:nd + nb, nd + nb] = 1.0
    mat[nd + nb, nd:nd + nb] = grid.weights
    w_direct = parametrix.double_layer_boundary(grid, field) @ phi
    rhs[nd:nd + nb] = pf[nd:] - (-0.5 * phi + w_direct) - phi
    return BdieSystem(problem=problem, grid=grid, mesh=mesh, dom_idx=dom_idx,
                      matrix=mat, rhs=rhs)


def solve(system: BdieSystem, *, method="lu") -> BdieSolution:
    """Solve the assembled system by LU; ``method`` may name it, and any
    other method raises AssemblyError.  A singular system, or one with a
    non-finite entry, raises SolverSingularError."""
    if method != "lu":
        raise AssemblyError(f"unknown solver method {method!r}")
    nd, nb = system.n_dom, system.n_bnd
    mat, rhs = system.matrix, system.rhs
    if not (np.isfinite(mat).all() and np.isfinite(rhs).all()):
        raise SolverSingularError(
            "system matrix or right-hand side is not finite")
    try:
        with warnings.catch_warnings():
            # singularity is detected below via the factor diagonal
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(mat, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SolverSingularError(str(exc)) from None
    diag = np.abs(np.diag(lu))
    if diag.min() <= 1e-14 * max(diag.max(), 1.0):
        raise SolverSingularError(
            "system matrix is singular to working precision")
    x = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    residual = float(np.linalg.norm(mat @ x - rhs)
                     / max(np.linalg.norm(rhs), 1e-300))
    return BdieSolution(system=system, u_dom=x[:nd], psi=x[nd:nd + nb],
                        multiplier=float(x[nd + nb]), iterations=0,
                        residual=residual)
