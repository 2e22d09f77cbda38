"""Manufactured solutions and numerical checks of the identities the
solver is built on: representation (third Green) identity, trace form,
second Green identity on the truncated domain, equivalence of the solved
densities with the exact solution, remainder split decay, and the
conditioning behaviour of the assembled system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import parametrix
from .coefficient import CoefficientField, make_coefficient, weight
from .errors import UnknownCatalogError, VerificationError
from .geometry import boundary_grid, domain_mesh, make_curve
from .system import DirichletProblem, assemble_system, solve

_TWO_PI = 2.0 * np.pi
# second_green_identity: trapezoid nodes on the outer ring
_N_RING = 720
# jump_relation_check: offsets _JUMP_EPS0 * 2^-k, k < _JUMP_LEVELS
_JUMP_EPS0 = 0.08
_JUMP_LEVELS = 6
# equivalence_check: PDE check points (finite-difference step half the mesh h)
_N_EQUIV_CHECK = 5
# gaussian_tail_factor: radial samples on [r, _TAIL_R_MAX]
_TAIL_SAMPLES = 20001
_TAIL_R_MAX = 50.0


# ---------------------------------------------------------------------------
# manufactured cases

@dataclass
class ManufacturedCase:
    """Exact exterior solution with all data the solver consumes."""

    name: str
    curve: object
    field: CoefficientField
    exact_u: object          # u(points)
    exact_grad: object       # grad u(points)
    source: object           # f = div(a grad u), closed form; None: f = 0
    dirichlet: object        # phi0(t) on the curve parameter
    psi_exact: object        # T+ u(t) on the curve parameter
    r_trunc: float

    def problem(self):
        return DirichletProblem(self.curve, self.field, self.source,
                                self.dirichlet)

    def validate(self):
        """Cross-check the closed-form data against finite differences.

        Verifies f = div(a grad u) at random exterior points, the decay of
        u, and the mean-zero properties of f and psi.
        """
        rng = np.random.default_rng(1234)
        r = rng.uniform(1.5, 4.0, 20)
        th = rng.uniform(0.0, _TWO_PI, 20)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        source_values = self.problem().source_values
        res = _pde_residual(self.exact_u, self.field, source_values, pts, 5e-4)
        scale = max(float(np.abs(source_values(pts)).max()), 1.0)
        fd_err = float(np.abs(res).max()) / scale
        if fd_err > 1e-6:
            raise VerificationError(
                f"closed-form source disagrees with finite differences "
                f"({fd_err:.2e} relative)")
        far = np.array([[50.0, 0.0], [0.0, 80.0], [-120.0, 7.0]])
        if np.abs(self.exact_u(far)).max() > 0.1:
            raise VerificationError("exact solution does not decay")
        grid = boundary_grid(self.curve, 64)
        mesh = domain_mesh(self.curve, self.r_trunc, 4 * np.pi / 64,
                           m_theta=64)
        f_mean = float(np.sum(mesh.weights * source_values(mesh.points)))
        psi_mean = float(np.sum(grid.weights * self.psi_exact(grid.t)))
        if abs(f_mean) > 1e-6 or abs(psi_mean) > 1e-10:
            raise VerificationError(
                f"mean-zero check failed: <f,1> = {f_mean:.2e}, "
                f"<psi,1> = {psi_mean:.2e}")
        return {"fd_residual": fd_err, "f_mean": f_mean, "psi_mean": psi_mean}


def _pde_residual(u, field, source_values, pts, h):
    """div(a grad u) - f at the points pts, from five-point differences of
    step h of the field u, which is called once, on the stacked stencil."""
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    vals = u(np.concatenate([pts, pts + e1, pts - e1, pts + e2, pts - e2]))
    vals = vals.reshape(5, pts.shape[0])
    lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / h ** 2
    gx = (vals[1] - vals[2]) / (2 * h)
    gy = (vals[3] - vals[4]) / (2 * h)
    a, ga, _ = field.eval(pts)
    return a * lap + ga[:, 0] * gx + ga[:, 1] * gy - source_values(pts)


def _dipole_u(pts):
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    return pts[:, 0] / r2


def _dipole_grad(pts):
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    return np.stack([(r2 - 2.0 * pts[:, 0] ** 2) / r2 ** 2,
                     -2.0 * pts[:, 0] * pts[:, 1] / r2 ** 2], axis=1)


def manufactured_case(name) -> ManufacturedCase:
    """Catalog of exact exterior solutions.

    "laplace-dipole": a = 1 and the decaying harmonic dipole u = x1/|x|^2
    on the unit circle, so f = 0 (declared as source None) and the
    conormal density is cos(t).  "bump-dipole": the same u with the
    gaussian-bump coefficient, f = grad a . grad u, phi = u(x(t)) and
    psi = a n . grad u in closed form.  "star-bump-dipole": the same
    outside the star (alpha 0.2, k 5), where a varies along the curve.
    "zero": everything identically zero on the unit circle, f declared
    as None too.
    """
    curve = make_curve("circle", radius=1.0)
    if name == "laplace-dipole":
        field = make_coefficient("constant", value=1.0)
        return ManufacturedCase(
            name=name, curve=curve, field=field,
            exact_u=_dipole_u, exact_grad=_dipole_grad, source=None,
            dirichlet=np.cos, psi_exact=np.cos, r_trunc=3.0)
    if name in ("bump-dipole", "star-bump-dipole"):
        if name == "star-bump-dipole":
            curve = make_curve("star", alpha=0.2, k=5)
        field = make_coefficient("gaussian_bump", beta=1.0, sigma=1.0)

        def source(p):
            ga, gu = field.eval(p)[1], _dipole_grad(p)
            return ga[:, 0] * gu[:, 0] + ga[:, 1] * gu[:, 1]

        def dirichlet(t):
            return _dipole_u(curve.position(t))

        def psi_exact(t):
            pts, _, nrm, _ = curve.evaluate(t)
            return field.eval(pts)[0] * np.sum(nrm * _dipole_grad(pts), axis=1)

        return ManufacturedCase(
            name=name, curve=curve, field=field,
            exact_u=_dipole_u, exact_grad=_dipole_grad, source=source,
            dirichlet=dirichlet, psi_exact=psi_exact, r_trunc=6.0)
    if name == "zero":
        field = make_coefficient("constant", value=1.0)
        zfun = lambda p: np.zeros(np.atleast_2d(p).shape[0])
        return ManufacturedCase(
            name=name, curve=curve, field=field,
            exact_u=zfun, exact_grad=lambda p: np.zeros_like(np.atleast_2d(p)),
            source=None, dirichlet=np.zeros_like,
            psi_exact=np.zeros_like, r_trunc=3.0)
    raise UnknownCatalogError(f"unknown manufactured case {name!r}")


def default_probes(n_probes=10, r_min=1.2, r_max=4.0, seed=7):
    """Deterministic exterior probe points, spread in radius and angle."""
    rng = np.random.default_rng(seed)
    r = np.linspace(r_min, r_max, n_probes)
    th = rng.uniform(0.0, _TWO_PI, n_probes)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


# ---------------------------------------------------------------------------
# Green identities

def green_identity_residuals(case: ManufacturedCase, points, grid, mesh):
    """Residual of the representation identity built from exact data, on
    the given boundary grid and domain mesh.

    Checks u + R u - V (T+ u) + W (gamma+ u) = (volume potential of f) at
    the given exterior points, plus its trace form on the boundary nodes,
    and reports the flux balance between f and the conormal density.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    psi = case.psi_exact(grid.t)
    phi = case.dirichlet(grid.t)
    v_rows, w_rows = parametrix.layer_rows_offboundary(grid, case.field, pts)
    interior = (case.exact_u(pts)
                + parametrix.remainder_apply(mesh, case.field, pts,
                                             rho_fn=case.exact_u)
                - v_rows @ psi + w_rows @ phi
                - parametrix.volume_potential(mesh, case.field, pts,
                                              rho_fn=case.source))
    trace = (0.5 * phi
             + parametrix.remainder_apply(mesh, case.field, grid.points,
                                          rho_fn=case.exact_u)
             - parametrix.single_layer_boundary(grid, case.field) @ psi
             + parametrix.double_layer_boundary(grid, case.field) @ phi
             - parametrix.volume_potential(mesh, case.field, grid.points,
                                           rho_fn=case.source))
    f = case.problem().source_values(mesh.points)
    flux = (float(np.sum(mesh.weights * f))
            - float(np.sum(grid.weights * psi)))
    return {
        "interior_residuals": interior,
        "max_interior_residual": float(np.abs(interior).max()),
        "trace_residuals": trace,
        "max_trace_residual": float(np.abs(trace).max()),
        "flux_balance": flux,
    }


def second_green_identity(case: ManufacturedCase, grid, mesh):
    """Second Green identity for the pair (u, quadrupole) on the domain of
    the given boundary grid and domain mesh, truncated at the mesh's
    radius; the outer-ring boundary term is reported, not assumed zero.

    The second member v = (x1^2 - x2^2)/|x|^4 is harmonic and decays like
    |x|^-2, so every term is individually nonzero for a generic coefficient.
    The source of u is taken as grad a . grad u for the case coefficient
    (the catalog solutions are harmonic), so a case whose ``field`` is
    replaced by an off-center coefficient makes the identity non-trivial.
    """
    field = case.field

    def v_fn(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return (p[:, 0] ** 2 - p[:, 1] ** 2) / r2 ** 2

    def grad_v(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        q = p[:, 0] ** 2 - p[:, 1] ** 2
        g = np.empty_like(p)
        g[:, 0] = 2.0 * p[:, 0] / r2 ** 2 - 4.0 * q * p[:, 0] / r2 ** 3
        g[:, 1] = -2.0 * p[:, 1] / r2 ** 2 - 4.0 * q * p[:, 1] / r2 ** 3
        return g

    def av_fn(p):
        # v is harmonic, so its source reduces to grad a . grad v
        _, ga, _ = field.eval(p)
        return np.sum(ga * grad_v(p), axis=1)

    def f_u(p):
        _, ga, _ = field.eval(p)
        return np.sum(ga * case.exact_grad(p), axis=1)

    r_t = mesh.r_trunc
    u = case.exact_u
    lhs = float(np.sum(mesh.weights * (v_fn(mesh.points) * f_u(mesh.points)
                                       - u(mesh.points) * av_fn(mesh.points))))
    t_u = parametrix.conormal_derivative(field, grid.points, grid.normals,
                                         case.exact_grad(grid.points))
    t_v = parametrix.conormal_derivative(field, grid.points, grid.normals,
                                         grad_v(grid.points))
    s_term = float(np.sum(grid.weights * (v_fn(grid.points) * t_u
                                          - u(grid.points) * t_v)))
    th = _TWO_PI * np.arange(_N_RING) / _N_RING
    ring = r_t * np.stack([np.cos(th), np.sin(th)], axis=1)
    nu = ring / r_t  # outward
    a_r, _, _ = field.eval(ring)
    ring_term = float(np.sum((_TWO_PI * r_t / _N_RING) * a_r
                             * (v_fn(ring) * np.sum(nu * case.exact_grad(ring), axis=1)
                                - u(ring) * np.sum(nu * grad_v(ring), axis=1))))
    return {
        "lhs": lhs,
        "boundary_term": s_term,
        "outer_ring_term": ring_term,
        "residual": lhs - s_term - ring_term,
    }


# ---------------------------------------------------------------------------
# jump relations

# the test densities of the jump-relation checks (cli verify and selftest)
JUMP_DENSITIES = {"one": np.ones_like, "cos": np.cos,
                  "sin2": lambda t: np.sin(2.0 * t)}


def _extrapolate_to_boundary(grid, field, rho, side):
    """Richardson-extrapolated one-sided limits (single, double) of the
    layer potentials of nodal density rho, one off-boundary pass per offset.

    side=+1 approaches from the unbounded side (against the normal, which
    points into the bounded complement), side=-1 from the bounded side.
    """
    eps = _JUMP_EPS0 * 0.5 ** np.arange(_JUMP_LEVELS)
    vals = np.empty((_JUMP_LEVELS, 2, grid.n))
    for k, e in enumerate(eps):
        rows = parametrix.layer_rows_offboundary(
            grid, field, grid.points - side * e * grid.normals)
        vals[k] = [r @ rho for r in rows]
    vander = np.vander(eps, _JUMP_LEVELS)
    coeffs = np.linalg.solve(vander, vals.reshape(_JUMP_LEVELS, -1))
    return coeffs[-1].reshape(2, grid.n)


def jump_relation_check(grid, field, density_fn):
    """Max deviation of the extrapolated one-sided traces from the direct
    boundary operators, for the single and double layer on both sides."""
    rho = density_fn(grid.t)
    v_direct = parametrix.single_layer_boundary(grid, field) @ rho
    w_direct = parametrix.double_layer_boundary(grid, field) @ rho
    out = {}
    for side, tag in ((+1, "exterior"), (-1, "interior")):
        v_lim, w_lim = _extrapolate_to_boundary(grid, field, rho, side)
        out[f"single_{tag}"] = float(np.abs(v_lim - v_direct).max())
        expected = -side * 0.5 * rho + w_direct
        out[f"double_{tag}"] = float(np.abs(w_lim - expected).max())
    return out


# ---------------------------------------------------------------------------
# equivalence of the solved system with the exact solution

def equivalence_check(case: ManufacturedCase, solution):
    """Compare solved densities with the exact ones and probe the PDE.

    Reports the discrete L2(S) error of psi, the weighted L2 mesh error of
    u, and the residual of div(a grad u) = f evaluated by five-point
    finite differences of the reconstructed field at interior check
    points (a code path independent of the assembly quadratures).
    """
    sysm = solution.system
    grid, mesh = sysm.grid, sysm.mesh
    psi_ex = case.psi_exact(grid.t)
    dpsi = solution.psi - psi_ex
    scale_psi = np.sqrt(np.sum(grid.weights * psi_ex ** 2))
    err_psi = float(np.sqrt(np.sum(grid.weights * dpsi ** 2))
                    / max(scale_psi, 1e-300))
    if sysm.n_dom:
        pts = mesh.points[sysm.dom_idx]
        w = mesh.weights[sysm.dom_idx] / weight(pts) ** 2
        ue = case.exact_u(pts)
        scale_u = np.sqrt(np.sum(w * ue ** 2))
        err_u = float(np.sqrt(np.sum(w * (solution.u_dom - ue) ** 2))
                      / max(scale_u, 1e-300))
    else:
        probes = default_probes()
        ue = case.exact_u(probes)
        err_u = float(np.abs(solution.evaluate(probes) - ue).max()
                      / max(np.abs(ue).max(), 1e-300))
    checks = default_probes(_N_EQUIV_CHECK, r_min=1.5, r_max=3.0, seed=11)
    pde_res = _pde_residual(solution.evaluate, case.field,
                            case.problem().source_values, checks,
                            0.5 * mesh.h)
    return {
        "err_psi": err_psi,
        "err_u": err_u,
        "pde_residual": float(np.abs(pde_res).max()),
        "psi_mean": float(np.sum(grid.weights * solution.psi)),
        "multiplier": solution.multiplier,
    }


def convergence_study(case: ManufacturedCase, n_values):
    """Solve the case over tied refinements; returns per-level dict rows
    with errors and observed orders (CSV columns N, h, err_u, err_psi,
    order)."""
    rows = []
    for n in n_values:
        grid = boundary_grid(case.curve, n)
        h = 4 * np.pi / n
        mesh = domain_mesh(case.curve, case.r_trunc, h, m_theta=n)
        sysm = assemble_system(case.problem(), grid, mesh)
        sol = solve(sysm)
        chk = equivalence_check(case, sol)
        order = np.nan
        if rows:
            prev = rows[-1]
            if chk["err_u"] > 0 and prev["err_u"] > 0:
                order = float(np.log2(prev["err_u"] / chk["err_u"])
                              / np.log2(n / prev["N"]))
        rows.append({"N": n, "h": h, "err_u": chk["err_u"],
                     "err_psi": chk["err_psi"], "order": order,
                     "psi_mean": chk["psi_mean"],
                     "multiplier": chk["multiplier"]})
    return rows


# ---------------------------------------------------------------------------
# remainder split decay

def _weighted_operator_norm(rows, mesh, idx, seed):
    """Operator norm in the weighted discrete L2 norm via power iteration
    on the normal operator."""
    w = mesh.weights[idx]
    om = weight(mesh.points[idx])
    d = np.sqrt(w) / om
    b = (d[:, None] * rows[np.ix_(idx, idx)]) / d[None, :]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(b.shape[1])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(20):
        v = b.T @ (b @ v)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            return 0.0
        v /= nrm
        est = np.sqrt(nrm)
    return float(est)


def gaussian_tail_factor(field: CoefficientField, r):
    """sup over |x| >= r of omega2(x) |grad a(x)|, sampled on 180 rays."""
    s = np.linspace(r, _TAIL_R_MAX, _TAIL_SAMPLES)
    best = 0.0
    for tt in np.linspace(0.0, _TWO_PI, 180, endpoint=False):
        p = np.stack([s * np.cos(tt), s * np.sin(tt)], axis=1)
        g = field.eval(p)[1]
        best = max(best, float(np.max(weight(p) * np.hypot(g[:, 0], g[:, 1]))))
    return best


def remainder_norm(mesh, *, rows, seed):
    """Weighted-norm estimate of the discrete remainder operator on the
    full mesh, from its ``rows`` at every mesh node (remainder_rows)."""
    return _weighted_operator_norm(rows, mesh, np.arange(mesh.n_nodes),
                                   seed=seed)


def split_decay_study(field: CoefficientField, mesh, radii, *, seed, rows):
    """Estimate the tail-part operator norm of the remainder, from its
    ``rows`` at every mesh node (remainder_rows), for growing split radii
    and compare against the weighted coefficient-tail factor."""
    radii = list(radii)
    if any(b >= c for b, c in zip(radii, radii[1:])):
        raise VerificationError("split radii must be strictly increasing")
    idx = np.arange(mesh.n_nodes)
    out = []
    for r in radii:
        core, tail, _ = parametrix.remainder_split(mesh, rows, r)
        norm_s = _weighted_operator_norm(tail, mesh, idx, seed=seed)
        factor = gaussian_tail_factor(field, r)
        add_err = float(np.abs(core + tail - rows).max())
        out.append({"r": r, "norm_tail": norm_s, "factor": factor,
                    "additivity_error": add_err})
    finite = [row for row in out if row["factor"] > 0]
    c_fit = max((row["norm_tail"] / row["factor"] for row in finite),
                default=0.0)
    for row in out:
        row["fitted_C"] = c_fit
        row["bound_ok"] = row["norm_tail"] <= c_fit * row["factor"] + 1e-15
    return out


# ---------------------------------------------------------------------------
# conditioning

def sobolev_scaling_matrix(n, p):
    """Matrix of the Fourier multiplier (1 + k^2)^p on n periodic nodes."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    mult = (1.0 + k ** 2) ** p
    f = np.fft.fft(np.eye(n), axis=0)
    return np.real(np.fft.ifft(mult[:, None] * f, axis=0))


def weighted_system_condition(system):
    """Condition number after symmetric Sobolev rescaling of the boundary
    rows and the conormal-density columns (order +-1/4)."""
    nd, nb = system.n_dom, system.n_bnd
    s = sobolev_scaling_matrix(nb, 0.25)
    m = system.matrix.copy()
    m[nd:nd + nb, :] = s @ m[nd:nd + nb, :]
    m[:, nd:nd + nb] = m[:, nd:nd + nb] @ s
    return float(np.linalg.cond(m))


def single_layer_sigma_min(v_matrix, weights):
    """Smallest singular value of the Sobolev-rescaled single-layer matrix
    restricted to discretely mean-zero densities."""
    nb = v_matrix.shape[0]
    s = sobolev_scaling_matrix(nb, 0.25)
    v_w = s @ v_matrix @ s
    q = scipy.linalg.null_space(np.asarray(weights)[None, :] @ s)
    sv = np.linalg.svd(v_w @ q, compute_uv=False)
    return float(sv.min())


def conditioning_study(problem_factory, n_values):
    """Assemble the system across boundary resolutions and record the
    rescaled condition number and single-layer sigma_min (CSV columns
    N, cond_M, sigma_min_V)."""
    rows = []
    for n in n_values:
        problem, grid, mesh = problem_factory(n)
        sysm = assemble_system(problem, grid, mesh)
        nd, nb = sysm.n_dom, sysm.n_bnd
        rows.append({
            "N": n,
            "cond_M": weighted_system_condition(sysm),
            "sigma_min_V": single_layer_sigma_min(
                -sysm.matrix[nd:nd + nb, nd:nd + nb], sysm.grid.weights),
        })
    for prev, cur in zip(rows, rows[1:]):
        cur["cond_ratio"] = cur["cond_M"] / prev["cond_M"]
    rows[0]["cond_ratio"] = np.nan
    return rows
