import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bdie2d import parametrix, verification as vf
from bdie2d.coefficient import make_coefficient, weight
from bdie2d.errors import UnknownCatalogError, VerificationError
from bdie2d.geometry import boundary_grid, domain_mesh, make_curve
from bdie2d.system import assemble_system, solve


@pytest.mark.parametrize("name", ["laplace-dipole", "bump-dipole",
                                  "star-bump-dipole", "zero"])
def test_manufactured_cases_are_internally_consistent(name):
    case = vf.manufactured_case(name)
    report = case.validate()
    assert report["fd_residual"] <= 1e-6
    assert abs(report["f_mean"]) <= 1e-6
    assert abs(report["psi_mean"]) <= 1e-10


def test_star_case_converges_in_u_and_psi():
    case = vf.manufactured_case("star-bump-dipole")
    errs = []
    for n in (32, 64):
        grid = boundary_grid(case.curve, n)
        mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / n, m_theta=n)
        eq = vf.equivalence_check(
            case, solve(assemble_system(case.problem(), grid, mesh)))
        errs.append((eq["err_u"], eq["err_psi"]))
    (u32, psi32), (u64, psi64) = errs
    assert np.log2(u32 / u64) >= 2.0
    assert np.log2(psi32 / psi64) >= 2.0


def test_unknown_case_raises():
    with pytest.raises(UnknownCatalogError):
        vf.manufactured_case("helmholtz")


def test_validation_catches_wrong_source():
    case = vf.manufactured_case("bump-dipole")
    src = case.source
    case.source = lambda p: 1.1 * src(p)
    with pytest.raises(VerificationError):
        case.validate()


def test_default_probes_are_deterministic_and_exterior():
    p1 = vf.default_probes()
    p2 = vf.default_probes()
    assert_allclose(p1, p2)
    r = np.hypot(p1[:, 0], p1[:, 1])
    assert np.all((r >= 1.2) & (r <= 4.0))


def _tied(case, n):
    """The boundary grid and domain mesh tied to N: h = 4 pi / N and
    m_theta = N."""
    return (boundary_grid(case.curve, n),
            domain_mesh(case.curve, case.r_trunc, 4 * np.pi / n, m_theta=n))


def test_green_identity_exact_for_harmonic_case():
    case = vf.manufactured_case("laplace-dipole")
    res = vf.green_identity_residuals(case, vf.default_probes(),
                                      *_tied(case, 32))
    assert res["max_interior_residual"] <= 1e-10
    assert res["max_trace_residual"] <= 1e-10
    assert abs(res["flux_balance"]) <= 1e-12


def test_green_identity_converges_for_variable_coefficient():
    case = vf.manufactured_case("bump-dipole")
    probes = vf.default_probes(4)
    r32 = vf.green_identity_residuals(case, probes, *_tied(case, 32))
    r64 = vf.green_identity_residuals(case, probes, *_tied(case, 64))
    assert r64["max_interior_residual"] < r32["max_interior_residual"]
    assert r64["max_interior_residual"] <= 5e-5


def test_second_green_identity_nontrivial_for_offcenter_coefficient():
    field = make_coefficient("gaussian_bump", beta=0.8, sigma=1.2,
                             center=(0.6, 0.4))
    case = dataclasses.replace(vf.manufactured_case("laplace-dipole"),
                               field=field, r_trunc=6.0)
    res = vf.second_green_identity(case, *_tied(case, 64))
    assert abs(res["boundary_term"]) > 0.01
    assert abs(res["residual"]) <= 1e-4


def test_jump_relations_variable_coefficient():
    grid = boundary_grid(make_curve("circle"), 64)
    field = make_coefficient("gaussian_bump", beta=1.0, sigma=1.0)
    for fn in (lambda t: np.ones_like(t), np.cos,
               lambda t: np.sin(2 * t)):
        res = vf.jump_relation_check(grid, field, fn)
        assert max(res.values()) <= 1e-8


def test_equivalence_check_on_solved_system():
    case = vf.manufactured_case("laplace-dipole")
    grid = boundary_grid(case.curve, 64)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 64, m_theta=64)
    sol = solve(assemble_system(case.problem(), grid, mesh))
    res = vf.equivalence_check(case, sol)
    assert res["err_psi"] <= 1e-10
    assert res["err_u"] <= 1e-10
    assert abs(res["psi_mean"]) <= 1e-12


def test_convergence_study_reports_schema_columns():
    case = vf.manufactured_case("laplace-dipole")
    rows = vf.convergence_study(case, [16, 32])
    assert [r["N"] for r in rows] == [16, 32]
    for key in ("N", "h", "err_u", "err_psi", "order"):
        assert key in rows[0]
    assert rows[0]["err_psi"] <= 1e-10 and rows[1]["err_psi"] <= 1e-10


@pytest.fixture(scope="module")
def small_bump_mesh():
    return domain_mesh(make_curve("circle"), 6.0, 4 * np.pi / 32, m_theta=32)


def test_split_decay_study_monotone(small_bump_mesh):
    field = make_coefficient("gaussian_bump", beta=1.0, sigma=1.0)
    rows = vf.split_decay_study(
        field, small_bump_mesh, [2.0, 3.0, 4.0], seed=0,
        rows=parametrix.remainder_rows(small_bump_mesh, field,
                                       small_bump_mesh.points))
    norms = [r["norm_tail"] for r in rows]
    factors = [r["factor"] for r in rows]
    assert norms[0] > norms[1] > norms[2]
    assert factors[0] > factors[1] > factors[2]
    assert all(r["additivity_error"] <= 1e-14 for r in rows)
    assert all(r["bound_ok"] for r in rows)


def test_split_decay_requires_increasing_radii(small_bump_mesh):
    field = make_coefficient("gaussian_bump", beta=1.0, sigma=1.0)
    with pytest.raises(VerificationError):
        vf.split_decay_study(
            field, small_bump_mesh, [3.0, 2.0], seed=0,
            rows=parametrix.remainder_rows(small_bump_mesh, field,
                                           small_bump_mesh.points))


def test_remainder_norm_vanishes_for_constant(small_bump_mesh):
    field = make_coefficient("constant", value=1.0)
    rows = parametrix.remainder_rows(small_bump_mesh, field,
                                     small_bump_mesh.points)
    assert vf.remainder_norm(small_bump_mesh, rows=rows, seed=0) == 0.0


def test_gaussian_tail_factor_matches_radial_scan():
    field = make_coefficient("gaussian_bump", beta=1.0, sigma=1.0)
    r = 2.0
    s = np.linspace(r, 50.0, 200001)
    grad_mag = 2.0 * s * np.exp(-s ** 2)
    pts = np.stack([s, np.zeros_like(s)], axis=1)
    expected = np.max(weight(pts) * grad_mag)
    assert_allclose(vf.gaussian_tail_factor(field, r), expected, rtol=1e-6)


def test_gaussian_tail_factor_of_an_offset_bump():
    # centred on the y axis: the supremum lies on the ray toward the centre,
    # where |grad a| = 2 d exp(-d^2) at distance d = s - 0.5 from it
    field = make_coefficient("gaussian_bump", beta=1.0, sigma=1.0,
                             center=(0.0, 0.5))
    s = np.linspace(2.0, 50.0, 200001)
    pts = np.stack([np.zeros_like(s), s], axis=1)
    expected = np.max(weight(pts) * 2.0 * (s - 0.5) * np.exp(-(s - 0.5) ** 2))
    assert_allclose(vf.gaussian_tail_factor(field, 2.0), expected, rtol=1e-6)


def test_sobolev_scaling_matrix_is_fourier_multiplier():
    n, p = 32, 0.25
    s = vf.sobolev_scaling_matrix(n, p)
    t = 2 * np.pi * np.arange(n) / n
    for k in (0, 1, 3, 7):
        mode = np.cos(k * t)
        assert_allclose(s @ mode, (1 + k ** 2) ** p * mode, atol=1e-12)


@pytest.mark.parametrize("curve_name,params", [
    ("circle", {}),
    ("ellipse", {"a": 1.5, "b": 1.0}),
])
def test_restricted_single_layer_sigma_min_stable(curve_name, params):
    from bdie2d import parametrix
    field = make_coefficient("constant", value=1.0)
    sigmas = []
    for n in (32, 64, 128):
        grid = boundary_grid(make_curve(curve_name, **params), n)
        v = parametrix.single_layer_boundary(grid, field)
        sigmas.append(vf.single_layer_sigma_min(v, grid.weights))
    spread = (max(sigmas) - min(sigmas)) / max(sigmas)
    assert min(sigmas) > 0.05
    assert spread <= 0.10


def test_conditioning_study_small():
    curve = make_curve("circle")
    field = make_coefficient("compact_bump", beta=0.6, sigma=0.5,
                             center=(1.5, 0.0))
    mesh = domain_mesh(curve, 3.0, 4 * np.pi / 32, m_theta=32)
    from bdie2d.system import DirichletProblem

    def factory(n):
        grid = boundary_grid(curve, n)
        problem = DirichletProblem(curve, field,
                                   lambda p: np.zeros(p.shape[0]), np.cos)
        return problem, grid, mesh

    rows = vf.conditioning_study(factory, [16, 32])
    assert rows[1]["cond_ratio"] <= 2.0
    assert abs(rows[1]["sigma_min_V"] - rows[0]["sigma_min_V"]) \
        <= 0.1 * rows[0]["sigma_min_V"]
