import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bdie2d import laplace, parametrix
from bdie2d.coefficient import CoefficientField, make_coefficient
from bdie2d.errors import (AssemblyError, Bdie2dError, CompatibilityError,
                           GeometryError, SingularEvaluationError,
                           SolverSingularError)
from bdie2d.geometry import boundary_grid, domain_mesh, make_curve
from bdie2d.system import DirichletProblem, assemble_system, solve
from bdie2d.verification import manufactured_case


@pytest.fixture(scope="module")
def laplace_case():
    return manufactured_case("laplace-dipole")


@pytest.fixture(scope="module")
def laplace_solution(laplace_case):
    case = laplace_case
    grid = boundary_grid(case.curve, 64)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 64, m_theta=64)
    sysm = assemble_system(case.problem(), grid, mesh)
    return sysm, solve(sysm)


def test_constant_coefficient_has_no_domain_unknowns(laplace_solution):
    sysm, sol = laplace_solution
    assert sysm.n_dom == 0
    assert abs(sol.multiplier) <= 1e-12


def test_constant_coefficient_recovers_conormal_density(laplace_solution):
    sysm, sol = laplace_solution
    assert_allclose(sol.psi, np.cos(sysm.grid.t), atol=1e-12)


def test_solution_evaluation_matches_exact_field(laplace_solution,
                                                 laplace_case):
    _, sol = laplace_solution
    probes = np.array([[2.0, 0.0], [0.7, 1.6], [-3.0, 0.5]])
    assert_allclose(sol.evaluate(probes), laplace_case.exact_u(probes),
                    atol=1e-12)


@pytest.mark.parametrize("target", [(0.3, 0.1), (1.0, 0.0), (np.nan, 2.0),
                                    (np.cos(0.00314), np.sin(0.00314))],
                         ids=["inside", "on-curve", "nan",
                              "on-curve-between-samples"])
def test_evaluation_rejects_targets_outside_the_exterior_domain(
        laplace_solution, target):
    _, sol = laplace_solution
    with pytest.raises(GeometryError):
        sol.evaluate(np.array([[2.0, 0.0], target]))


@pytest.fixture(scope="module")
def laplace_solution_32(laplace_case):
    case = laplace_case
    grid = boundary_grid(case.curve, 32)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 32, m_theta=32)
    return solve(assemble_system(case.problem(), grid, mesh))


def test_evaluation_near_the_curve_is_accurate_or_rejected(laplace_solution_32,
                                                           laplace_case):
    direction = np.array([[np.cos(0.7), np.sin(0.7)]])
    near = (1.0 + 1e-3) * direction
    exact = laplace_case.exact_u(near)
    assert_allclose(laplace_solution_32.evaluate(near), exact, rtol=1e-12,
                    atol=0.0)
    nearer = (1.0 + 1e-5) * direction
    assert_allclose(laplace_solution_32.evaluate(nearer),
                    laplace_case.exact_u(nearer), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("curve,n", [(("circle", {}), 32),
                                     (("star", {"alpha": 0.2, "k": 5}), 128)],
                         ids=["laplace-dipole-32", "star-dipole-128"])
def test_evaluation_near_the_curve_is_accurate(curve, n):
    # the dipole x1 / |x|^2 with a = 1 outside the curve
    curve = make_curve(curve[0], **curve[1])
    dipole = manufactured_case("laplace-dipole").exact_u
    problem = DirichletProblem(
        curve=curve, field=make_coefficient("constant", value=1.0),
        source=None, dirichlet=lambda t: dipole(curve.position(t)))
    grid = boundary_grid(curve, n)
    mesh = domain_mesh(curve, 3.0, 4 * np.pi / n, m_theta=n)
    sol = solve(assemble_system(problem, grid, mesh))
    point, _, normal, _ = curve.evaluate(np.array([0.7]))
    d = np.array([1e-1, 1e-3, 1e-5, 1e-8])
    targets = point - d[:, None] * normal   # normals point inside
    assert_allclose(sol.evaluate(targets), dipole(targets), rtol=1e-10,
                    atol=0.0)


def test_points_on_a_star_curve_are_rejected():
    curve = make_curve("star", alpha=0.2, k=5)
    problem = DirichletProblem(
        curve=curve, field=make_coefficient("constant", value=1.0),
        source=None, dirichlet=np.cos)
    grid = boundary_grid(curve, 32)
    mesh = domain_mesh(curve, 3.0, 4 * np.pi / 32, m_theta=32)
    sol = solve(assemble_system(problem, grid, mesh))
    rng = np.random.default_rng(8)
    # random parameters, and midpoints of the 4096 distance samples (nodes
    # of the finest ladder grid)
    t = np.concatenate([rng.uniform(0.0, 2 * np.pi, 40),
                        2 * np.pi * (np.arange(0, 4096, 97) + 0.5) / 4096])
    for p in curve.position(t):
        with pytest.raises(Bdie2dError):
            sol.evaluate(p[None, :])


def test_star_points_past_the_radial_check_build_no_volume_rule(monkeypatch):
    case = manufactured_case("star-bump-dipole")
    # 20 angular columns: the source's discrete mean vanishes by symmetry
    grid = boundary_grid(case.curve, 20)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 20, m_theta=20)
    sol = solve(assemble_system(case.problem(), grid, mesh))
    # on-curve points whose mesh coordinate rho rounds above zero
    on_curve = case.curve.position(np.linspace(0.0, 2 * np.pi, 41)[:-1])
    slipped = on_curve[mesh.mesh_coords(on_curve)[0] > 0.0]
    assert len(slipped) > 0
    rules = []
    blocks = laplace._blocks

    def counted(*args, **kwargs):
        rules.append(args[1])
        return blocks(*args, **kwargs)

    monkeypatch.setattr(laplace, "_blocks", counted)
    for p in slipped:
        with pytest.raises(SingularEvaluationError):
            sol.evaluate(p[None, :])
    assert rules == []


def test_a_unit_coefficient_without_support_keeps_remainder_blocks_zero(
        laplace_case):
    # a = 1 with no declared support goes through the variable-coefficient
    # rows: every mesh node is a domain unknown
    case = laplace_case
    unit = CoefficientField(lambda x: (np.ones(len(x)), np.zeros_like(x),
                                       np.zeros(len(x))), 1.0, 1.0)
    grid = boundary_grid(case.curve, 32)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 16, m_theta=16)
    sysm = assemble_system(dataclasses.replace(case.problem(), field=unit),
                           grid, mesh)
    nd = sysm.n_dom
    assert nd == mesh.n_nodes
    assert np.abs(sysm.matrix[:nd, :nd] - np.eye(nd)).max() == 0.0
    assert np.abs(sysm.matrix[nd:nd + grid.n, :nd]).max() == 0.0
    sol = solve(sysm)
    assert_allclose(sol.psi, np.cos(grid.t), atol=1e-10)
    assert_allclose(sol.u_dom, case.exact_u(mesh.points), atol=1e-10)


def test_declared_zero_source_matches_a_zero_function(laplace_case):
    case = laplace_case
    grid = boundary_grid(case.curve, 32)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 32, m_theta=32)
    declared = DirichletProblem(case.curve, case.field, None, case.dirichlet)
    zero_fn = DirichletProblem(case.curve, case.field,
                               lambda p: np.zeros(len(p)), case.dirichlet)
    assert declared.check_compatibility(mesh, tol=1e-6) == 0.0
    assert np.array_equal(declared.source_values(mesh.points),
                          zero_fn.source_values(mesh.points))
    sys_none = assemble_system(declared, grid, mesh)
    sys_fn = assemble_system(zero_fn, grid, mesh)
    assert np.array_equal(sys_none.matrix, sys_fn.matrix)
    assert np.array_equal(sys_none.rhs, sys_fn.rhs)
    probes = np.array([[1.05, 0.2], [2.0, -1.0], [-0.3, 4.5]])
    assert_allclose(solve(sys_none).evaluate(probes),
                    solve(sys_fn).evaluate(probes), rtol=0.0, atol=1e-14)


def test_declared_zero_source_builds_no_volume_rule(laplace_case,
                                                     monkeypatch):
    case = laplace_case
    grid = boundary_grid(case.curve, 16)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 16, m_theta=16)
    rules = []
    blocks = laplace._blocks

    def counted(*args, **kwargs):
        rules.append(args[1])
        return blocks(*args, **kwargs)

    monkeypatch.setattr(laplace, "_blocks", counted)
    assert case.problem().source is None
    sysm = assemble_system(case.problem(), grid, mesh)
    solve(sysm).evaluate(np.array([[1.5, 0.2], [-3.0, 1.0]]))
    assert rules == []


def test_nonzero_mean_source_rejected(laplace_case):
    case = laplace_case
    problem = DirichletProblem(
        case.curve, case.field,
        lambda p: np.exp(-(p[:, 0] - 1.5) ** 2 - p[:, 1] ** 2),
        case.dirichlet)
    grid = boundary_grid(case.curve, 32)
    mesh = domain_mesh(case.curve, 3.0, 4 * np.pi / 32, m_theta=32)
    with pytest.raises(CompatibilityError):
        assemble_system(problem, grid, mesh)


def test_a_non_finite_source_is_rejected(laplace_case):
    # NaN passes a mean-zero comparison, so it is checked on its own
    case = laplace_case
    problem = DirichletProblem(case.curve, case.field,
                               lambda p: np.full(len(p), np.nan),
                               case.dirichlet)
    mesh = domain_mesh(case.curve, 3.0, 4 * np.pi / 32, m_theta=32)
    with pytest.raises(CompatibilityError, match="not finite"):
        problem.check_compatibility(mesh, tol=1e-6)


def test_curve_mismatch_rejected(laplace_case):
    grid = boundary_grid(make_curve("circle"), 32)
    mesh = domain_mesh(make_curve("circle"), 3.0, 4 * np.pi / 32, m_theta=16)
    with pytest.raises(AssemblyError):
        assemble_system(laplace_case.problem(), grid, mesh)


@pytest.mark.parametrize("name", ["bump-dipole", "laplace-dipole"])
def test_a_problem_of_another_curve_is_rejected(name):
    # the cases' data are u on the circle: on the star they pose another
    # boundary value problem (laplace-dipole's, with no source, would
    # otherwise pass every other check of the assembly)
    star = make_curve("star", alpha=0.2, k=5)
    grid = boundary_grid(star, 16)
    mesh = domain_mesh(star, 6.0, 4 * np.pi / 16, m_theta=16)
    with pytest.raises(AssemblyError, match="different curves"):
        assemble_system(manufactured_case(name).problem(), grid, mesh)


@pytest.mark.parametrize("targets", [[[2.0, 0.5, 7.0]], [2.0, 0.5, 7.0, 1.0],
                                     [[[2.0, 0.5]]]],
                         ids=["three-columns", "flat-four", "three-axes"])
def test_evaluation_rejects_targets_of_the_wrong_shape(laplace_solution,
                                                       targets):
    _, sol = laplace_solution
    with pytest.raises(GeometryError):
        sol.evaluate(targets)


def test_unknown_solver_method_rejected(laplace_solution):
    sysm, _ = laplace_solution
    with pytest.raises(AssemblyError):
        solve(sysm, method="cholesky")


def test_singular_matrix_detected(laplace_solution):
    import copy

    sysm, _ = laplace_solution
    broken = copy.copy(sysm)
    broken.matrix = sysm.matrix.copy()
    broken.matrix[3, :] = 0.0
    with pytest.raises(SolverSingularError):
        solve(broken)


@pytest.mark.parametrize("part", ["matrix", "rhs"])
def test_non_finite_system_is_rejected(laplace_solution, part):
    import copy

    sysm, _ = laplace_solution
    broken = copy.copy(sysm)
    setattr(broken, part, getattr(sysm, part).copy())
    getattr(broken, part)[3] = np.nan
    with pytest.raises(SolverSingularError, match="not finite"):
        solve(broken)


@pytest.fixture(scope="module")
def bump_solution():
    case = manufactured_case("bump-dipole")
    grid = boundary_grid(case.curve, 32)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 32, m_theta=32)
    sysm = assemble_system(case.problem(), grid, mesh)
    return case, sysm, solve(sysm)


def test_variable_coefficient_solve_accuracy(bump_solution):
    case, sysm, sol = bump_solution
    psi_ex = case.psi_exact(sysm.grid.t)
    rel = np.sqrt(np.sum(sysm.grid.weights * (sol.psi - psi_ex) ** 2)
                  / np.sum(sysm.grid.weights * psi_ex ** 2))
    assert rel <= 1e-3
    assert abs(sol.multiplier) <= 1e-8


def test_solved_density_has_zero_mean(bump_solution):
    _, sysm, sol = bump_solution
    mean = np.sum(sysm.grid.weights * sol.psi)
    norm = np.sqrt(np.sum(sysm.grid.weights * sol.psi ** 2))
    assert abs(mean) <= 1e-10 * norm


def test_u_mesh_reconstruction(bump_solution):
    case, sysm, sol = bump_solution
    u_all = np.empty(sysm.mesh.n_nodes)
    u_all[sysm.dom_idx] = sol.u_dom
    rest = np.setdiff1d(np.arange(sysm.mesh.n_nodes), sysm.dom_idx)
    u_all[rest] = sol.evaluate(sysm.mesh.points[rest])
    exact = case.exact_u(sysm.mesh.points)
    assert np.abs(u_all - exact).max() <= 1e-2
    r = np.hypot(sysm.mesh.points[:, 0], sysm.mesh.points[:, 1])
    far = r > 2.0
    assert np.abs(u_all[far] - exact[far]).max() <= 1e-3


def test_evaluation_is_the_representation_formula(bump_solution):
    case, sysm, sol = bump_solution
    # the radius where the remainder's factors fall below 1e-8 (about 4.78)
    # splits these radii: rows of the outer targets have no near part
    r = np.array([1.3, 3.0, 5.0, 5.8, 6.3, 9.0])
    th = np.linspace(0.4, 5.9, r.size)
    targets = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    prob, field = sysm.problem, case.field
    v_rows, w_rows = parametrix.layer_rows_offboundary(sysm.grid, field,
                                                       targets)
    f0 = (parametrix.volume_potential(sysm.mesh, field, targets,
                                      rho_fn=prob.source)
          - w_rows @ prob.dirichlet(sysm.grid.t))
    r_rows = parametrix.remainder_rows(sysm.mesh, field, targets)
    expected = (f0 - r_rows[:, sysm.dom_idx] @ sol.u_dom
                + v_rows @ sol.psi)
    assert_allclose(sol.evaluate(targets), expected, rtol=1e-14, atol=0.0)


def test_evaluation_just_outside_the_support_has_the_far_rule_accuracy(
        bump_solution):
    # past the radius where the remainder's factors fall below 1e-8 (about
    # 4.78 here) the rows are far-only: no windowed rows spoil the annulus
    # just outside the coefficient support (4.54)
    case, _, sol = bump_solution
    th = 2 * np.pi * (np.arange(16) + 0.3) / 16
    for r in (5.0, 5.37):
        targets = r * np.stack([np.cos(th), np.sin(th)], axis=1)
        err = np.abs(sol.evaluate(targets) - case.exact_u(targets)) * r
        assert err.max() <= 5e-5


def test_evaluation_at_no_targets_is_empty(bump_solution):
    assert bump_solution[2].evaluate(np.zeros((0, 2))).shape == (0,)


def test_each_target_builds_its_near_field_once(monkeypatch):
    case = manufactured_case("bump-dipole")
    grid = boundary_grid(case.curve, 8)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 8, m_theta=8)
    builds = []
    build = laplace._cell_rule

    def counted(*args, **kwargs):
        builds.extend(args[2])  # the targets of one rule build
        return build(*args, **kwargs)

    monkeypatch.setattr(laplace, "_cell_rule", counted)
    sysm = assemble_system(case.problem(), grid, mesh)
    assert sysm.n_dom > 0
    assert len(builds) == sysm.n_dom + sysm.n_bnd
    del builds[:]
    solve(sysm).evaluate(np.array([[1.5, 0.2], [-3.0, 1.0], [0.5, 6.0]]))
    assert len(builds) == 3


def test_a_higher_gauss_order_barely_moves_the_bump_dipole_rows(monkeypatch):
    # the near rule has converged: two more Gauss points a side in the
    # cells and in the Duffy pieces move no entry of the
    # bump-dipole N=32 system by more than 1e-5 of its largest
    case = manufactured_case("bump-dipole")
    grid = boundary_grid(case.curve, 32)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 32, m_theta=32)
    base = assemble_system(case.problem(), grid, mesh).matrix
    monkeypatch.setattr(laplace, "_ORDER", laplace._ORDER + 2)
    raised = assemble_system(case.problem(), grid, mesh).matrix
    assert np.abs(raised - base).max() <= 1e-5 * np.abs(base).max()


@pytest.mark.parametrize("name", ["laplace-dipole", "bump-dipole"])
def test_boundary_coefficient_is_evaluated_once_per_grid(name):
    case = manufactured_case(name)
    grid = boundary_grid(case.curve, 16)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 16, m_theta=16)
    at_nodes = []

    def counted(x):
        at_nodes.append(np.array_equal(x, grid.points))
        return case.field.derivatives(x)

    field = CoefficientField(counted, case.field.c1, case.field.c2,
                             case.field.support_radius)
    problem = DirichletProblem(case.curve, field, case.source, case.dirichlet)
    sol = solve(assemble_system(problem, grid, mesh))
    # a close-evaluated target and a trapezoid-rule one
    targets = np.array([[1.01 * np.cos(0.7), 1.01 * np.sin(0.7)], [8.0, 1.0]])
    first = sol.evaluate(targets)
    for _ in range(2):
        assert np.array_equal(sol.evaluate(targets), first)
    # assembly and the three evaluations share one evaluation at the nodes
    assert sum(at_nodes) == 1


@pytest.mark.parametrize("name", ["laplace-dipole", "bump-dipole"])
def test_representation_makes_one_offboundary_pass(name, monkeypatch):
    case = manufactured_case(name)
    grid = boundary_grid(case.curve, 16)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 16, m_theta=16)
    sysm = assemble_system(case.problem(), grid, mesh)
    passes = []
    for part in ("_layer_weights", "_close_rows"):
        def counted(*args, _part=part, _fn=getattr(laplace, part)):
            passes.append(_part)
            return _fn(*args)
        monkeypatch.setattr(laplace, part, counted)
    # a close-evaluated target and a trapezoid-rule one: both halves
    targets = np.array([[1.01 * np.cos(0.7), 1.01 * np.sin(0.7)], [8.0, 1.0]])
    solve(sysm).evaluate(targets)
    assert sorted(passes) == ["_close_rows", "_layer_weights"]
