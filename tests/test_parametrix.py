import numpy as np
import pytest
from numpy.testing import assert_allclose

from bdie2d import laplace, parametrix
from bdie2d.coefficient import make_coefficient
from bdie2d.errors import SingularEvaluationError
from bdie2d.geometry import boundary_grid, domain_mesh, make_curve
from bdie2d.system import assemble_system
from bdie2d.verification import manufactured_case


@pytest.fixture(scope="module")
def circle64():
    return boundary_grid(make_curve("circle"), 64)


@pytest.fixture(scope="module")
def bump():
    return make_coefficient("gaussian_bump", beta=1.0, sigma=1.0)


@pytest.fixture(scope="module")
def const():
    return make_coefficient("constant", value=1.0)


def test_boundary_operators_reduce_to_laplace_for_unit_coefficient(
        circle64, const):
    assert_allclose(parametrix.single_layer_boundary(circle64, const),
                    laplace.single_layer_matrix(circle64), atol=1e-15)
    assert_allclose(parametrix.double_layer_boundary(circle64, const),
                    laplace.double_layer_matrix(circle64), atol=1e-15)


def test_single_layer_divides_density_by_coefficient(circle64, bump):
    a_s, _ = parametrix._boundary_data(bump, circle64)
    v_delta = laplace.single_layer_matrix(circle64)
    assert_allclose(parametrix.single_layer_boundary(circle64, bump),
                    v_delta / a_s[None, :], atol=1e-15)


def test_offboundary_layers_reduce_to_laplace(circle64, const):
    targets = np.array([[2.0, 0.0], [0.3, 0.1]])
    dens = np.cos(circle64.t)
    single, double = laplace.layer_rows_offboundary(circle64, targets)
    v_rows, w_rows = parametrix.layer_rows_offboundary(circle64, const,
                                                       targets)
    assert_allclose(v_rows @ dens, single @ dens, atol=1e-14)
    assert_allclose(w_rows @ dens, double @ dens, atol=1e-14)


def test_boundary_data_memo_is_kept_per_field():
    # a near and a far target; the second field's rows on the grid the
    # first one used are those of a fresh grid
    circle = make_curve("circle")
    targets = np.array([[1.001, 0.02], [3.0, 1.0]])
    shared = boundary_grid(circle, 64)
    for field in (make_coefficient("gaussian_bump", beta=1.0, sigma=1.0),
                  make_coefficient("constant", value=2.0)):
        fresh = boundary_grid(circle, 64)
        for got, want in zip(
                parametrix.layer_rows_offboundary(shared, field, targets),
                parametrix.layer_rows_offboundary(fresh, field, targets)):
            assert np.array_equal(got, want)
        assert np.array_equal(parametrix.single_layer_boundary(shared, field),
                              parametrix.single_layer_boundary(fresh, field))
        assert not any(data.flags.writeable
                       for data in parametrix._boundary_data(field, shared))


def test_offboundary_rows_match_application(circle64, bump):
    # the rows applied to a density give V rho = V_L(rho / a) and
    # W rho = W_L rho - V_L(rho d(ln a)/dn)
    targets = np.array([[1.9, 0.4], [0.2, -0.1]])
    dens = np.cos(circle64.t) + 0.5
    a, dln = parametrix._boundary_data(bump, circle64)
    single, double = laplace.layer_rows_offboundary(circle64, targets)
    v_rows, w_rows = parametrix.layer_rows_offboundary(circle64, bump, targets)
    assert_allclose(v_rows @ dens, single @ (dens / a), atol=1e-10)
    assert_allclose(w_rows @ dens, double @ dens - single @ (dens * dln),
                    atol=1e-10)


@pytest.fixture(scope="module")
def bump_mesh():
    return domain_mesh(make_curve("circle"), 6.0, 4 * np.pi / 32, m_theta=32)


def test_volume_potential_is_newtonian_of_scaled_density(bump_mesh, bump):
    mesh = bump_mesh

    def rho_fn(p):
        return np.exp(-0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))

    def scaled(p):
        a, _, _ = bump.eval(p)
        return rho_fn(p) / a

    targets = np.array([[2.0, 0.5], [1.3, -0.4]])
    vol = parametrix.volume_potential(mesh, bump, targets, rho_fn=rho_fn)
    newt = laplace.newtonian_potential(mesh, targets, g_fn=scaled)
    assert_allclose(vol, newt, atol=1e-12)


def test_zero_density_gives_the_remainder_rows_alone(bump_mesh, bump):
    targets = np.array([[2.0, 0.5], [1.3, -0.4], [7.5, 1.0]])
    columns = np.arange(0, bump_mesh.n_nodes, 5)
    rows, values = parametrix.volume_terms(bump_mesh, bump, targets, columns,
                                           rho_fn=None)
    zero_rows, zero_values = parametrix.volume_terms(
        bump_mesh, bump, targets, columns, rho_fn=lambda p: np.zeros(len(p)))
    assert np.array_equal(rows, zero_rows)
    assert np.array_equal(values, zero_values)
    assert np.array_equal(
        parametrix.volume_potential(bump_mesh, bump, targets, rho_fn=None),
        np.zeros(3))


def test_volume_terms_evaluate_the_coefficient_once_per_point(bump_mesh,
                                                              bump,
                                                              monkeypatch):
    points = {"eval": 0, "rho": 0}
    eval_fn = bump.eval

    def counted_eval(x):
        points["eval"] += len(np.atleast_2d(x))
        return eval_fn(x)

    def rho_fn(p):
        points["rho"] += len(p)
        return np.exp(-0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))

    targets = np.array([[2.0, 0.5], [1.3, -0.4]])
    columns = np.arange(bump_mesh.n_nodes)
    monkeypatch.setattr(bump, "eval", counted_eval)
    rows, values = parametrix.volume_terms(bump_mesh, bump, targets, columns,
                                           rho_fn=rho_fn)
    assert points["eval"] == points["rho"] > 0
    monkeypatch.undo()
    assert np.array_equal(rows, parametrix.remainder_rows(bump_mesh, bump,
                                                          targets))
    assert np.array_equal(values, parametrix.volume_potential(
        bump_mesh, bump, targets, rho_fn=rho_fn))


@pytest.mark.parametrize("curve", [make_curve("circle"),
                                   make_curve("star", alpha=0.2, k=5)],
                         ids=["circle", "star"])
def test_volume_terms_match_the_kernels_evaluated_apart(curve, bump):
    mesh = domain_mesh(curve, 6.0, 4 * np.pi / 16, m_theta=16)
    grid = boundary_grid(curve, 16)
    # mesh nodes, boundary nodes, off-node points and one target beyond
    # the support, whose rows skip the near field
    targets = np.concatenate([mesh.points[::37], grid.points[::5],
                              [[2.0, 0.5], [-1.1, 1.7], [0.3, -3.3],
                               [bump.support_radius + 1.4, 0.0]]])
    columns = np.arange(0, mesh.n_nodes, 3)

    def rho_fn(p):
        return p[:, 1] * np.exp(-0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))

    near = np.hypot(targets[:, 0], targets[:, 1]) <= bump.support_radius + 1.0
    assert not near.all()
    ref_rows = parametrix.remainder_rows(mesh, bump, targets)
    ref_values = parametrix.volume_potential(mesh, bump, targets,
                                             rho_fn=rho_fn)
    rows, values = parametrix.volume_terms(mesh, bump, targets, columns,
                                           rho_fn=rho_fn)
    assert np.abs(rows - ref_rows[:, columns]).max() \
        <= 1e-13 * np.abs(ref_rows).max()
    assert np.abs(values - ref_values).max() <= 1e-13 * np.abs(ref_values).max()


@pytest.mark.parametrize("curve", [make_curve("circle"),
                                   make_curve("star", alpha=0.2, k=5)],
                         ids=["circle", "star"])
def test_a_ring_of_targets_shares_its_near_pieces(curve, bump, monkeypatch):
    # the targets of one pass share their Gauss pieces: the factors see at
    # most half the points that the pieces of the (target, piece) pairs
    # hold, and the rows and values are those of one target at a time
    mesh = domain_mesh(curve, 6.0, 4 * np.pi / 32, m_theta=32)
    targets = mesh.points[5 * mesh.m_theta:6 * mesh.m_theta]
    sizes = [rule[2].size for rule in laplace._reference_rules(laplace._ORDER)]
    points, held = [], []
    rows_of, blocks_of = laplace.domain_rows, laplace._blocks

    def counted_rows(mesh, targets, factors, **kwargs):
        def counted(x):
            points.append(len(x))
            return factors(x)
        return rows_of(mesh, targets, counted, **kwargs)

    def counted_blocks(*args):
        for block in blocks_of(*args):
            held.append(sum(k.target.size * n
                            for k, n in zip(block.near, sizes)))
            yield block

    def rho_fn(p):
        return p[:, 1] * np.exp(-0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))

    monkeypatch.setattr(laplace, "domain_rows", counted_rows)
    monkeypatch.setattr(laplace, "_blocks", counted_blocks)
    rows = parametrix.remainder_rows(mesh, bump, targets)
    values = parametrix.volume_potential(mesh, bump, targets, rho_fn=rho_fn)
    # two passes, each with one call at the mesh nodes
    assert sum(points) - 2 * mesh.n_nodes <= 0.5 * sum(held)
    one = [(parametrix.remainder_rows(mesh, bump, y[None])[0],
            parametrix.volume_potential(mesh, bump, y[None], rho_fn=rho_fn)[0])
           for y in targets]
    ref_rows, ref_values = np.array([r for r, _ in one]), np.array(
        [v for _, v in one])
    assert np.abs(rows - ref_rows).max() <= 1e-12 * np.abs(ref_rows).max()
    assert np.abs(values - ref_values).max() \
        <= 1e-12 * np.abs(ref_values).max()


def test_constant_coefficient_double_layer_is_the_laplace_one(circle64, const,
                                                              monkeypatch):
    targets = np.array([[2.0, 0.5], [0.4, -1.3]])
    calls = []
    layer = laplace.layer_rows_offboundary

    def counted(*args, **kwargs):
        calls.append(args[1])
        return layer(*args, **kwargs)

    monkeypatch.setattr(laplace, "layer_rows_offboundary", counted)
    got = parametrix.layer_rows_offboundary(circle64, const, targets)[1]
    assert len(calls) == 1
    assert np.array_equal(got, layer(circle64, targets)[1])


def test_constant_coefficient_boundary_double_layer_is_the_laplace_one(
        circle64, const):
    assert np.array_equal(parametrix.double_layer_boundary(circle64, const),
                          laplace.double_layer_matrix(circle64))


def test_in_place_scalings_alias_nothing(circle64, bump):
    slm = laplace.single_layer_matrix(circle64)
    first = parametrix.single_layer_boundary(circle64, bump)
    assert np.array_equal(parametrix.single_layer_boundary(circle64, bump),
                          first)
    assert np.array_equal(laplace.single_layer_matrix(circle64), slm)
    dln = parametrix._boundary_data(bump, circle64)[1]
    assert np.array_equal(
        parametrix.double_layer_boundary(circle64, bump),
        laplace.double_layer_matrix(circle64)
        - laplace.single_layer_matrix(circle64) * dln[None, :])
    assert np.array_equal(laplace.single_layer_matrix(circle64), slm)


@pytest.mark.parametrize("name,calls", [("laplace-dipole", 1),
                                        ("bump-dipole", 2)])
def test_single_layer_matrices_per_assembly(name, calls, monkeypatch):
    case = manufactured_case(name)
    grid = boundary_grid(case.curve, 16)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 16, m_theta=16)
    made = []
    matrix = laplace.single_layer_matrix

    def counted(g):
        made.append(g.n)
        return matrix(g)

    monkeypatch.setattr(laplace, "single_layer_matrix", counted)
    assemble_system(case.problem(), grid, mesh)
    assert made == [16] * calls


def test_remainder_kernel_closed_form(bump):
    x = np.array([[0.7, 0.2]])
    y = np.array([1.5, -0.3])
    gl = bump.grad_log(x)[0]
    ll = bump.laplacian_log(x)[0]
    z = x[0] - y
    r = np.hypot(*z)
    expected = (-ll * np.log(r) / (2 * np.pi)
                - (gl @ z) / (2 * np.pi * r ** 2))
    factors = parametrix._remainder_factors(bump, x)[0]
    got = sum(f * k for f, k in zip(factors, laplace._kernels(x, y)))
    assert_allclose(got[0], expected, rtol=1e-13)


def test_remainder_kernel_coincident_point(bump_mesh, bump):
    # a target on a mesh node whose rows skip the near field meets the
    # node itself in the far part
    mesh = bump_mesh
    r = np.hypot(mesh.points[:, 0], mesh.points[:, 1])

    def rows_at(node):
        return laplace.domain_rows(
            mesh, mesh.points[node][None],
            lambda x: (parametrix._remainder_factors(bump, x)[0], None),
            near_targets=[False])[0]

    # outside the support the kernel factors vanish: safe zero
    outside = r.argmax()
    assert r[outside] > bump.support_radius + 1.0
    row = rows_at(outside)[0]
    assert np.isfinite(row).all() and row[outside] == 0.0
    # inside the support the kernel is singular
    with pytest.raises(SingularEvaluationError):
        rows_at(np.nonzero(r < 2.0)[0][0])


def test_remainder_rows_vanish_for_constant_coefficient(bump_mesh, const):
    rows = parametrix.remainder_rows(bump_mesh, const,
                                     np.array([[1.5, 0.0], [2.5, 1.0]]))
    assert np.abs(rows).max() == 0.0


def test_remainder_split_additivity_and_cutoff(bump_mesh, bump):
    mesh = bump_mesh
    targets = mesh.points[::7]
    rows = parametrix.remainder_rows(mesh, bump, targets)
    core, tail, chi = parametrix.remainder_split(mesh, rows, 3.0)
    assert_allclose(core + tail, rows, atol=1e-16)
    r = np.hypot(mesh.points[:, 0], mesh.points[:, 1])
    assert_allclose(chi[r <= 3.0], 1.0)
    assert_allclose(chi[r >= 6.0 - 1e-9], 0.0, atol=1e-12)
    assert np.all((chi >= 0.0) & (chi <= 1.0))


def test_remainder_apply_matches_rows(bump_mesh, bump):
    mesh = bump_mesh

    def rho_fn(p):
        return p[:, 0] / (p[:, 0] ** 2 + p[:, 1] ** 2)

    targets = np.array([[1.8, 0.3], [2.6, -1.1]])
    via_rows = parametrix.remainder_rows(mesh, bump, targets) \
        @ rho_fn(mesh.points)
    direct = parametrix.remainder_apply(mesh, bump, targets, rho_fn=rho_fn)
    assert_allclose(via_rows, direct, atol=2e-4)


def test_conormal_derivative(bump):
    # nodes 0 and 2 of the unit circle's grid of 8 are (1, 0) and (0, 1),
    # their normals (-1, 0) and (0, -1), to rounding
    grid = boundary_grid(make_curve("circle"), 8)
    grads = np.zeros((8, 2))
    grads[[0, 2]] = [[2.0, 1.0], [0.5, -0.3]]
    a, _, _ = bump.eval(np.array([[1.0, 0.0], [0.0, 1.0]]))
    expected = a * np.sum(np.array([[-1.0, 0.0], [0.0, -1.0]]) * grads[[0, 2]],
                          axis=1)
    assert_allclose(parametrix.conormal_derivative(bump, grid, grads)[[0, 2]],
                    expected)
