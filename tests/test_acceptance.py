"""Acceptance suite: one test per shipped acceptance criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and asserts the stated tolerance.
"""

import dataclasses
import subprocess
import sys
import time

import numpy as np
import pytest
import yaml

from bdie2d import parametrix, verification as vf
from bdie2d.coefficient import CoefficientField, make_coefficient
from bdie2d.geometry import boundary_grid, domain_mesh, make_curve
from bdie2d.system import DirichletProblem, assemble_system, solve


def _report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared heavy computations

@pytest.fixture(scope="module")
def bump_convergence():
    case = vf.manufactured_case("bump-dipole")
    t0 = time.perf_counter()
    rows = vf.convergence_study(case, [32, 64, 128])
    return case, rows, time.perf_counter() - t0


def test_criterion_01_constant_coefficient_reduction():
    t0 = time.perf_counter()
    case = vf.manufactured_case("laplace-dipole")
    # a = 1 with no declared support: the constant-coefficient problem
    # through the variable-coefficient rows, every mesh node a domain row
    unit = CoefficientField(lambda x: (np.ones(len(x)), np.zeros_like(x),
                                       np.zeros(len(x))), 1.0, 1.0)
    grid = boundary_grid(case.curve, 128)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 32, m_theta=32)
    sysm = assemble_system(dataclasses.replace(case.problem(), field=unit),
                           grid, mesh)
    nd = sysm.n_dom
    r_dd = np.abs(sysm.matrix[:nd, :nd] - np.eye(nd)).max()
    r_bd = np.abs(sysm.matrix[nd:nd + grid.n, :nd]).max()
    sol = solve(sysm)
    # the boundary-integral-equation answer for the dipole data is cos(t)
    psi_err = np.abs(sol.psi - np.cos(grid.t)).max()
    elapsed = time.perf_counter() - t0
    ok = r_dd <= 1e-12 and r_bd <= 1e-12 and psi_err <= 1e-10 \
        and elapsed <= 10.0
    _report(1, ok, f"|R_dd|={r_dd:.1e} |R_bd|={r_bd:.1e} "
                   f"psi_err={psi_err:.1e} time={elapsed:.1f}s")


def test_criterion_02_kernel_fourier_oracles():
    from bdie2d import laplace

    grid = boundary_grid(make_curve("circle"), 128)
    v = laplace.single_layer_matrix(grid)
    w = laplace.double_layer_matrix(grid)
    el = laplace.hypersingular_matrix(grid)
    worst = 0.0
    for n in range(1, 9):
        mode = np.cos(n * grid.t)
        worst = max(worst,
                    float(np.abs(v @ mode - mode / (2 * n)).max()),
                    float(np.abs(w @ mode).max()),
                    float(np.abs(el @ mode - 0.5 * n * mode).max()))
    _report(2, worst <= 1e-10, f"max mode error {worst:.1e} (n=1..8, N=128)")


def test_criterion_03_gauss_identities():
    from bdie2d import laplace

    worst = 0.0
    for name, params, inner, outer in (
            ("circle", {}, (0.2, 0.1), (2.5, 0.5)),
            ("ellipse", {"a": 2.0, "b": 1.0}, (0.4, 0.2), (3.5, 1.0))):
        grid = boundary_grid(make_curve(name, **params), 128)
        ones = np.ones(grid.n)
        v_in, v_out = laplace.layer_rows_offboundary(
            grid, np.array([inner, outer]))[1] @ ones
        v_on = laplace.double_layer_matrix(grid) @ ones
        worst = max(worst, abs(v_in - 1.0), abs(v_out),
                    float(np.abs(v_on - 0.5).max()))
    _report(3, worst <= 1e-10, f"max identity error {worst:.1e} "
                               f"(circle+ellipse, N=128)")


def test_criterion_04_jump_relations():
    grid = boundary_grid(make_curve("circle"), 128)
    field = make_coefficient("gaussian_bump", beta=1.0, sigma=1.0)
    worst = 0.0
    for fn in (lambda t: np.ones_like(t), np.cos, lambda t: np.sin(2 * t)):
        res = vf.jump_relation_check(grid, field, fn)
        worst = max(worst, max(res.values()))
    _report(4, worst <= 1e-6, f"max jump deviation {worst:.1e} "
                              f"(densities 1, cos, sin2; N=128)")


def test_criterion_05_exterior_laplace_solve():
    t0 = time.perf_counter()
    case = vf.manufactured_case("laplace-dipole")
    grid = boundary_grid(case.curve, 128)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 128, m_theta=128)
    sol = solve(assemble_system(case.problem(), grid, mesh))
    psi_ex = np.cos(grid.t)
    rel = np.sqrt(np.sum(grid.weights * (sol.psi - psi_ex) ** 2)
                  / np.sum(grid.weights * psi_ex ** 2))
    u20 = sol.evaluate(np.array([[2.0, 0.0]]))[0]
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-6 and abs(u20 - 0.5) <= 1e-6 and elapsed <= 30.0
    _report(5, ok, f"psi rel err {rel:.1e}, u(2,0)={u20:.9f}, "
                   f"time={elapsed:.1f}s")


def test_criterion_06_variable_coefficient_convergence(bump_convergence):
    _, rows, elapsed = bump_convergence
    err_u = [r["err_u"] for r in rows]
    err_psi = [r["err_psi"] for r in rows]
    orders_u = [np.log2(a / b) for a, b in zip(err_u, err_u[1:])]
    orders_psi = [np.log2(a / b) for a, b in zip(err_psi, err_psi[1:])]
    ok = all(o >= 2.0 for o in orders_u) \
        and all(o >= 2.0 for o in orders_psi) \
        and err_psi[-1] <= 1e-3 and elapsed <= 300.0
    _report(6, ok, f"orders u={['%.2f' % o for o in orders_u]} "
                   f"psi={['%.2f' % o for o in orders_psi]}, "
                   f"finest psi err {err_psi[-1]:.1e}, time={elapsed:.0f}s")


def test_bump_dipole_err_psi_at_n64_is_below_1e6(bump_convergence):
    _, rows, _ = bump_convergence
    assert rows[1]["N"] == 64 and rows[1]["err_psi"] <= 1e-6, rows[1]


def test_criterion_07_third_green_identity():
    probes = vf.default_probes(10)
    ok = True
    details = []
    for name in ("laplace-dipole", "bump-dipole"):
        case = vf.manufactured_case(name)
        res = [vf.green_identity_residuals(
                   case, probes, boundary_grid(case.curve, n),
                   domain_mesh(case.curve, case.r_trunc, 4 * np.pi / n,
                               m_theta=n))["max_interior_residual"]
               for n in (32, 64, 128)]
        # monotone decrease, with a floor once rounding error dominates
        monotone = all(b <= a or a <= 1e-12 for a, b in zip(res, res[1:]))
        ok = ok and monotone and res[-1] <= 1e-5
        details.append(f"{name}: " + "->".join(f"{r:.1e}" for r in res))
    _report(7, ok, "; ".join(details))


def test_criterion_08_mean_zero_machinery(tmp_path, bump_convergence):
    case, _, _ = bump_convergence
    grid = boundary_grid(case.curve, 32)
    mesh = domain_mesh(case.curve, case.r_trunc, 4 * np.pi / 32, m_theta=32)
    sol = solve(assemble_system(case.problem(), grid, mesh))
    mean = abs(np.sum(grid.weights * sol.psi))
    norm = np.sqrt(np.sum(grid.weights * sol.psi ** 2))
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump({
        "discretization": {"n_boundary": 32},
        "source_override": {"kind": "gaussian_blob"},
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "bdie2d.cli", "solve", "--config", str(cfg),
         "--out", str(tmp_path / "out")], capture_output=True)
    ok = mean <= 1e-10 * norm and proc.returncode == 3
    _report(8, ok, f"|<psi,1>|/|psi|={mean / norm:.1e}, "
                   f"nonzero-mean source exit status {proc.returncode}")


def test_criterion_09_remainder_split_decay():
    field = make_coefficient("gaussian_bump", beta=1.0, sigma=1.0)
    mesh = domain_mesh(make_curve("circle"), 6.0, 4 * np.pi / 64, m_theta=64)
    rows = vf.split_decay_study(
        field, mesh, [2.0, 3.0, 4.0], seed=0,
        rows=parametrix.remainder_rows(mesh, field, mesh.points))
    norms = [r["norm_tail"] for r in rows]
    ok = norms[0] > norms[1] > norms[2] \
        and all(r["bound_ok"] for r in rows) \
        and all(r["additivity_error"] <= 1e-14 for r in rows)
    _report(9, ok, "tail norms " + "->".join(f"{v:.1e}" for v in norms)
            + f", fitted C={rows[0]['fitted_C']:.2e}, "
              f"max additivity {max(r['additivity_error'] for r in rows):.1e}")


def test_criterion_10_conditioning_stability():
    curve = make_curve("circle")
    field = make_coefficient("compact_bump", beta=0.6, sigma=0.5,
                             center=(1.5, 0.0))
    mesh = domain_mesh(curve, 3.0, 4 * np.pi / 64, m_theta=64)

    def factory(n):
        grid = boundary_grid(curve, n)
        problem = DirichletProblem(curve, field,
                                   lambda p: np.zeros(p.shape[0]), np.cos)
        return problem, grid, mesh

    rows = vf.conditioning_study(factory, [32, 64, 128, 256])
    ratios = [r["cond_ratio"] for r in rows[1:]]
    sig = [r["sigma_min_V"] for r in rows]
    spread = (max(sig) - min(sig)) / max(sig)
    ok = all(r <= 2.0 for r in ratios) and spread <= 0.10
    _report(10, ok, f"cond ratios {['%.2f' % r for r in ratios]}, "
                    f"sigma_min spread {spread:.1%}")
