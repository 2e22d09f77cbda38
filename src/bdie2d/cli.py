"""Batch front end for solves and verification studies.

Commands: solve, verify, convergence, conditioning, selftest.  Each run
reads one YAML config (defaults shipped in ``config_schema.yaml``),
writes a JSON summary embedding the fully resolved config, plus CSV
tables where the command produces one.

Exit statuses: 0 success, 1 verification/selftest failure, 2 config or
geometry error, 3 compatibility (mean-zero) rejection, 4 singular system.
"""

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time

import yaml

from .errors import (CoefficientError, CompatibilityError, ConfigError,
                     DiscretizationError, GeometryError, SolverSingularError,
                     UnknownCatalogError)

# numpy loads in the commands: main sets BLAS threads from --threads first

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_COMPAT = 3
EXIT_SINGULAR = 4


# ---------------------------------------------------------------------------
# configuration

def default_config():
    """Defaults parsed from the schema file shipped with the package."""
    from importlib import resources

    text = resources.files("bdie2d").joinpath("config_schema.yaml").read_text()
    return yaml.safe_load(text)


def _merge(defaults, override, path=""):
    if not isinstance(override, dict):
        raise ConfigError(f"config section {path or '<root>'} must be a mapping")
    merged = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path}{key}")
        if isinstance(defaults[key], dict):
            merged[key] = _merge(defaults[key], value, path=f"{path}{key}.")
        else:
            merged[key] = value
    return merged


def load_config(path):
    """Resolve the user config file (or None) against the defaults."""
    defaults = default_config()
    if path is None:
        return defaults
    try:
        with open(path) as fh:
            user = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from None
    if user is None:
        user = {}
    return _merge(defaults, user)


def _value(cfg, key, convert, default=None):
    """The config value at the dotted ``key`` through ``convert``, or
    ``default`` for a null value when one is given; a value that does not
    convert raises ConfigError naming the key."""
    value = functools.reduce(lambda d, k: d[k], key.split("."), cfg)
    try:
        return default if value is None and default is not None \
            else convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key}: {value!r} is invalid "
                          f"({exc})") from None


def _integer(value):
    """int(value); a fractional float raises rather than truncating."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def _each(convert):
    return lambda values: [convert(v) for v in values]


def _checked(convert, ok, why):
    """``convert``, then reject a value for which ``ok`` is false."""
    def checked(value):
        value = convert(value)
        if not ok(value):
            raise ValueError(why)
        return value
    return checked


# ---------------------------------------------------------------------------
# report writing

def _sanitize(obj):
    """Make a config/report tree JSON-safe (numpy scalars, NaN -> null)."""
    import numpy as np

    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return val if math.isfinite(val) else None
    return obj


def write_json(out_dir, name, payload):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(_sanitize(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_csv(out_dir, name, columns, rows):
    """Write a table with deterministic float formatting."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            out = []
            for col in columns:
                val = row[col]
                if isinstance(val, float):
                    out.append(f"{val:.16e}")
                else:
                    out.append(str(val))
            writer.writerow(out)
    return path


# ---------------------------------------------------------------------------
# problem construction from config

def _problem_from_config(cfg, case):
    import numpy as np

    from .system import DirichletProblem

    section = cfg["source_override"]
    if section["kind"] is None:
        return case.problem(), False
    if section["kind"] == "gaussian_blob":
        amp = _value(cfg, "source_override.amplitude", float)
        center = np.array(_value(cfg, "source_override.center", _each(float)))
        sigma = _value(cfg, "source_override.sigma", float)
        if not (np.isfinite(amp) and 0.0 < sigma < np.inf
                and center.shape == (2,) and np.isfinite(center).all()):
            raise ConfigError("gaussian_blob needs a finite amplitude, a "
                              "finite sigma > 0 and a finite 2-d center")

        def source(p):
            d = p - center
            return amp * np.exp(-(d[:, 0] ** 2 + d[:, 1] ** 2) / sigma ** 2)

        problem = DirichletProblem(case.curve, case.field, source,
                                   case.dirichlet)
        return problem, True
    raise UnknownCatalogError(f"unknown source override {section['kind']!r}")


def _discretize(cfg, case):
    import numpy as np

    from .geometry import boundary_grid, domain_mesh

    n = _value(cfg, "discretization.n_boundary", _integer)
    grid = boundary_grid(case.curve, n)  # checks n before 4 pi / n
    h = _value(cfg, "discretization.h", float, 4.0 * np.pi / n)
    m_theta = _value(cfg, "discretization.m_theta", _integer, n)
    r_trunc = _value(cfg, "discretization.r_trunc", float, case.r_trunc)
    mesh = domain_mesh(case.curve, r_trunc, h, m_theta=m_theta)
    return grid, mesh


# ---------------------------------------------------------------------------
# commands

def cmd_solve(cfg, out_dir):
    import numpy as np

    from . import system as bdsys
    from . import verification

    from .coefficient import check_conditions

    case = verification.manufactured_case(cfg["case"])
    problem, overridden = _problem_from_config(cfg, case)
    grid, mesh = _discretize(cfg, case)
    conditions = check_conditions(problem.field, mesh)
    if not conditions.passed:
        print("error[ConditionCheckFailure]: coefficient conditions not met",
              file=sys.stderr)
        return EXIT_COMPAT, {
            "condition_check": conditions.as_dict(),
            "error": {"category": "ConditionCheckFailure",
                      "message": "coefficient growth/decay conditions "
                                 "not met on the sampled mesh"},
        }
    timings = {}
    t0 = time.perf_counter()
    sysm = bdsys.assemble_system(
        problem, grid, mesh,
        compatibility_tol=_value(cfg, "tolerances.compatibility", float))
    timings["assembly_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    sol = bdsys.solve(sysm)
    timings["solve_s"] = time.perf_counter() - t0
    results = {
        "n_dom": sysm.n_dom,
        "n_bnd": sysm.n_bnd,
        "iterations": sol.iterations,
        "linear_residual": sol.residual,
        "multiplier": sol.multiplier,
        "psi_mean": float(np.sum(grid.weights * sol.psi)),
    }
    if not overridden:
        results.update(verification.equivalence_check(case, sol))
    write_csv(out_dir, "psi.csv", ["t", "psi"],
              [{"t": float(t), "psi": float(p)}
               for t, p in zip(grid.t, sol.psi)])
    return EXIT_OK, {"condition_check": conditions.as_dict(),
                     "timings": timings, "results": results}


def cmd_verify(cfg, out_dir):
    from . import parametrix, verification

    case = verification.manufactured_case(cfg["case"])
    seed = _value(cfg, "seed", _checked(_integer, lambda s: s >= 0,
                                        "negative"))
    n_probes = _value(cfg, "study.n_probes",
                      _checked(_integer, lambda n: n >= 1, "below 1"))
    radii = _value(cfg, "study.radii", _checked(
        _each(float), lambda r: all(b < c for b, c in zip(r, r[1:])),
        "not strictly increasing"))
    grid, mesh = _discretize(cfg, case)
    timings = {}
    t0 = time.perf_counter()
    report = {"case": case.name, "consistency": case.validate()}

    probes = verification.default_probes(n_probes, seed=seed)
    green = verification.green_identity_residuals(case, probes, grid, mesh)
    report["green_identity"] = {
        "max_interior_residual": green["max_interior_residual"],
        "max_trace_residual": green["max_trace_residual"],
        "flux_balance": green["flux_balance"],
    }
    report["second_green_identity"] = verification.second_green_identity(
        case, grid, mesh)
    timings["green_identities_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    jumps = verification.jump_relation_check(grid, case.field)
    report["jump_relations"] = jumps
    timings["jump_relations_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rows = parametrix.remainder_rows(mesh, case.field, mesh.points)
    report["remainder_norm"] = verification.remainder_norm(
        mesh, rows=rows, seed=seed)
    if not case.field.is_constant:
        report["remainder_split"] = verification.split_decay_study(
            case.field, mesh, radii, seed=seed, rows=rows)
    timings["remainder_s"] = time.perf_counter() - t0

    max_jump = max(max(j.values()) for j in jumps.values())
    report["verdicts"] = {
        "jump_relations_ok": max_jump <= 1e-6,
        "remainder_vanishes_for_constant":
            (not case.field.is_constant) or report["remainder_norm"] <= 1e-12,
        "split_decay_monotone": case.field.is_constant or all(
            b["norm_tail"] < a["norm_tail"]
            for a, b in zip(report["remainder_split"],
                            report["remainder_split"][1:])),
    }
    status = EXIT_OK if all(report["verdicts"].values()) else EXIT_FAIL
    return status, {"timings": timings, "results": report}


def cmd_convergence(cfg, out_dir):
    from . import verification

    case = verification.manufactured_case(cfg["case"])
    n_values = _value(cfg, "study.n_values",
                      _checked(_each(_integer), len, "empty"))
    t0 = time.perf_counter()
    rows = verification.convergence_study(case, n_values)
    elapsed = time.perf_counter() - t0
    write_csv(out_dir, "convergence.csv",
              ["N", "h", "err_u", "err_psi", "order"], rows)
    orders = [r["order"] for r in rows[1:]]
    return EXIT_OK, {"timings": {"study_s": elapsed},
                     "results": {"rows": rows,
                                 "min_order": min(orders) if orders else None}}


def cmd_conditioning(cfg, out_dir):
    import numpy as np

    from . import verification
    from .coefficient import make_coefficient
    from .geometry import domain_mesh, make_curve

    kind = cfg["conditioning"]["coefficient"]["kind"]
    # a constant coefficient takes none of the bumps' parameters
    field = make_coefficient(kind, **({} if kind == "constant" else {
        k: _value(cfg, "conditioning.coefficient." + k, convert) for k, convert
        in (("beta", float), ("sigma", float), ("center", _each(float)))}))
    mesh_n = _value(cfg, "conditioning.mesh_n", _integer)
    # the spacing stays finite for a mesh_n below 1, which domain_mesh rejects
    mesh = domain_mesh(make_curve("circle"),
                       _value(cfg, "conditioning.r_trunc", float),
                       4.0 * np.pi / max(mesh_n, 1), m_theta=mesh_n)
    t0 = time.perf_counter()
    rows = verification.conditioning_study(
        field, mesh, _value(cfg, "conditioning.n_values",
                            _checked(_each(_integer), len, "empty")))
    elapsed = time.perf_counter() - t0
    write_csv(out_dir, "conditioning.csv",
              ["N", "cond_M", "sigma_min_V"], rows)
    sig = [r["sigma_min_V"] for r in rows]
    ratios = [r["cond_ratio"] for r in rows[1:]]
    return EXIT_OK, {"timings": {"study_s": elapsed}, "results": {
        "rows": rows,
        "max_cond_ratio": max(ratios) if ratios else None,
        "sigma_min_spread": (max(sig) - min(sig)) / max(sig),
    }}


def _selftest_checks(flip_normals):
    """Deterministic check list: (name, value, tolerance) triplets."""
    import numpy as np

    from . import laplace, verification
    from .coefficient import make_coefficient
    from .geometry import boundary_grid, make_curve

    checks = []

    # Fourier oracles for the boundary operators on the unit circle.
    grid = boundary_grid(make_curve("circle"), 32)
    v_mat = laplace.single_layer_matrix(grid)
    w_mat = laplace.double_layer_matrix(grid)
    l_mat = laplace.hypersingular_matrix(grid)
    for n in range(1, 9):
        mode = np.cos(n * grid.t)
        checks.append((f"single-layer-mode-{n}",
                       float(np.abs(v_mat @ mode - mode / (2 * n)).max()),
                       1e-10))
        checks.append((f"double-layer-mode-{n}",
                       float(np.abs(w_mat @ mode).max()), 1e-10))
        checks.append((f"hypersingular-mode-{n}",
                       float(np.abs(l_mat @ mode - 0.5 * n * mode).max()),
                       1e-10))

    # Constant-density identities for the double layer: 1 inside the
    # bounded complement, 1/2 on the curve, 0 in the exterior domain.
    sign = -1.0 if flip_normals else 1.0
    for name, curve, inner, outer in (
            ("circle", make_curve("circle"), (0.0, 0.0), (3.0, 0.0)),
            ("ellipse", make_curve("ellipse", a=2.0, b=1.0),
             (0.0, 0.0), (4.0, 0.0))):
        g = boundary_grid(curve, 64)
        ones = np.ones(g.n)
        g_sign = dataclasses.replace(g, normals=sign * g.normals)
        val_in = laplace._layer_weights(g_sign, np.asarray(inner))[1] @ ones
        val_out = laplace._layer_weights(g_sign, np.asarray(outer))[1] @ ones
        val_on = laplace.double_layer_matrix(g) @ ones
        checks.append((f"constant-density-interior-{name}",
                       abs(float(val_in) - 1.0), 1e-10))
        checks.append((f"constant-density-exterior-{name}",
                       abs(float(val_out)), 1e-10))
        checks.append((f"constant-density-boundary-{name}",
                       float(np.abs(val_on - 0.5).max()), 1e-10))

    # Jump relations for the variable-coefficient layer potentials.
    g = boundary_grid(make_curve("circle"), 64)
    field = make_coefficient("gaussian_bump", beta=1.0, sigma=1.0)
    for name, res in verification.jump_relation_check(g, field).items():
        checks.append((f"jump-relations-{name}", max(res.values()), 1e-6))

    # Negative control: flipping the normal must break the constant-
    # density identity, demonstrating orientation sensitivity.
    g = boundary_grid(make_curve("circle"), 64)
    flipped = laplace._layer_weights(
        dataclasses.replace(g, normals=-g.normals), np.zeros(2))[1]
    deviation = abs(float(flipped @ np.ones(g.n)) - 1.0)
    checks.append(("negative-control-normal-flip",
                   0.0 if deviation > 1e-3 else 1.0, 0.5))
    return checks


def cmd_selftest(flip_normals):
    checks = _selftest_checks(flip_normals)
    lines = []
    all_ok = True
    for name, value, tol in checks:
        ok = value <= tol
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name:40s} "
                     f"{value:.3e} (tol {tol:.1e})")
    print("\n".join(lines))
    return EXIT_OK if all_ok else EXIT_FAIL, {
        "flip_normals": flip_normals,
        "checks": [{"name": n, "value": v, "tolerance": t, "passed": v <= t}
                   for n, v, t in checks],
        "passed": all_ok,
    }


# ---------------------------------------------------------------------------
# entry point

def build_parser():
    parser = argparse.ArgumentParser(
        prog="bdie2d",
        description="Boundary-domain integral-equation solver for the "
                    "exterior two-dimensional Dirichlet problem.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="YAML run configuration")
    common.add_argument("--out", metavar="DIR", default=None,
                        help="report output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--threads", type=int, default=None,
                        help="cap BLAS/OpenMP thread counts")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common],
                   help="assemble and solve one problem")
    sub.add_parser("verify", parents=[common],
                   help="run identity and decay checks for a case")
    sub.add_parser("convergence", parents=[common],
                   help="tied-refinement error study")
    sub.add_parser("conditioning", parents=[common],
                   help="condition-number sweep over boundary resolutions")
    st = sub.add_parser("selftest", parents=[common],
                        help="fixed-size oracle suite")
    st.add_argument("--flip-normals", action="store_true",
                    help="debug: flip boundary normals to force a failure")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "convergence": cmd_convergence,
    "conditioning": cmd_conditioning,
}


def run(args):
    """Execute a parsed command and write its report, ``<command>.json``,
    with the resolved config; returns the exit status."""
    out_dir = args.out if args.out is not None else "bdie2d-out"
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["output"]["directory"] = args.out
        out_dir = cfg["output"]["directory"]
        if args.command == "selftest":
            status, report = cmd_selftest(args.flip_normals)
        else:
            status, report = _COMMANDS[args.command](cfg, out_dir)
        write_json(out_dir, f"{args.command}.json",
                   {"command": args.command, "config": cfg, **report})
        return status
    except (ConfigError, UnknownCatalogError, GeometryError,
            DiscretizationError, CoefficientError) as exc:
        return _fail(out_dir, EXIT_CONFIG, exc)
    except CompatibilityError as exc:
        return _fail(out_dir, EXIT_COMPAT, exc)
    except SolverSingularError as exc:
        return _fail(out_dir, EXIT_SINGULAR, exc)


def _fail(out_dir, status, exc):
    payload = {"status": status,
               "error": {"category": type(exc).__name__,
                         "message": str(exc)}}
    print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
    try:
        write_json(out_dir, "error.json", payload)
    except OSError:
        pass
    return status


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
