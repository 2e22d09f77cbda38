"""Workloads, correctness gates and metrics of the bdie2d benchmark.

Every workload is a closed loop with one client: the next operation
starts when the previous one returns, and operations are started until
``seconds`` have passed (at least one; two in a traced run).

bump-solve   manufactured bump-dipole solves at N=32 on the default mesh
             (h = 4 pi/N, m_theta = N, r_trunc = 6) with LU.  The
             variable-coefficient case: the volume near-field quadrature
             of parametrix.remainder_rows and volume_potential does almost
             all the work, the boundary operators almost none.
laplace-bie  manufactured laplace-dipole solves at N=512 with LU.  There
             are no domain unknowns, so the remainder rows are bypassed;
             the Nystrom boundary matrices and the F0-trace volume
             potential do the work.
field-eval   one bump-dipole N=32 solve as set-up, then u reconstructed by
             BdieSolution.evaluate in batches at seeded exterior targets:
             the read path beside the two assembly paths.

bump-solve and laplace-bie take no random input.  field-eval draws its
targets from the seed; the library receives only the points.

Every operation is checked against the manufactured solution; one that
raises or misses its tolerance is counted as failed.
"""

from __future__ import annotations

import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from bdie2d import geometry, system, verification
from tracer import COUNT, NAME, OP, PHASE, Tracer, distinct_fraction, self_times

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    case: str         # manufactured case that is solved
    n: int            # boundary nodes N of the measured solve
    batch: int = 0    # seeded targets per operation; 0: an operation is a solve


WORKLOADS = {w.name: w for w in (
    Workload("bump-solve", "bump-dipole", 32),
    Workload("laplace-bie", "laplace-dipole", 512),
    Workload("field-eval", "bump-dipole", 32, batch=16),
)}

SETUP_REPEATS = 5
# Set-up warms up with a small constant-coefficient solve and evaluation:
# it makes the first calls of the assembly, LU and evaluation paths in a
# fraction of a second (a bump-dipole solve at the smallest N its mesh
# allows takes over a second).
WARM_CASE, WARM_N = "laplace-dipole", 32

# Errors at the commit that added this benchmark (bump-dipole at N=32,
# laplace-dipole at N=512): err_u and err_psi from
# verification.equivalence_check, eval the largest |u_h - u| |y| seen
# over the fixed targets, 1600 seeded ones and a polar scan of 3 <= r <= 7.  A check fails when an error exceeds TOL_FACTOR times
# its anchor or ROUNDOFF, whichever is larger.
ANCHOR = {
    "bump-dipole": {"err_u": 1.42e-4, "err_psi": 7.19e-5, "eval": 1.05e-3},
    "laplace-dipole": {"err_u": 1.9e-16, "err_psi": 9.7e-13, "eval": 2.2e-15},
}
TOL_FACTOR = 2.0
ROUNDOFF = 1e-12

# Errors below this read as 17 digits, so an exact result stays finite.
ERR_FLOOR = 1e-17

R_MIN, R_MAX = 1.02, 10.0    # target radii; R_MAX lies past r_trunc = 6
FIXED_TARGETS = 12           # targets evaluated after every solve ...
EVAL_REPEATS = 10            # ... this many times, for a median rate
GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def tolerance(case_name: str, key: str) -> float:
    return max(TOL_FACTOR * ANCHOR[case_name][key], ROUNDOFF)


# ---------------------------------------------------------------------------
# inputs

def _points(r, theta):
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def fixed_targets(count=FIXED_TARGETS):
    """Deterministic exterior targets: log-spaced radii, golden-angle turns."""
    return _points(np.geomspace(R_MIN, R_MAX, count),
                   GOLDEN_ANGLE * np.arange(count))


def seeded_targets(curve, count, rng, max_draws=100):
    """``count`` targets log-uniform in radius on [R_MIN, R_MAX] and uniform
    in angle, stratified: one target in each of ``count`` equal slices of
    log radius, so every batch mixes near and far targets alike.  A point
    on or inside the (star-shaped) curve is drawn again in its slice."""
    log_r = np.empty(count)
    theta = np.empty(count)
    redo = np.arange(count)
    for _ in range(max_draws):
        u = (redo + rng.uniform(size=redo.size)) / count
        log_r[redo] = np.log(R_MIN) + u * np.log(R_MAX / R_MIN)
        theta[redo] = rng.uniform(0.0, 2.0 * np.pi, redo.size)
        r = np.exp(log_r)
        redo = np.nonzero(r <= curve.radial_profile(theta))[0]
        if redo.size == 0:
            return _points(r, theta)
    raise ValueError(f"{redo.size} of {count} targets stayed on or inside "
                     f"the curve after {max_draws} draws")


# ---------------------------------------------------------------------------
# operations and checks

@dataclass
class Tally:
    """Operation counts, timing samples and the largest error of each kind."""

    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=lambda: defaultdict(list))
    worst: dict = field(default_factory=dict)
    checks: Counter = field(default_factory=Counter)
    system_info: dict = field(default_factory=dict)

    def check(self, name, value, tol) -> bool:
        self.checks[name] += 1
        value = float(value)
        if not math.isfinite(value):
            value = math.inf
        self.worst[name] = max(self.worst.get(name, 0.0), value)
        if value <= tol:
            return True
        print(f"check failed: {name} = {value:.3e} > {tol:.3e}", file=sys.stderr)
        return False


def solve_case(case, n):
    """The timed solve: boundary grid and domain mesh through assembly to LU."""
    t0 = time.perf_counter()
    grid = geometry.boundary_grid(case.curve, n)
    mesh = geometry.domain_mesh(case.curve, case.r_trunc, 4.0 * np.pi / n,
                                m_theta=n)
    sysm = system.assemble_system(case.problem(), grid, mesh)
    sol = system.solve(sysm, method="lu")
    return sol, time.perf_counter() - t0


def check_solution(case, sol, tally) -> bool:
    eq = verification.equivalence_check(case, sol)
    ok_u = tally.check("err_u", eq["err_u"], tolerance(case.name, "err_u"))
    ok_psi = tally.check("err_psi", eq["err_psi"], tolerance(case.name, "err_psi"))
    return ok_u and ok_psi


def eval_error(case, targets, values) -> float:
    """Largest |u_h(y) - u(y)| |y|: the error relative to the dipole's size."""
    return float(np.max(np.abs(values - case.exact_u(targets))
                        * np.hypot(targets[:, 0], targets[:, 1])))


def timed_eval(case, sol, targets, tally):
    """Reconstruct u at ``targets``; returns (within tolerance, seconds)."""
    t0 = time.perf_counter()
    values = sol.evaluate(targets)
    dt = time.perf_counter() - t0
    tally.samples["eval_targets_per_s"].append(targets.shape[0] / dt)
    ok = tally.check("eval_max_rel_err", eval_error(case, targets, values),
                     tolerance(case.name, "eval"))
    return ok, dt


def _system_info(sol):
    return {"iterations": sol.iterations, "matrix_bytes": sol.system.matrix.nbytes}


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            case_fn=verification.manufactured_case):
    """Set up and run one workload; returns (tally, tracer).

    ``case_fn(name)`` builds the manufactured case whose exact solution is
    the reference of every check.
    """
    tally, tracer = Tally(), Tracer()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        case = case_fn(wl.case)
        geometry.boundary_grid(case.curve, wl.n)
        geometry.domain_mesh(case.curve, case.r_trunc, 4.0 * np.pi / wl.n,
                             m_theta=wl.n)
        warm, _ = solve_case(case_fn(WARM_CASE), WARM_N)
        warm.evaluate(fixed_targets(2))
        tally.samples["setup_s"].append(time.perf_counter() - t0)

    if wl.batch:
        # the solve read by every batch is set-up, checked once like an operation
        sol, dt = solve_case(case, wl.n)
        tally.samples["setup_solve_s"].append(dt)
        tally.samples["solve_s"].append(dt)
        tally.system_info = _system_info(sol)
        tally.attempted += 1
        tally.failed += not check_solution(case, sol, tally)
        rng = np.random.default_rng(seed)

        def operation():
            targets = seeded_targets(case.curve, wl.batch, rng)
            tracer.phase = "eval"
            return timed_eval(case, sol, targets, tally)
    else:
        targets = fixed_targets()

        def operation():
            tracer.phase = "solve"
            sol, dt = solve_case(case, wl.n)
            tally.samples["solve_s"].append(dt)
            tally.system_info = _system_info(sol)
            tracer.phase = "eval"
            ok = all([timed_eval(case, sol, targets, tally)[0]
                      for _ in range(EVAL_REPEATS)])
            tracer.phase = "check"
            return check_solution(case, sol, tally) and ok, dt

    start = time.perf_counter()
    k = 0
    while k < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and k % 2 == 1   # untraced operations give the overhead
        tally.attempted += 1
        try:
            with tracer.operation(k) if traced else nullcontext():
                ok, op_s = operation()
            tally.samples["traced_op_s" if traced else "op_s"].append(op_s)
        except Exception:
            traceback.print_exc()
            ok = False
        tally.failed += not ok
        k += 1
    return tally, tracer


# ---------------------------------------------------------------------------
# metrics

def _digits(err):
    """-log10 of an error; None when no check of that kind completed."""
    return None if err is None else -math.log10(max(err, ERR_FLOOR))


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(tally: Tally, import_s: float):
    """{name: (value, unit, samples)} in the order of BENCHMARK.json."""
    s = tally.samples
    setup = import_s + _median(s["setup_s"]) + sum(s["setup_solve_s"])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worst, n = tally.worst, tally.checks
    return {
        "setup_s": (setup, "s", len(s["setup_s"])),
        "solve_s": (_median(s["solve_s"]), "s", len(s["solve_s"])),
        "eval_targets_per_s": (_median(s["eval_targets_per_s"]), "1/s",
                               len(s["eval_targets_per_s"])),
        "err_u_digits": (_digits(worst.get("err_u")), "digits",
                         n["err_u"]),
        "err_psi_digits": (_digits(worst.get("err_psi")), "digits",
                           n["err_psi"]),
        "eval_err_digits": (_digits(worst.get("eval_max_rel_err")),
                            "digits", n["eval_max_rel_err"]),
        "peak_rss_mb": (peak_mb, "MB", 1),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio",
                    tally.attempted),
    }


# per-layer self times: metric prefix -> spans whose self times it sums.
# They count in the timed phases of an operation; the correctness check
# runs traced in a phase of its own, from which only its own span counts.
TIMED_PHASES = ("solve", "eval")
CHECK_SPAN = "verification.equivalence_check"
SELF_TIMES = {name: (name,) for name in (
    "laplace.domain_rows", "laplace.newtonian_potential",
    "laplace.single_layer_matrix", "laplace.kress_log_weights",
    "laplace.double_layer_matrix", "laplace.layer_rows_offboundary",
    "laplace.layer_potential_offboundary", "laplace.distance_to_curve",
    "parametrix.remainder_rows", "parametrix.remainder_kernel",
    "parametrix.volume_potential", "parametrix.single_layer_boundary",
    "parametrix.double_layer_boundary",
    "parametrix.single_layer_rows_offboundary",
    "geometry.interpolation", "geometry.domain_mesh",
    "system.assemble_system", "system.solve", "system.evaluate", CHECK_SPAN)}
SELF_TIMES["coefficient.eval"] = ("coefficient.eval", "coefficient.grad_log",
                                  "coefficient.laplacian_log")

# exact counts per operation: metric -> (span, "count" of targets or points, or "calls")
COUNTS = {
    "laplace.domain_rows.targets": ("laplace.domain_rows", "count"),
    "laplace.newtonian_potential.targets": ("laplace.newtonian_potential", "count"),
    "laplace.single_layer_matrix.calls": ("laplace.single_layer_matrix", "calls"),
    "laplace.kress_log_weights.calls": ("laplace.kress_log_weights", "calls"),
    "laplace.layer_rows_offboundary.targets": ("laplace.layer_rows_offboundary", "count"),
    "parametrix.remainder_rows.targets": ("parametrix.remainder_rows", "count"),
    "parametrix.volume_potential.targets": ("parametrix.volume_potential", "count"),
    "geometry.interpolation.points": ("geometry.interpolation", "count"),
    "coefficient.eval.points": ("coefficient.eval", "count"),
}


def per_layer(tally: Tally, tracer: Tracer):
    """{name: (value, unit)} over the traced operations.

    Self times (``.s``) are medians over the traced operations.  Counts
    are those of the first traced operation: every bump-solve and
    laplace-bie operation does the same work, and the first field-eval
    batch is fixed by the seed, so counts repeat exactly run to run.
    """
    spans = tracer.spans
    own = self_times(spans)
    ops = sorted({span[OP] for span in spans})
    per_op = {op: defaultdict(float) for op in ops}
    for span, t in zip(spans, own):
        per_op[span[OP]][(span[NAME], span[PHASE])] += t
    out = {}
    for prefix, names in SELF_TIMES.items():
        phases = ("check",) if prefix == CHECK_SPAN else TIMED_PHASES
        vals = [sum(per_op[op][(n, p)] for n in names for p in phases)
                for op in ops]
        out[f"{prefix}.s"] = (_median(vals) or 0.0, "s")
    first = ops[0] if ops else None
    for metric, (name, kind) in COUNTS.items():
        total = 0
        for span in spans:
            if (span[OP] == first and span[NAME] == name
                    and span[PHASE] in TIMED_PHASES):
                total += 1 if kind == "calls" else span[COUNT]
        out[metric] = (total, "count")
    arrays = [a for phase in TIMED_PHASES
              for a in tracer.targets.get((first, phase), [])]
    out["laplace.distinct_target_frac"] = (distinct_fraction(arrays), "ratio")
    out["system.solve.iterations"] = (tally.system_info.get("iterations"), "count")
    out["system.matrix_bytes"] = (tally.system_info.get("matrix_bytes"), "B_computed")
    traced, untraced = (_median(tally.samples[k]) for k in ("traced_op_s", "op_s"))
    out["trace.overhead_s"] = (None if None in (traced, untraced)
                               else traced - untraced, "s")
    return out


# ---------------------------------------------------------------------------
# environment and output

def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _l3_cache():
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        if (_read(index / "level") or "").strip() == "3":
            return (_read(index / "size") or "").strip() or None
    return None


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy without the dict form
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def environment(nproc, thread_caps):
    return {
        "nproc": nproc,
        "thread_caps": thread_caps,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_cache(),
    }


def _number(value):
    if value is None or not math.isfinite(value):
        return None
    return value


def write_spans(tracer, path, env):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"environment": env,
                   "fields": ["name", "start", "end", "parent", "op", "phase",
                              "count"],
                   "spans": tracer.spans}, fh)


def run(name, seed, seconds, trace, *, import_s, nproc, thread_caps):
    """Run one workload, print its report and result line; returns the exit status."""
    wl = WORKLOADS[name]
    env = environment(nproc, thread_caps)
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    if wl.batch:
        print(f"inputs: {wl.batch} targets per batch drawn from seed {seed}")
    else:
        print(f"inputs: fixed; {name} takes no random input, the seed is unused")
    print("environment: " + json.dumps(env))
    try:
        tally, tracer = measure(wl, seed, seconds, trace)
    except Exception:
        traceback.print_exc()
        print("error: set-up failed", file=sys.stderr)
        return 1
    if trace:
        layers = per_layer(tally, tracer)
        for metric, (value, unit) in layers.items():
            print(f"  {metric:48s} {_fmt(value)} {unit}")
        path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        write_spans(tracer, path, env)
        print(f"spans: {len(tracer.spans)} written to "
              f"{path.relative_to(OUT_DIR.parent.parent)}")
    else:
        e2e = end_to_end(tally, import_s)
        _print_report(tally, e2e)
        layers = {metric: (value, unit) for metric, (value, unit, _) in e2e.items()}
    metrics = {metric: {"value": _number(value), "unit": unit}
               for metric, (value, unit) in layers.items()}
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def _print_report(tally, e2e):
    """Every end-to-end metric with its unit and sample count, plus the raw
    errors behind the digit metrics and failed_frac beside ok_frac."""
    rows = [(k, v, u, n) for k, (v, u, n) in e2e.items()]
    rows += [(k, tally.worst.get(k), "1", e2e[d][2]) for k, d in (
        ("err_u", "err_u_digits"), ("err_psi", "err_psi_digits"),
        ("eval_max_rel_err", "eval_err_digits"))]
    rows.append(("failed_frac", tally.failed / tally.attempted, "1",
                 tally.attempted))
    for metric, value, unit, n in rows:
        print(f"  {metric:22s} {_fmt(value)} {unit:8s} n={n}")


def _fmt(value):
    return f"{value:14.6g}" if value is not None else f"{'n/a':>14s}"
