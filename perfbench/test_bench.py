"""Tests of the benchmark itself: the correctness gate and its negative
control, exact repeat of the traced counts, seeded inputs, span self
times, and agreement of BENCHMARK.json with the reported metrics.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import tracer  # noqa: E402
from bdie2d import geometry, laplace, verification  # noqa: E402

# the real workloads at sizes that take seconds
SMALL_LAPLACE = dataclasses.replace(bench.WORKLOADS["laplace-bie"], n=32)
SMALL_FIELD = dataclasses.replace(bench.WORKLOADS["field-eval"],
                                  case="laplace-dipole", n=32, batch=4)
# bump-dipole at N=8 misses the N=32 tolerances; used only for counts
SMALL_BUMP = dataclasses.replace(bench.WORKLOADS["bump-solve"], n=8)


def wrong_reference(name):
    """The manufactured case with its exact solution negated."""
    case = verification.manufactured_case(name)
    exact = case.exact_u
    return dataclasses.replace(case, exact_u=lambda p: -exact(p))


@pytest.mark.parametrize("wl", [SMALL_LAPLACE, SMALL_FIELD],
                         ids=lambda w: w.name)
def test_exact_reference_passes(wl):
    tally, _ = bench.measure(wl, seed=0, seconds=0, trace=False)
    assert tally.attempted >= 1
    assert tally.failed == 0


@pytest.mark.parametrize("wl", [SMALL_LAPLACE, SMALL_FIELD],
                         ids=lambda w: w.name)
def test_wrong_reference_registers_failure(wl):
    tally, _ = bench.measure(wl, seed=0, seconds=0, trace=False,
                             case_fn=wrong_reference)
    assert tally.attempted >= 1
    assert tally.failed == tally.attempted
    assert bench.end_to_end(tally, 0.0)["ok_frac"][0] == 0.0


def _exact_counts(wl, seed):
    tally, tr = bench.measure(wl, seed=seed, seconds=0, trace=True)
    return {name: value for name, (value, unit) in bench.per_layer(tally, tr).items()
            if unit != "s"}


@pytest.mark.parametrize("wl", [SMALL_BUMP, SMALL_FIELD], ids=lambda w: w.name)
def test_traced_counts_repeat_exactly(wl):
    first = _exact_counts(wl, seed=3)
    assert first == _exact_counts(wl, seed=3)
    assert 0.0 < first["laplace.distinct_target_frac"] <= 1.0
    assert first["system.matrix_bytes"] > 0
    if wl is SMALL_BUMP:
        assert first["laplace.domain_rows.targets"] > 0
        assert first["laplace.single_layer_matrix.calls"] == 2


def test_seeded_targets_repeat_and_fill_every_radius_slice():
    curve = geometry.make_curve("circle", radius=1.0)
    a = bench.seeded_targets(curve, 50, np.random.default_rng(5))
    b = bench.seeded_targets(curve, 50, np.random.default_rng(5))
    c = bench.seeded_targets(curve, 50, np.random.default_rng(6))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    u = (np.log(np.hypot(a[:, 0], a[:, 1]) / bench.R_MIN)
         / np.log(bench.R_MAX / bench.R_MIN))
    np.testing.assert_array_equal(np.floor(u * 50), np.arange(50))


def test_seeded_targets_reject_points_on_or_inside_the_curve():
    curve = geometry.make_curve("ellipse", a=1.6, b=1.0)
    pts = bench.seeded_targets(curve, 200, np.random.default_rng(0))
    assert pts.shape == (200, 2)
    assert not curve.is_inside_bounded(pts).any()
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    assert np.all(np.hypot(pts[:, 0], pts[:, 1]) > curve.radial_profile(theta))
    with pytest.raises(ValueError):
        bench.seeded_targets(geometry.make_curve("circle", radius=20.0), 4,
                             np.random.default_rng(0), max_draws=3)


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, 0, "solve", -1],
             ["b", 1.0, 4.0, 0, 0, "solve", 5],
             ["c", 2.0, 3.0, 1, 0, "solve", 5],
             ["d", 5.0, 7.0, 0, 0, "solve", -1]]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_tracer_records_spans_and_restores_the_library():
    original = laplace.kress_log_weights
    tr = tracer.Tracer()
    curve = geometry.make_curve("circle")
    with tr.operation(7):
        tr.phase = "solve"
        laplace.single_layer_matrix(geometry.boundary_grid(curve, 16))
    assert laplace.kress_log_weights is original
    names = [span[tracer.NAME] for span in tr.spans]
    assert names == ["geometry.boundary_grid", "laplace.single_layer_matrix",
                     "laplace.kress_log_weights"]
    assert tr.spans[2][tracer.PARENT] == 1
    assert {span[tracer.OP] for span in tr.spans} == {7}


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally, tr = bench.measure(SMALL_LAPLACE, seed=0, seconds=0, trace=True)
    e2e = {name: unit for name, (_, unit, _) in bench.end_to_end(tally, 0.0).items()}
    layers = {name: unit for name, (_, unit) in bench.per_layer(tally, tr).items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == e2e
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bump-solve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
