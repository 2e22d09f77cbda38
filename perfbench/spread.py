"""Run a workload once per seed and report each end-to-end metric's spread.

From the root of a source checkout:

    python3 perfbench/spread.py --workload bump-solve --seeds 0-9

For every metric in BENCHMARK.json's end_to_end list this prints the
median of the runs, the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, and that metric's
bound.  Runs are made one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-4"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit status {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
            flush=True)
    worst = 0.0
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        if metric["name"] != "setup_s":
            worst = max(worst, share / metric["bound"])
        print(f"{metric['name']:20s} median {med:12.6g}  iqr/median {share:8.4f}"
              f"  bound {metric['bound']}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
