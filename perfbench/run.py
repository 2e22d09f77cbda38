"""Run one workload of the bdie2d benchmark and print its metrics.

From the root of a source checkout:

    python3 perfbench/run.py --workload bump-solve --seed 0 --seconds 24 --trace 0

Workloads: bump-solve, laplace-bie, field-eval (see bench.py).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
and the spans are written under perfbench/out/.  The package is imported
from ``src/`` of the checkout and nowhere else.  The exit status is 0 when
every operation passed its correctness check, 1 when one failed, and 2
when the sources cannot be imported.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bump-solve", "laplace-bie", "field-eval"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    # BLAS and OpenMP read their thread counts when numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import bench   # numpy, scipy and bdie2d
    except ImportError as exc:
        print(f"error: cannot import bdie2d from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    origin = Path(bench.geometry.__file__).resolve().parent.parent
    if origin != src.resolve():
        print(f"error: bdie2d was imported from {origin}, not {src}",
              file=sys.stderr)
        return 2
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                     import_s=import_s, nproc=nproc,
                     thread_caps={var: os.environ[var] for var in THREAD_VARS})


if __name__ == "__main__":
    sys.exit(main())
