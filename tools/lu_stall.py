"""Count threaded-LU stalls: interleave scipy's and numpy's LAPACK on
bump-dipole systems.

From the root of a source checkout:

    python3 tools/lu_stall.py --steps 50 --threads 2

Each step assembles the bump-dipole system at N = 32 boundary nodes (the work
that precedes the factorization in a solve), then times
``scipy.linalg.lu_factor`` and ``np.linalg.solve`` on it, in alternating
order from step to step.  The BLAS thread counts are set before numpy is
imported, as ``perfbench/run.py`` sets them.  The script prints, for each
factorization, how many of the steps took longer than 20 ms, and the
median and largest times.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
N = 32           # boundary nodes of the bump-dipole system
STALL_MS = 20.0  # a factorization slower than this is a stall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=50)
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args()
    for var in THREAD_VARS:
        os.environ[var] = str(args.threads)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import numpy as np
    import scipy.linalg

    from bdie2d import geometry, system, verification

    case = verification.manufactured_case("bump-dipole")
    grid = geometry.boundary_grid(case.curve, N)
    mesh = geometry.domain_mesh(case.curve, case.r_trunc, 4.0 * np.pi / N,
                                m_theta=N)
    factorizations = {
        "scipy.linalg.lu_factor":
            lambda mat, rhs: scipy.linalg.lu_factor(mat, check_finite=False),
        "np.linalg.solve": np.linalg.solve,
    }
    times = {name: [] for name in factorizations}
    for step in range(args.steps):
        sysm = system.assemble_system(case.problem(), grid, mesh)
        names = list(factorizations)[::1 if step % 2 == 0 else -1]
        for name in names:
            t0 = time.perf_counter()
            factorizations[name](sysm.matrix, sysm.rhs)
            times[name].append(1e3 * (time.perf_counter() - t0))
    print(f"{args.steps} steps, bump-dipole N={N} "
          f"({sysm.matrix.shape[0]} unknowns), {args.threads} BLAS threads")
    for name, ms in times.items():
        stalls = sum(t > STALL_MS for t in ms)
        print(f"{name:24s} {stalls:3d} of {len(ms)} over {STALL_MS:g} ms;"
              f" median {statistics.median(ms):.1f} ms, max {max(ms):.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
