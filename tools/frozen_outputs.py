"""Freeze the solver's outputs on fixed cases, and compare two freezes.

From the root of a source checkout:

    python3 tools/frozen_outputs.py save OUT.npz
    python3 tools/frozen_outputs.py compare A.npz B.npz

``save`` solves laplace-dipole at N = 32 and 512, bump-dipole at N = 16, 32
and 64 and star-bump-dipole at N = 32 (h = 4 pi / N, m_theta = N), and
writes for each case the system matrix, the rhs, and ``evaluate`` at 60
targets at r_curve(theta) times 1.02 to 10 on golden-angle turns; for
N <= 32 also ``parametrix.remainder_rows`` at every mesh node.  Save the
arrays of two source trees, one per checkout, to check that a change keeps
the outputs.

``compare`` prints each array's largest difference relative to its largest
entry in A, and exits 1 if one exceeds 1e-12 or an array is missing from
either file or has another shape.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

CASES = (("laplace-dipole", 32), ("laplace-dipole", 512), ("bump-dipole", 16),
         ("bump-dipole", 32), ("bump-dipole", 64), ("star-bump-dipole", 32))
TOLERANCE = 1e-12  # largest relative difference that compare accepts
TARGETS = 60  # evaluate targets per case


def _targets(curve):
    """Exterior targets on golden-angle turns, from 1.02 to 10 times the
    curve's radius in their direction."""
    theta = np.arange(TARGETS) * np.pi * (3.0 - np.sqrt(5.0))
    r = curve.radial_profile(theta) * np.geomspace(1.02, 10.0, TARGETS)
    return r[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)


def save(out):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from bdie2d import geometry, parametrix, system, verification

    arrays = {}
    for name, n in CASES:
        case = verification.manufactured_case(name)
        grid = geometry.boundary_grid(case.curve, n)
        mesh = geometry.domain_mesh(case.curve, case.r_trunc, 4.0 * np.pi / n,
                                    m_theta=n)
        sysm = system.assemble_system(case.problem(), grid, mesh)
        key = f"{name}-{n}"
        arrays[f"{key}.matrix"], arrays[f"{key}.rhs"] = sysm.matrix, sysm.rhs
        arrays[f"{key}.evaluate"] = system.solve(sysm).evaluate(
            _targets(case.curve))
        if n <= 32:
            arrays[f"{key}.remainder_rows"] = parametrix.remainder_rows(
                mesh, case.field, mesh.points)
        print(f"{key}: {len(arrays)} arrays", flush=True)
    np.savez(out, **arrays)


def compare(first, second) -> int:
    with np.load(first) as a, np.load(second) as b:
        status = 0
        for key in sorted(set(a.files) | set(b.files)):
            if key not in a.files or key not in b.files:
                print(f"{key}: missing from {first if key in b.files else second}")
                status = 1
                continue
            x, y = a[key], b[key]
            if x.shape != y.shape:
                print(f"{key}: shape {x.shape} against {y.shape}")
                status = 1
                continue
            if np.array_equal(x, y):
                print(f"{key}: equal")
                continue
            rel = np.abs(x - y).max() / np.abs(x).max(initial=0.0)
            print(f"{key}: {rel:.2e}")
            if not rel <= TOLERANCE:
                status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("save").add_argument("out")
    pair = commands.add_parser("compare")
    pair.add_argument("first")
    pair.add_argument("second")
    args = parser.parse_args()
    if args.command == "save":
        save(args.out)
        return 0
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
