"""Freeze the solver's outputs on fixed cases, and compare two freezes.

From the root of a source checkout:

    python3 tools/frozen_outputs.py save OUT.npz
    python3 tools/frozen_outputs.py compare A.npz B.npz

``save`` solves laplace-dipole at N = 32 and 512, bump-dipole at N = 16, 32
and 64 and star-bump-dipole at N = 32 (h = 4 pi / N, m_theta = N), and
writes for each case the system matrix, the rhs, and ``evaluate`` at 60
targets at r_curve(theta) times 1.02 to 10 on golden-angle turns; for
N <= 32 also ``parametrix.remainder_rows`` at every mesh node.  It also
solves the default ``bdie2d conditioning`` problem at N = 32 and 64: the
off-centre compact bump (beta 0.6, sigma 0.5, centre (1.5, 0)) outside the
unit circle, a zero source and Dirichlet data cos t, on one 32-column mesh
with r_trunc 3, whose support edge cuts through the mesh; for it the
matrix, the rhs and ``evaluate``.  Save the arrays of two source trees,
one per checkout, to check that a change keeps the outputs.

Most of the 60 targets are far enough from the curve for the trapezoid
rule (8 L / d <= N, L the curve length, d the distance to the nearest
node), so for laplace-dipole at N = 32 and 512 and star-bump-dipole at
N = 32 ``save`` also writes ``evaluate`` at targets close to the curve,
which take the compensated Cauchy rows: above 4 nodes and midway between
4 pairs of nodes, at distances along the outward normal of 1e-1, 1e-3,
1e-6 and 1e-8 times the curve's radius there.  Every array comes from
public calls alone, so ``compare`` runs across any two trees.

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
         ("bump-dipole", 32), ("bump-dipole", 64), ("star-bump-dipole", 32),
         ("conditioning", 32), ("conditioning", 64))
TOLERANCE = 1e-12  # largest relative difference that compare accepts
TARGETS = 60  # evaluate targets per case
CLOSE_CASES = (("laplace-dipole", 32), ("laplace-dipole", 512),
               ("star-bump-dipole", 32))
CLOSE_DISTANCES = (1e-1, 1e-3, 1e-6, 1e-8)  # times the curve's radius


def _targets(curve):
    """Exterior targets on golden-angle turns, from 1.02 to 10 times the
    curve's radius in their direction."""
    theta = np.arange(TARGETS) * np.pi * (3.0 - np.sqrt(5.0))
    r = curve.radial_profile(theta) * np.geomspace(1.02, 10.0, TARGETS)
    return r[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _close_targets(curve, n):
    """Targets above 4 of the n nodes and midway between 4 pairs of them,
    at CLOSE_DISTANCES times the curve's radius along the outward
    normal."""
    nodes = np.rint(n * np.array([0.1, 0.35, 0.6, 0.85]))
    t = 2.0 * np.pi / n * np.concatenate([nodes, nodes + 0.5])
    x, _, normal, _ = curve.evaluate(t)
    r = curve.radial_profile(np.arctan2(x[:, 1], x[:, 0]))
    # the normals point into the curve: outward is minus the normal
    d = r[:, None] * np.array(CLOSE_DISTANCES)
    return (x[:, None, :] - d[..., None] * normal[:, None, :]).reshape(-1, 2)


def _conditioning_problem():
    """The default conditioning problem and its mesh, built only from
    APIs that every compared tree has."""
    from bdie2d import coefficient, geometry, system

    curve = geometry.make_curve("circle")
    field = coefficient.make_coefficient("compact_bump", beta=0.6, sigma=0.5,
                                         center=(1.5, 0.0))
    return (system.DirichletProblem(curve, field, None, np.cos),
            geometry.domain_mesh(curve, 3.0, 4.0 * np.pi / 32, m_theta=32))


def save(out):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from bdie2d import geometry, parametrix, system, verification

    arrays = {}
    for name, n in CASES:
        if name == "conditioning":
            problem, mesh = _conditioning_problem()
        else:
            case = verification.manufactured_case(name)
            problem = case.problem()
            mesh = geometry.domain_mesh(case.curve, case.r_trunc,
                                        4.0 * np.pi / n, m_theta=n)
        grid = geometry.boundary_grid(problem.curve, n)
        sysm = system.assemble_system(problem, grid, mesh)
        key = f"{name}-{n}"
        arrays[f"{key}.matrix"], arrays[f"{key}.rhs"] = sysm.matrix, sysm.rhs
        sol = system.solve(sysm)
        arrays[f"{key}.evaluate"] = sol.evaluate(_targets(problem.curve))
        if (name, n) in CLOSE_CASES:
            arrays[f"{key}.evaluate_close"] = sol.evaluate(
                _close_targets(problem.curve, n))
        if name != "conditioning" and n <= 32:
            arrays[f"{key}.remainder_rows"] = parametrix.remainder_rows(
                mesh, problem.field, mesh.points)
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
