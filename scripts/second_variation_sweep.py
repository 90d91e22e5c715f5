#!/usr/bin/env python3
"""Quadratic expansion of the nonlinear action around the flat metric.

For seeded random perturbation directions, compares the Richardson limit
of R(eps)/eps^2 with the assembled quadratic form c'Ac/8 and reports the
log-log slope of the cubic remainder.
"""

import argparse
import json

import numpy as np

from reggefem import (ReggeField, TorusGeometry, assemble_stiffness,
                      build_torus_mesh, second_variation_check)

TAU = 2.0 * np.pi


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", nargs=3, type=int, default=[2, 2, 2])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--eps-min", type=float, default=1e-2)
    ap.add_argument("--eps-max", type=float, default=1e-1)
    ap.add_argument("--eps-count", type=int, default=7)
    ap.add_argument("--json", action="store_true",
                    help="emit raw reports as JSON")
    args = ap.parse_args()

    mesh = build_torus_mesh(TorusGeometry(TAU, TAU, TAU), args.grid)
    A = assemble_stiffness(mesh)
    eps = np.geomspace(args.eps_min, args.eps_max, args.eps_count)

    reports = []
    for seed in range(args.seeds):
        rng = np.random.default_rng(seed)
        up = ReggeField(rng.uniform(-1.0, 1.0, mesh.num_edges))
        try:
            rep = second_variation_check(mesh, up, eps, A)
        except ValueError as ex:  # a bad schedule, or too few realizable
            ap.error(str(ex))
        reports.append((seed, rep))

    if args.json:
        print(json.dumps({s: r.to_dict() for s, r in reports}, indent=2))
        return

    print(f"{'seed':>5} {'c_Ac/8':>14} {'extrapolated':>14} "
          f"{'rel error':>10} {'slope':>6}")
    for seed, rep in reports:
        print(f"{seed:5d} {rep.target:14.6e} {rep.extrapolated:14.6e} "
              f"{rep.rel_error:10.2e} {rep.remainder_slope:6.2f}")


if __name__ == "__main__":
    main()
