#!/usr/bin/env python3
"""Eigenvalue convergence against the exact torus spectrum.

Solves the pencil on a sequence of cubic grids and prints the cluster-mean
relative error per oracle target, with the observed log-log rate between
consecutive grids.
"""

import argparse

import numpy as np

from reggefem import TorusGeometry, convergence_study

TAU = 2.0 * np.pi


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grids", nargs="+", type=int,
                    default=[4, 6, 8, 12, 16])
    ap.add_argument("--n-eigs", type=int, default=2)
    ap.add_argument("--lengths", nargs=3, type=float,
                    default=[TAU, TAU, TAU])
    args = ap.parse_args()

    geometry = TorusGeometry(*args.lengths)
    study = convergence_study(geometry, args.grids, args.n_eigs)

    by_target = {}
    for row in study["rows"]:
        by_target.setdefault(row["target"], []).append(row)

    print(f"{'target':>8} {'grid':>6} {'mult':>5} {'cluster mean':>14} "
          f"{'rel error':>10} {'rate':>6}")
    for target, rows in sorted(by_target.items()):
        prev = None
        for row, grid in zip(rows, args.grids):
            rate = ""
            if prev is not None:
                order = np.log(prev[1] / row["rel_error"])
                rate = f"{order / np.log(grid / prev[0]):.2f}"
            print(f"{target:8.3f} {grid:6d} {row['multiplicity']:5d} "
                  f"{row['cluster_mean']:14.6f} {row['rel_error']:10.4f} "
                  f"{rate:>6}")
            prev = (grid, row["rel_error"])
        mono = study["monotone"].get(target)
        print(f"{'':8} strictly decreasing: {mono}")


if __name__ == "__main__":
    main()
