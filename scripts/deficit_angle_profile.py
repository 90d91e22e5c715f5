#!/usr/bin/env python3
"""Deficit-angle statistics of random perturbed metrics.

Draws seeded random edge-length configurations, evaluates every deficit
angle of each through both the length-only dihedral route and the
holonomy route, both called on the same squared lengths, and prints
agreement statistics together with the action value.  The first
row is the flat configuration, where the action and every dihedral
deficit are exactly 0.
"""

import argparse

import numpy as np

from reggefem import (TorusGeometry, build_torus_mesh, holonomy_deficits,
                      regge_action)
from reggefem.action import (deficit_angles, euclidean_lengths,
                             random_realizable_config)

TAU = 2.0 * np.pi


def print_row(mesh, label, cfg):
    theta = deficit_angles(mesh, cfg)
    gap = np.abs(holonomy_deficits(mesh, cfg) - theta).max()
    # %g shows an exact 0 as 0 and any residue in full
    print(f"{label:>5} {regge_action(mesh, cfg):12.6g} "
          f"{np.abs(theta).max():12.6g} {np.abs(theta).mean():12.6g} "
          f"{gap:10.2e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", nargs=3, type=int, default=[2, 2, 2])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--scale", type=float, default=0.15)
    args = ap.parse_args()

    mesh = build_torus_mesh(TorusGeometry(TAU, TAU, TAU), args.grid)
    print(f"{'seed':>5} {'action':>12} {'max |theta|':>12} "
          f"{'mean |theta|':>12} {'path gap':>10}")
    print_row(mesh, "flat", euclidean_lengths(mesh))
    for seed in range(args.seeds):
        rng = np.random.default_rng(seed)
        print_row(mesh, seed, random_realizable_config(
            mesh, rng, scale=args.scale, max_deficit=2.5))


if __name__ == "__main__":
    main()
