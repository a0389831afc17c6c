#!/usr/bin/env python3
"""Reconstruction error as a function of truncation rank for one field of a
projected snapshot store.

Compartments that start identically zero defeat first-snapshot amplitudes;
pass --t-start to skip the silent initial transient (the pipeline uses 3).
"""

import argparse
import sys

from amrdmd import dmd, store


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("store_dir")
    ap.add_argument("field")
    ap.add_argument("ranks", nargs="*", type=int,
                    default=[5, 10, 15, 30, 45, 60])
    ap.add_argument("--t-start", type=float, default=None)
    ap.add_argument("--t-end", type=float, default=None)
    args = ap.parse_args()

    src = store.read_store(args.store_dir, [args.field], args.t_start, args.t_end)
    Y = store.store_to_snapshot_matrix(src, args.field)
    print(f"{'rank':>6} {'eta_F':>12}")
    for r in args.ranks or [5, 10, 15, 30, 45, 60]:
        if r > Y.m:
            print(f"{r:>6} {'(> m, skipped)':>12}")
            continue
        model = dmd.fit(Y, rank=r)
        rec = dmd.reconstruct(model, Y.times)
        print(f"{r:>6} {dmd.errors(Y.data, rec).eta_F:>12.4e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
