#!/usr/bin/env python3
"""Reconstruction error as a function of truncation rank for one field of a
projected snapshot store.

Compartments that start identically zero defeat first-snapshot amplitudes;
pass --t-start to skip the silent initial transient (the pipeline uses 3).
A store it cannot use (adaptive, damaged, or without the field) ends in one
"error:" line and exit 3, a bad argument in exit 2, as in the amrdmd CLI.
"""

import argparse
import sys

from amrdmd import dmd, mesh, pipeline_cli, store
from amrdmd.errors import AmrDmdError, InvalidArgumentError


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("store_dir")
    ap.add_argument("field")
    ap.add_argument("ranks", nargs="*", type=int,
                    default=[5, 10, 15, 30, 45, 60])
    ap.add_argument("--t-start", type=mesh.exact_time, default=None)
    ap.add_argument("--t-end", type=mesh.exact_time, default=None)
    args = ap.parse_args()
    try:
        src = store.read_store(args.store_dir, [args.field], args.t_start, args.t_end)
        Y = store.store_to_snapshot_matrix(src, args.field)
        print(f"{'rank':>6} {'eta_F':>12}")
        for r in args.ranks:
            if r > Y.m:
                print(f"{r:>6} {'(> m, skipped)':>12}")
                continue
            model = dmd.fit(Y, rank=r)
            rec = dmd.reconstruct(model, Y.times)
            print(f"{r:>6} {dmd.errors(Y.data, rec).eta_F:>12.4e}")
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return pipeline_cli.EXIT_USAGE
    except (AmrDmdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return pipeline_cli.EXIT_RUNTIME
    return pipeline_cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
