#!/usr/bin/env python3
"""End-to-end SEIRD experiment: adaptive simulation, projection onto the
reference mesh, per-compartment model fits, 14-day extrapolation, and an
error table.

Usage: python scripts/run_seird_pipeline.py [out_dir]
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from amrdmd import dmd, pipeline_cli, store

COMPARTMENTS = ("s", "e", "i", "r", "d", "c")
TRAIN_START, TRAIN_END, HORIZON = Fraction(3), Fraction(30), Fraction(44)
RANK = 15

CONFIG = """\
dt = 0.25
dt_o = 0.25
t_end = 44.0
n_elems = 125
initial_uniform_levels = 2
max_level = 2
remesh_every = 4
refine_fraction = 0.3
coarsen_fraction = 0.05
"""


def run(*argv):
    code = pipeline_cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(code)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out_dir", nargs="?", default="out/seird_pipeline",
                   help="directory for every artifact (default: %(default)s)")
    root = Path(p.parse_args(argv).out_dir)
    root.mkdir(parents=True, exist_ok=True)
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG)

    t0 = time.perf_counter()
    run("simulate", cfg, root / "sim", "--force", "--quiet")
    print(f"simulation + projection: {time.perf_counter() - t0:.1f} s")

    mesh_file = root / "sim" / "projected" / "mesh_0000.mesh.txt"
    print(f"{'field':>6} {'eta_F (train)':>14} {'eta at day 44':>14}")
    for c in COMPARTMENTS:
        model = root / f"{c}.dmd.txt"
        run("dmd", "fit", root / "sim" / "projected", model, "--field", c,
            "--t-start", TRAIN_START, "--t-end", TRAIN_END,
            "--rank", RANK, "--quiet")
        pred = root / f"pred_{c}"
        run("dmd", "predict", model, pred, "--mesh", mesh_file,
            "--until", HORIZON, "--force", "--quiet")
        run("report", "errors", root / "sim" / "projected", pred,
            root / f"errors_{c}.csv", "--field", c,
            "--train-end", TRAIN_END, "--quiet")

        truth, approx = ({e.time: e.fields[c]
                          for e in store.read_store(path, [c]).entries}
                         for path in (root / "sim" / "projected", pred))
        train = [t for t in truth if TRAIN_START <= t <= TRAIN_END and t in approx]
        Y = np.column_stack([truth[t] for t in train])
        Yh = np.column_stack([approx[t] for t in train])
        eta_f = dmd.errors(Y, Yh).eta_F
        final = truth[HORIZON]
        eta44 = np.linalg.norm(final - approx[HORIZON]) / np.linalg.norm(final)
        print(f"{c:>6} {eta_f:>14.3e} {eta44:>14.3e}")
    print(f"artifacts in {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
