#!/usr/bin/env python3
"""Byte-compare the CLI outputs of two checkouts of this repository.

    python scripts/compare_outputs.py PARENT CHANGE

For each checkout, in a fresh temporary directory, with
PYTHONPATH=<checkout>/src and OPENBLAS_NUM_THREADS=1, it runs:
  - the benchmark preset's `simulate`, pinned to one CPU and to two
    (os.sched_setaffinity, where the platform has it);
  - `demo indicator`;
  - `project` of the preset's adaptive store onto its reference mesh;
  - the 19 commands of the benchmark's forecast_sweep workload (per
    compartment `dmd fit` on days 3..30 at rank 15, `dmd predict` to day
    44 and `report errors`, then `report qoi`);
  - `simulate` on the preset with max_level = 3, which refines past the
    reference mesh.
It compares every output file but run_manifest.txt, prints the number of
files compared and each path that differs or exists on one side only, and
exits 1 on any difference, 2 when a command fails. Stdlib and the CLI only.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESET = """\
dt = 0.25
dt_o = 0.25
t_end = 44
n_elems = 125
initial_uniform_levels = 2
max_level = 2
remesh_every = 4
"""
COMPARTMENTS = ("s", "e", "i", "r", "d", "c")
EXCLUDED = "run_manifest.txt"      # holds timings and the checkout's path


def commands():
    """(cpus, argv) pairs in run order: cpus is how many CPUs the command is
    pinned to, None for no pinning."""
    mesh = "sim1/projected/mesh_0000.mesh.txt"
    cmds = [(1, ["simulate", "preset.cfg", "sim1"]),
            (2, ["simulate", "preset.cfg", "sim2"]),
            (None, ["demo", "indicator", "demo"]),
            (None, ["project", "sim1/adaptive", mesh, "projected"])]
    for c in COMPARTMENTS:
        cmds += [(None, ["dmd", "fit", "sim1/projected", f"{c}.dmd.txt", "--field", c,
                         "--t-start", "3", "--t-end", "30", "--rank", "15"]),
                 (None, ["dmd", "predict", f"{c}.dmd.txt", f"pred_{c}", "--mesh", mesh,
                         "--until", "44"]),
                 (None, ["report", "errors", "sim1/projected", f"pred_{c}",
                         f"errors_{c}.csv", "--field", c, "--train-end", "30"])]
    cmds += [(None, ["report", "qoi", "sim1/projected", "qoi.csv"]),
             (None, ["simulate", "deep.cfg", "deep"])]
    return cmds


def pinned(cpus):
    """A preexec_fn pinning the child to its first `cpus` allowed CPUs."""
    if cpus is None or not hasattr(os, "sched_setaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))[:cpus]
    return lambda: os.sched_setaffinity(0, allowed)


def run_all(checkout: Path, work: Path) -> None:
    (work / "preset.cfg").write_text(PRESET)
    (work / "deep.cfg").write_text(PRESET.replace("max_level = 2", "max_level = 3"))
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    for cpus, argv in commands():
        proc = subprocess.run([sys.executable, "-m", "amrdmd.pipeline_cli", *argv,
                               "--quiet"], cwd=work, env=env, preexec_fn=pinned(cpus),
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{checkout}: {' '.join(argv)} exited {proc.returncode}:\n"
                  f"{proc.stderr}", file=sys.stderr)
            sys.exit(2)


def outputs(work: Path) -> set:
    return {p.relative_to(work) for p in work.rglob("*")
            if p.is_file() and p.name != EXCLUDED}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout whose outputs are the reference")
    p.add_argument("change", type=Path, help="checkout compared with it")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        works = (Path(a), Path(b))
        for checkout, work in zip((args.parent, args.change), works):
            run_all(checkout.resolve(), work)
        files = outputs(works[0]) | outputs(works[1])
        differ = sorted(f for f in files
                        if not all((w / f).is_file() for w in works)
                        or (works[0] / f).read_bytes() != (works[1] / f).read_bytes())
    print(f"{len(files)} files compared, {len(differ)} differ")
    for f in differ:
        print(f"differs: {f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
