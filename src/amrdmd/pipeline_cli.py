"""Command-line front end: simulate -> project -> dmd fit/predict -> report.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime failure or
damaged store, 4 filesystem safety (existing output without --force).
"""

from __future__ import annotations

import argparse
import ctypes
import os
import shutil
import sys
import tempfile
import time as _time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# seird_sim, l2projection and dmd are imported only by the commands that run them
from . import fem, mesh as mesh_mod, qoi_metrics, store
from .errors import (AmrDmdError, ConfigError, InvalidArgumentError,
                     InvalidPlanError, NumericError, StoreError)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_FS = 4
# dmd predict --until writes one field file per time; it refuses more
MAX_PREDICT_TIMES = 100_000


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _remove(path):
    """Remove the tree or the file at path, if there is one."""
    if path.is_dir():
        shutil.rmtree(path)
    path.unlink(missing_ok=True)


@contextmanager
def _published(path, force=False, is_dir=True):
    """Yield <path>.tmp-<pid>, a directory when is_dir, to build the output in,
    its parent directories made; rename it to path once the body succeeds,
    else remove it. Refused before any work: a directory at path when not
    is_dir, and, unless force, a non-empty directory or a file at path when
    is_dir. rename(2) replaces only an empty directory, so a forced one
    moves aside to <path>.old-<pid> first. Both names carry this process's
    pid, so no live process owns one found before the build: it is left by
    a dead one whose pid was reused, and removed."""
    out = Path(os.path.realpath(path))         # a link: replace its target
    tmp, old = (out.parent / f"{out.name}.{tag}-{os.getpid()}" for tag in ("tmp", "old"))
    for stale in (tmp, old):
        _remove(stale)
    if not is_dir and out.is_dir():
        raise FileExistsError(f"{Path(path)} is a directory")
    swap = is_dir and out.exists() and (not out.is_dir() or any(out.iterdir()))
    if swap and not force:
        raise FileExistsError(f"{Path(path)} exists and is not an empty directory "
                              f"(use --force)")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    if is_dir:
        tmp.mkdir()
    try:
        yield tmp
        if swap:
            out.rename(old)
        os.replace(tmp, out)
    finally:                    # nothing after a success
        _remove(tmp)
    _remove(old)


# ---------------------------------------------------------------------------
# subcommand implementations

def cmd_simulate(args) -> int:
    from . import l2projection, seird_sim
    params, policy, n_elems = seird_sim.parse_run_config(args.config)

    def tap(snapshots, terms):
        """Pass snapshots on, appending each one's population term to terms."""
        for snapshot in snapshots:
            terms.append(qoi_metrics.population_term(snapshot))
            yield snapshot

    def spilled(snapshots, spill, kept):
        """Pass snapshots on, appending each one's fields to spill as one raw
        float64 block and (time, mesh, field names) to kept."""
        for snapshot in snapshots:
            t, msh, fields = snapshot
            np.array(list(fields.values()), np.float64).tofile(spill)
            kept.append((t, msh, list(fields)))
            yield snapshot

    def unspilled(kept, spill):
        """The snapshots that spilled passed on, each read back when it is
        reached: raw float64 round-trips bit for bit, and the mesh objects
        are the ones the run made."""
        spill.seek(0)
        for t, msh, names in kept:
            yield t, msh, dict(zip(names, np.fromfile(
                spill, np.float64, len(names) * msh.n_nodes).reshape(len(names), -1)))

    # the spill has no name, so nothing is left of it however the process ends
    with _published(args.out_dir, args.force) as out, \
            tempfile.TemporaryFile(dir=out) as spill:
        t0 = _time.perf_counter()
        # no series is held: each adaptive snapshot goes to the store writer
        # as the run steps (the store is formatted meanwhile) and its fields
        # to the spill; each is read back, projected and passed straight to
        # the projected store's writer
        kept, adaptive_terms, projected_terms = [], [], []
        with np.errstate(all="ignore"):     # steps and store writes check
            store.write_store(out / "adaptive", spilled(tap(seird_sim.run_seird_amr(
                params, policy, n_base_elements=n_elems), adaptive_terms), spill, kept))
        sim_s = _time.perf_counter() - t0
        t1 = _time.perf_counter()
        with np.errstate(all="ignore"):
            projected = l2projection.project_snapshots(unspilled(kept, spill), kept[0][1])
            store.write_store(out / "projected", tap(projected, projected_terms))
        for terms, name in ((adaptive_terms, "adaptive"), (projected_terms, "projected")):
            qoi_metrics.save_qoi_csv(qoi_metrics.population_series(terms),
                                     out / f"population_{name}.csv")
        io_s = _time.perf_counter() - t1
        store.write_run_manifest(
            out, command="simulate", seed=args.seed,
            config_snapshot=Path(args.config).read_text().replace("\n", ";"),
            outputs=["adaptive/manifest.txt", "projected/manifest.txt",
                     "population_adaptive.csv", "population_projected.csv"],
            timings={"simulate": sim_s, "write": io_s})
    _say(args, f"wrote {len(kept)} snapshots to {Path(args.out_dir)}")
    return EXIT_OK


def cmd_demo_indicator(args) -> int:
    from . import seird_sim
    with _published(args.out_dir, args.force) as out:
        t0 = _time.perf_counter()
        report = []
        for name, (msh, values) in seird_sim.indicator_projection_demo().items():
            mesh_mod.save_mesh(msh, out / f"{name}.mesh.txt")
            fem.save_fields(msh, {"chi": values}, out / f"{name}.field.txt")
            report += [f"{name}_elements = {msh.n_elems}",
                       f"{name}_nodes = {msh.n_nodes}",
                       f"{name}_inf_norm = {fem.inf_norm(values):.17g}"]
        (out / "report.txt").write_text("\n".join(report) + "\n")
        store.write_run_manifest(
            out, command="demo indicator", seed=args.seed, config_snapshot="-",
            outputs=["donor.mesh.txt", "report.txt"],
            timings={"demo": _time.perf_counter() - t0})
    for line in report:
        _say(args, line)
    return EXIT_OK


def cmd_project(args) -> int:
    from . import l2projection
    src = store.iter_store(args.store_dir)
    target = mesh_mod.load_mesh(args.target_mesh)
    n_snapshots = 0

    def read():
        nonlocal n_snapshots
        for n_snapshots, e in enumerate(src, 1):
            yield e.time_str, e.mesh, e.fields

    with _published(args.out_dir, args.force) as out:
        t0 = _time.perf_counter()
        store.write_store(out, l2projection.project_snapshots(read(), target))
        store.write_run_manifest(
            out, command="project", seed=args.seed, config_snapshot="-",
            outputs=["manifest.txt"],
            timings={"project": _time.perf_counter() - t0})
    _say(args, f"wrote {n_snapshots} snapshots to {Path(args.out_dir)}")
    return EXIT_OK


def cmd_dmd_fit(args) -> int:
    from . import dmd
    with _published(args.out_model, is_dir=False) as tmp:
        src = store.read_store(args.store_dir, [args.field],
                               t_start=args.t_start, t_end=args.t_end)
        Y = store.store_to_snapshot_matrix(src, args.field)
        model = dmd.fit(Y, rank=args.rank, tau=args.tau,
                        svd_method=args.svd, seed=args.seed,
                        oversample=args.oversample, power_iters=args.power_iters)
        dmd.save_model(model, tmp)
    via = f"randomized svd, seed {args.seed}" if args.svd == "randomized" else "exact svd"
    _say(args, f"fit rank-{model.rank} model ({via}) for field {args.field!r} "
               f"on t in [{float(Y.t0):g}, {float(Y.times[-1]):g}] -> {args.out_model}")
    return EXIT_OK


def cmd_dmd_predict(args) -> int:
    from . import dmd
    model = dmd.load_model(args.model)
    target = mesh_mod.load_mesh(args.mesh)
    if target.n_nodes != model.n:
        raise InvalidArgumentError(
            f"mesh has {target.n_nodes} nodes, model expects {model.n}")
    if args.times is not None:
        time_fracs = [mesh_mod.exact_time(tok) for tok in args.times.split(",")]
    else:
        n = max((args.until - model.t0) // model.dt_o + 1, 0)
        if n > MAX_PREDICT_TIMES:
            raise InvalidArgumentError(f"model {args.model}: --until {float(args.until):g}"
                                       f" is {n} times, more than {MAX_PREDICT_TIMES}")
        time_fracs = [model.t0 + k * model.dt_o for k in range(n)]
    if not time_fracs:
        raise InvalidArgumentError("no prediction times requested")

    def predicted(t):
        with np.errstate(all="ignore"):         # checked on the next line
            vec = dmd.evaluate(model, t)
        if not np.isfinite(vec).all():
            raise NumericError(f"model {args.model}: the prediction at "
                               f"t={store.fraction_to_decimal(t)} is not finite")
        return t, target, {model.field_name: vec}

    with _published(args.out_store, args.force) as out:
        store.write_store(out, map(predicted, time_fracs))  # each as it is written
        store.write_run_manifest(
            out, command="dmd predict", seed=args.seed, config_snapshot="-",
            outputs=["manifest.txt"], timings={})
    _say(args, f"wrote {len(time_fracs)} predicted snapshots to {Path(args.out_store)}")
    return EXIT_OK


def cmd_report_errors(args) -> int:
    from . import dmd
    fields = None if args.field is None else [args.field]
    with _published(args.out_csv, is_dir=False) as tmp, open(tmp, "w") as fh:
        # of the truth, only the snapshots in the approx store's time span are read
        approx = store.read_store(args.approx_store, fields)
        if not approx.entries:
            raise StoreError(f"no snapshots in {approx.path}")
        truth = store.read_store(args.truth_store, fields, t_start=approx.entries[0].time,
                                 t_end=approx.entries[-1].time)
        # "0.25" and "2.500e-01" name one time: every approx time is a truth time
        truth_by_time = {e.time: e for e in truth.entries}
        pairs = [(truth_by_time.get(a.time), a) for a in approx.entries]
        for t, a in pairs:
            if t is None:
                raise StoreError(f"{approx.path}: time {a.time_str} is not a time "
                                 f"of {truth.path}")
        field = args.field
        if field is None:
            common = set(truth.field_names) & set(approx.field_names)
            if len(common) != 1:
                raise InvalidArgumentError(
                    f"ambiguous field (common: {sorted(common)}); pass --field")
            field = common.pop()
        Y, Yhat = store.field_columns(field, (truth.path, [t for t, _ in pairs]),
                                      (approx.path, [a for _, a in pairs]))
        report = dmd.errors(Y, Yhat)
        fh.write("time,eta,regime\n")
        for (entry, _), eta in zip(pairs, report.eta_series):
            regime = ("reconstruction" if args.train_end is None
                      or entry.time <= args.train_end else "prediction")
            fh.write(f"{entry.time_str},{eta:.17g},{regime}\n")
        fh.write(f"eta_F,{report.eta_F:.17g}\n")
    _say(args, f"eta_F = {report.eta_F:.6e} over {len(pairs)} snapshots")
    return EXIT_OK


def cmd_report_qoi(args) -> int:
    terms, incomplete = [], None
    with _published(args.out_csv, is_dir=False) as tmp:
        # the whole store is read before an incomplete snapshot is named, so a
        # damaged file or manifest line anywhere is the fault reported
        for e in store.iter_store(args.store_dir, qoi_metrics.COMPARTMENTS):
            missing = [c for c in qoi_metrics.COMPARTMENTS if c not in e.fields]
            if missing:
                incomplete = incomplete or f"snapshot {e.index} misses compartments {missing}"
            elif incomplete is None:
                terms.append(qoi_metrics.population_term((e.time, e.mesh, e.fields)))
        if incomplete:
            raise StoreError(incomplete)
        series = qoi_metrics.population_series(terms)
        qoi_metrics.save_qoi_csv(series, tmp)
    _say(args, f"population range [{series.values.min():.6f}, "
               f"{series.values.max():.6f}] -> {args.out_csv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized stages (recorded in manifests)")
    common.add_argument("--force", action="store_true",
                        help="replace a non-empty output directory or a file at its path")
    common.add_argument("--quiet", action="store_true", help="suppress progress")

    p = argparse.ArgumentParser(prog="amrdmd", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[common],
                         help="run the SEIRD generator from a config file")
    sim.add_argument("config")
    sim.add_argument("out_dir")
    sim.set_defaults(func=cmd_simulate)

    demo = sub.add_parser("demo", parents=[common], help="built-in demos")
    demo.add_argument("what", choices=["indicator"])
    demo.add_argument("out_dir")
    demo.set_defaults(func=cmd_demo_indicator)

    proj = sub.add_parser("project", parents=[common],
                          help="project a store onto a target mesh")
    proj.add_argument("store_dir")
    proj.add_argument("target_mesh")
    proj.add_argument("out_dir")
    proj.set_defaults(func=cmd_project)

    dmd_p = sub.add_parser("dmd", help="fit or evaluate decomposition models")
    dmd_sub = dmd_p.add_subparsers(dest="dmd_command", required=True)

    fit = dmd_sub.add_parser("fit", parents=[common])
    fit.add_argument("store_dir")
    fit.add_argument("out_model")
    fit.add_argument("--field", required=True)
    fit.add_argument("--t-start", type=mesh_mod.exact_time, default=None)
    fit.add_argument("--t-end", type=mesh_mod.exact_time, default=None)
    rank_group = fit.add_mutually_exclusive_group(required=True)
    rank_group.add_argument("--rank", type=int, default=None)
    rank_group.add_argument("--tau", type=float, default=None)
    fit.add_argument("--svd", choices=["exact", "randomized"], default="exact")
    fit.add_argument("--oversample", type=int, default=10)
    fit.add_argument("--power-iters", type=int, default=2)
    fit.set_defaults(func=cmd_dmd_fit)

    pred = dmd_sub.add_parser("predict", parents=[common])
    pred.add_argument("model")
    pred.add_argument("out_store")
    pred.add_argument("--mesh", required=True,
                      help="mesh file the model snapshots live on")
    when = pred.add_mutually_exclusive_group(required=True)
    when.add_argument("--times", help="comma-separated evaluation times")
    when.add_argument("--until", type=mesh_mod.exact_time,
                      help="evaluate on the model grid up to this time")
    pred.set_defaults(func=cmd_dmd_predict)

    rep = sub.add_parser("report", help="error and QoI reports")
    rep_sub = rep.add_subparsers(dest="report_command", required=True)

    err = rep_sub.add_parser("errors", parents=[common])
    err.add_argument("truth_store")
    err.add_argument("approx_store")
    err.add_argument("out_csv")
    err.add_argument("--field", default=None)
    err.add_argument("--train-end", type=mesh_mod.exact_time, default=None,
                     help="times after this are labelled prediction")
    err.set_defaults(func=cmd_report_errors)

    qoi = rep_sub.add_parser("qoi", parents=[common])
    qoi.add_argument("store_dir")
    qoi.add_argument("out_csv")
    qoi.set_defaults(func=cmd_report_qoi)

    return p


def _unmap_large_blocks():
    """Fix glibc's mmap threshold at its default, 128 KiB, so that every
    larger block, as most arrays are, is mapped on its own and unmapped when
    freed. Left dynamic, the threshold rises to the size of each large block
    freed, up to 32 MiB; the arrays below it then share the heap, and its
    layout, which moves with as little as the length of a path, set the
    demo's peak RSS within about 2 MB. Without glibc this does nothing."""
    try:
        ctypes.CDLL(None).mallopt(-3, 128 * 1024)      # M_MMAP_THRESHOLD
    except (AttributeError, OSError, TypeError):
        pass


def main(argv=None) -> int:
    _unmap_large_blocks()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, InvalidArgumentError, InvalidPlanError) as exc:
        line = getattr(exc, "line_no", None)
        where = f" (line {line})" if line else ""
        print(f"error{where}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FS
    except (AmrDmdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
