"""Command-line front end: simulate -> project -> dmd fit/predict -> report.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime failure or
damaged store, 4 filesystem safety (existing output without --force).
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time as _time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

# seird_sim and l2projection are imported only by the commands that run them
from . import dmd, fem, mesh as mesh_mod, qoi_metrics, store
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


def _refuse_existing(path, force):
    """FileExistsError unless path is free, empty, or may be reused."""
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise FileExistsError(f"{out} exists and is not empty (use --force)")
    return out


@contextmanager
def _output_dir(path, force, sub_stores=()):
    """Create (or, with force, reuse) the output directory and yield it.
    It and its sub_stores are marked failed until the body completes, so
    a run that fails, is killed or is interrupted leaves no store readable;
    the markers are cleared sub-stores first."""
    out = _refuse_existing(path, force)
    marked = (*(out / s for s in sub_stores), out)
    for d in marked:
        d.mkdir(parents=True, exist_ok=True)
        (d / ".failed").touch()
    yield out
    for d in marked:
        (d / ".failed").unlink()


def exact_time(text):
    """Exact rational time from command-line text; must be a finite number.
    Also an argparse type: its refusal is a ValueError."""
    try:
        t = Fraction(text)
        float(t)
    except (ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"bad time {text!r}: {exc}") from exc
    return t


# ---------------------------------------------------------------------------
# subcommand implementations

def cmd_simulate(args) -> int:
    from . import l2projection, seird_sim
    params, policy, n_elems = seird_sim.parse_run_config(args.config)
    # readers open the sub-stores, so a failed forced rerun marks them too
    with _output_dir(args.out_dir, args.force, ("adaptive", "projected")) as out:
        t0 = _time.perf_counter()
        with np.errstate(all="ignore"):     # steps and store writes check
            # the adaptive store is formatted while the run steps; tee keeps
            # every snapshot for the projection and the CSVs
            run, kept = itertools.tee(seird_sim.run_seird_amr(
                params, policy, n_base_elements=n_elems))
            store.write_store(out / "adaptive", run)
            adaptive = list(kept)
            projected, _ = l2projection.project_snapshots(adaptive, adaptive[0][1])
        sim_s = _time.perf_counter() - t0
        t1 = _time.perf_counter()
        store.write_store(out / "projected", projected)
        for name, snapshots in (("adaptive", adaptive), ("projected", projected)):
            qoi_metrics.save_qoi_csv(qoi_metrics.population_series(snapshots),
                                     out / f"population_{name}.csv")
        io_s = _time.perf_counter() - t1
        store.write_run_manifest(
            out, command="simulate", seed=args.seed,
            config_snapshot=Path(args.config).read_text().replace("\n", ";"),
            outputs=["adaptive/manifest.txt", "projected/manifest.txt",
                     "population_adaptive.csv", "population_projected.csv"],
            timings={"simulate": sim_s, "write": io_s})
    _say(args, f"wrote {len(adaptive)} snapshots to {out}")
    return EXIT_OK


def cmd_demo_indicator(args) -> int:
    from . import seird_sim
    with _output_dir(args.out_dir, args.force) as out:
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
    src = store.read_store(args.store_dir)
    target = mesh_mod.load_mesh(args.target_mesh)
    with _output_dir(args.out_dir, args.force) as out:
        t0 = _time.perf_counter()
        projected, residuals = l2projection.project_snapshots(
            [(e.time_str, e.mesh, e.fields) for e in src.entries], target)
        for entry, worst in zip(src.entries, residuals):
            _say(args, f"snapshot {entry.index}: projection residual {worst:.3e}")
        store.write_store(out, projected)
        store.write_run_manifest(
            out, command="project", seed=args.seed, config_snapshot="-",
            outputs=["manifest.txt"],
            timings={"project": _time.perf_counter() - t0})
    return EXIT_OK


def cmd_dmd_fit(args) -> int:
    src = store.read_store(args.store_dir, [args.field],
                           t_start=args.t_start, t_end=args.t_end)
    Y = store.store_to_snapshot_matrix(src, args.field)
    model = dmd.fit(Y, rank=args.rank, tau=args.tau,
                    svd_method=args.svd, seed=args.seed,
                    oversample=args.oversample, power_iters=args.power_iters)
    dmd.save_model(model, args.out_model)
    via = f"randomized svd, seed {args.seed}" if args.svd == "randomized" else "exact svd"
    _say(args, f"fit rank-{model.rank} model ({via}) for field {args.field!r} "
               f"on t in [{Y.t0:g}, {Y.times[-1]:g}] -> {args.out_model}")
    return EXIT_OK


def cmd_dmd_predict(args) -> int:
    model = dmd.load_model(args.model)
    target = mesh_mod.load_mesh(args.mesh)
    if target.n_nodes != model.n:
        raise InvalidArgumentError(
            f"mesh has {target.n_nodes} nodes, model expects {model.n}")
    if args.times:
        time_fracs = [exact_time(tok) for tok in args.times.split(",") if tok]
        if any(b <= a for a, b in zip(time_fracs, time_fracs[1:])):
            raise InvalidArgumentError(f"--times must strictly increase: {args.times}")
    else:
        t0 = Fraction(repr(model.t0))
        dt = Fraction(repr(model.dt_o))
        n = max((args.until - t0) // dt + 1, 0)
        if n > MAX_PREDICT_TIMES:
            raise InvalidArgumentError(f"model {args.model}: --until {float(args.until):g}"
                                       f" is {n} times, more than {MAX_PREDICT_TIMES}")
        time_fracs = [t0 + k * dt for k in range(n)]
    if not time_fracs:
        raise InvalidArgumentError("no prediction times requested")
    _refuse_existing(args.out_store, args.force)
    snapshots = []              # all evaluated before the output exists
    for t in time_fracs:
        with np.errstate(all="ignore"):         # checked on the next line
            vec = dmd.evaluate(model, float(t))
        if not np.isfinite(vec).all():
            raise NumericError(f"model {args.model}: the prediction at "
                               f"t={store.fraction_to_decimal(t)} is not finite")
        snapshots.append((t, target, {model.field_name: vec}))
    with _output_dir(args.out_store, args.force) as out:
        store.write_store(out, snapshots)
        store.write_run_manifest(
            out, command="dmd predict", seed=args.seed, config_snapshot="-",
            outputs=["manifest.txt"], timings={})
    _say(args, f"wrote {len(time_fracs)} predicted snapshots to {out}")
    return EXIT_OK


def cmd_report_errors(args) -> int:
    fields = None if args.field is None else [args.field]
    truth = store.read_store(args.truth_store, fields)
    approx = store.read_store(args.approx_store, fields)
    field = args.field
    if field is None:
        common = set(truth.field_names) & set(approx.field_names)
        if len(common) != 1:
            raise InvalidArgumentError(
                f"ambiguous field (common: {sorted(common)}); pass --field")
        field = common.pop()
    # "0.25" and "2.500e-01" name one time: pair by the exact value
    approx_by_time = {Fraction(e.time_str): e for e in approx.entries}
    pairs = [(e, a) for e in truth.entries
             if (a := approx_by_time.get(Fraction(e.time_str))) is not None]
    if not pairs:
        raise StoreError("no common snapshot times between the stores")
    meshes = {}
    for t, a in pairs:
        for src, e in ((truth, t), (approx, a)):
            if field not in e.fields:
                raise StoreError(f"field {field!r} missing from "
                                 f"{src.path / e.field_file}")
            meshes.setdefault(src.path / e.mesh_file, e)
    first = pairs[0][0]
    for path, e in meshes.items():
        if not np.array_equal(e.mesh.nodes, first.mesh.nodes):
            raise StoreError(f"{path} (t={e.time_str}) and {truth.path / first.mesh_file} "
                             f"(t={first.time_str}) are different meshes; project first")
    Y = np.column_stack([t.fields[field] for t, _ in pairs])
    Yhat = np.column_stack([a.fields[field] for _, a in pairs])
    report = dmd.errors(Y, Yhat)
    with open(args.out_csv, "w") as fh:
        fh.write("time,eta,regime\n")
        for (entry, _), eta in zip(pairs, report.eta_series):
            regime = ("reconstruction" if args.train_end is None
                      or Fraction(entry.time_str) <= args.train_end else "prediction")
            fh.write(f"{entry.time_str},{eta:.17g},{regime}\n")
        fh.write(f"eta_F,{report.eta_F:.17g}\n")
    _say(args, f"eta_F = {report.eta_F:.6e} over {len(pairs)} snapshots")
    return EXIT_OK


def cmd_report_qoi(args) -> int:
    src = store.read_store(args.store_dir, qoi_metrics.COMPARTMENTS)
    for e in src.entries:
        missing = [c for c in qoi_metrics.COMPARTMENTS if c not in e.fields]
        if missing:
            raise StoreError(f"snapshot {e.index} misses compartments {missing}")
    series = qoi_metrics.population_series(
        [(e.time, e.mesh, e.fields) for e in src.entries])
    qoi_metrics.save_qoi_csv(series, args.out_csv)
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
                        help="overwrite non-empty output directories")
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
    fit.add_argument("--t-start", type=exact_time, default=None)
    fit.add_argument("--t-end", type=exact_time, default=None)
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
    when.add_argument("--until", type=exact_time,
                      help="evaluate on the model grid up to this time")
    pred.set_defaults(func=cmd_dmd_predict)

    rep = sub.add_parser("report", help="error and QoI reports")
    rep_sub = rep.add_subparsers(dest="report_command", required=True)

    err = rep_sub.add_parser("errors", parents=[common])
    err.add_argument("truth_store")
    err.add_argument("approx_store")
    err.add_argument("out_csv")
    err.add_argument("--field", default=None)
    err.add_argument("--train-end", type=exact_time, default=None,
                     help="times after this are labelled prediction")
    err.set_defaults(func=cmd_report_errors)

    qoi = rep_sub.add_parser("qoi", parents=[common])
    qoi.add_argument("store_dir")
    qoi.add_argument("out_csv")
    qoi.set_defaults(func=cmd_report_qoi)

    return p


def main(argv=None) -> int:
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
