"""Command-line front end: simulate -> project -> dmd fit/predict -> report.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime failure,
4 filesystem safety (existing output without --force).
"""

from __future__ import annotations

import argparse
import sys
import time as _time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import dmd, fem, l2projection, mesh as mesh_mod, qoi_metrics, seird_sim, store
from .errors import (AmrDmdError, ConfigError, InvalidArgumentError,
                     InvalidPlanError, StoreError)
from .fem import FeField

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_FS = 4


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _prepare_out(path, force):
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise FileExistsError(f"{out} exists and is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)
    failed = out / ".failed"
    if failed.exists():
        failed.unlink()
    return out


# ---------------------------------------------------------------------------
# subcommand implementations

def cmd_simulate(args) -> int:
    params, policy, n_elems = store.parse_run_config(args.config)
    out = _prepare_out(args.out_dir, args.force)
    t0 = _time.perf_counter()
    try:
        result = seird_sim.run_seird_amr(params, policy, n_base_elements=n_elems)
        sim_s = _time.perf_counter() - t0
        t1 = _time.perf_counter()
        store.write_store(out / "adaptive",
                          [(t, m, f) for t, (m, f) in
                           zip(result.times, result.adaptive)], force=True)
        store.write_store(out / "projected",
                          [(t, result.reference, f) for t, f in
                           zip(result.times, result.projected)], force=True)
        qoi_metrics.save_qoi_csv(result.population_adaptive,
                                 out / "population_adaptive.csv")
        qoi_metrics.save_qoi_csv(result.population_projected,
                                 out / "population_projected.csv")
        io_s = _time.perf_counter() - t1
        store.write_run_manifest(
            out, command="simulate", seed=args.seed,
            config_snapshot=Path(args.config).read_text().replace("\n", ";"),
            outputs=["adaptive/manifest.txt", "projected/manifest.txt",
                     "population_adaptive.csv", "population_projected.csv"],
            timings={"simulate": sim_s, "write": io_s})
    except Exception:
        store.mark_failed(out)
        raise
    _say(args, f"wrote {len(result.times)} snapshots to {out}")
    return EXIT_OK


def cmd_demo_indicator(args) -> int:
    out = _prepare_out(args.out_dir, args.force)
    t0 = _time.perf_counter()
    try:
        demo = seird_sim.indicator_projection_demo()
        mesh_mod.save_mesh(demo.donor, out / "donor.mesh.txt")
        fem.save_fields([demo.donor_field], out / "donor.field.txt")
        mesh_mod.save_mesh(demo.structured, out / "structured.mesh.txt")
        fem.save_fields([demo.structured_field], out / "structured.field.txt")
        mesh_mod.save_mesh(demo.unstructured, out / "unstructured.mesh.txt")
        fem.save_fields([demo.unstructured_field], out / "unstructured.field.txt")
        (out / "report.txt").write_text("\n".join(demo.report.lines()) + "\n")
        store.write_run_manifest(
            out, command="demo indicator", seed=args.seed, config_snapshot="-",
            outputs=["donor.mesh.txt", "report.txt"],
            timings={"demo": _time.perf_counter() - t0})
    except Exception:
        store.mark_failed(out)
        raise
    for line in demo.report.lines():
        _say(args, line)
    return EXIT_OK


def cmd_project(args) -> int:
    src = store.read_store(args.store_dir)
    target = mesh_mod.load_mesh(args.target_mesh)
    out = _prepare_out(args.out_dir, args.force)
    t0 = _time.perf_counter()
    try:
        ops = {}
        snapshots = []
        for entry in src.entries:
            if entry.mesh_file not in ops:
                ops[entry.mesh_file] = l2projection.build_projection(
                    entry.mesh, target)
            op = ops[entry.mesh_file]
            fields = {}
            worst = 0.0
            for name, values in entry.fields.items():
                u = FeField(entry.mesh, values, name=name)
                proj = l2projection.project(op, u)
                fields[name] = proj.values
                worst = max(worst, l2projection.projection_residual(op, u, proj))
            snapshots.append((entry.time_str, target, fields))
            _say(args, f"snapshot {entry.index}: projection residual {worst:.3e}")
        store.write_store(out, snapshots, force=True)
        store.write_run_manifest(
            out, command="project", seed=args.seed, config_snapshot="-",
            outputs=["manifest.txt"],
            timings={"project": _time.perf_counter() - t0})
    except Exception:
        store.mark_failed(out)
        raise
    return EXIT_OK


def cmd_dmd_fit(args) -> int:
    src = store.read_store(args.store_dir)
    Y = store.store_to_snapshot_matrix(src, args.field,
                                       t_start=args.t_start, t_end=args.t_end)
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
        time_fracs = [Fraction(tok) for tok in args.times.split(",") if tok]
    else:
        t0 = Fraction(repr(model.t0))
        dt = Fraction(repr(model.dt_o))
        until = Fraction(repr(args.until))
        time_fracs = []
        k = 0
        while t0 + k * dt <= until + Fraction(1, 10 ** 9):
            time_fracs.append(t0 + k * dt)
            k += 1
    if not time_fracs:
        raise InvalidArgumentError("no prediction times requested")
    out = _prepare_out(args.out_store, args.force)
    try:
        snapshots = []
        for t in time_fracs:
            vec = dmd.evaluate(model, float(t))
            snapshots.append((t, target, {model.field_name: vec}))
        store.write_store(out, snapshots, force=True)
        store.write_run_manifest(
            out, command="dmd predict", seed=args.seed, config_snapshot="-",
            outputs=["manifest.txt"], timings={})
    except Exception:
        store.mark_failed(out)
        raise
    _say(args, f"wrote {len(time_fracs)} predicted snapshots to {out}")
    return EXIT_OK


def cmd_report_errors(args) -> int:
    truth = store.read_store(args.truth_store)
    approx = store.read_store(args.approx_store)
    field = args.field
    if field is None:
        common = set(truth.field_names) & set(approx.field_names)
        if len(common) != 1:
            raise InvalidArgumentError(
                f"ambiguous field (common: {sorted(common)}); pass --field")
        field = common.pop()
    approx_by_time = {e.time_str: e for e in approx.entries}
    pairs = [(e, approx_by_time[e.time_str]) for e in truth.entries
             if e.time_str in approx_by_time]
    if not pairs:
        raise StoreError("no common snapshot times between the stores")
    Y = np.column_stack([t.fields[field] for t, _ in pairs])
    Yhat = np.column_stack([a.fields[field] for _, a in pairs])
    report = dmd.errors(Y, Yhat)
    with open(args.out_csv, "w") as fh:
        fh.write("time,eta,regime\n")
        for (entry, _), eta in zip(pairs, report.eta_series):
            regime = ("reconstruction" if args.train_end is None
                      or entry.time <= args.train_end + 1e-9 else "prediction")
            fh.write(f"{entry.time_str},{eta:.17g},{regime}\n")
        fh.write(f"eta_F,{report.eta_F:.17g}\n")
    _say(args, f"eta_F = {report.eta_F:.6e} over {len(pairs)} snapshots")
    return EXIT_OK


def cmd_report_qoi(args) -> int:
    src = store.read_store(args.store_dir)
    times = [e.time for e in src.entries]
    dicts = []
    for e in src.entries:
        missing = [c for c in qoi_metrics.COMPARTMENTS if c not in e.fields]
        if missing:
            raise StoreError(f"snapshot {e.index} misses compartments {missing}")
        dicts.append({c: FeField(e.mesh, e.fields[c], name=c)
                      for c in qoi_metrics.COMPARTMENTS})
    series = qoi_metrics.population_series(times, dicts)
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
    fit.add_argument("--t-start", type=float, default=None)
    fit.add_argument("--t-end", type=float, default=None)
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
    when.add_argument("--until", type=float,
                      help="evaluate on the model grid up to this time")
    pred.set_defaults(func=cmd_dmd_predict)

    rep = sub.add_parser("report", help="error and QoI reports")
    rep_sub = rep.add_subparsers(dest="report_command", required=True)

    err = rep_sub.add_parser("errors", parents=[common])
    err.add_argument("truth_store")
    err.add_argument("approx_store")
    err.add_argument("out_csv")
    err.add_argument("--field", default=None)
    err.add_argument("--train-end", type=float, default=None,
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
