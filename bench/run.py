#!/usr/bin/env python3
"""Benchmark of the amrdmd command line, one workload per invocation.

    python3 bench/run.py --workload seird_simulate --seed 1 --seconds 20 --trace 0

Every command runs in a fresh ``python -m amrdmd.pipeline_cli`` process with
``PYTHONPATH=src`` and BLAS/OpenMP threads pinned to 1, one process at a time,
inside a fresh directory under ``.bench_work/`` of the checkout. The timed part
of a workload is repeated while the ``--seconds`` budget allows and each
repetition's outputs are checked. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
commands also run through ``bench/trace_shim.py`` and the object carries the
per-layer metrics. Metric names and units are read from ``BENCHMARK.json``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after pinning BLAS threads)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIM = BENCH / "trace_shim.py"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

DEADLINE_S = 170.0           # every child is killed after this much run time
SETUP_REPEATS = 5            # cheap set-ups are repeated and the median kept
LAUNCH_ENV = "AMRDMD_BENCH_LAUNCH"

# The paper/acceptance preset: 176 steps, 44 remesh passes, 177 snapshots on
# the 501-node reference mesh.
PRESET_CONFIG = """\
dt = 0.25
dt_o = 0.25
t_end = 44
n_elems = 125
initial_uniform_levels = 2
max_level = 2
remesh_every = 4
"""
N_SNAPSHOTS = 177
COMPARTMENTS = ("s", "e", "i", "r", "d", "c")
POPULATION_TOL = 1e-3
# Acceptance criterion 4: reconstruction bound per compartment on days 3..30,
# and ten times that for the prediction at day 44.
RECON_BOUNDS = {"s": 3.2e-3, "e": 5.2e-2, "i": 2.4e-2,
                "r": 2.9e-2, "d": 4.1e-2, "c": 2.6e-2}
PREDICTION_FACTOR = 10.0
TRAIN = (3.0, 30.0)
HORIZON = 44.0
# Acceptance criterion 2: structured sup-norm 1 +- 0.01; unstructured one in
# [0.98, 1.01], i.e. 0.995 +- 0.015.
INDICATOR_BOUNDS = {"structured_inf_norm": (1.0, 0.01),
                    "unstructured_inf_norm": (0.995, 0.015)}

# Layers each workload must exercise in a traced run (nonzero calls).
REQUIRED_LAYERS = {
    "seird_simulate": (
        "pipeline_cli.main", "seird_sim.run_seird_amr", "seird_sim.step",
        "fem.cg_solve", "seird_sim.remesh_state", "seird_sim.build_amr_plan",
        "fem.flux_jump_indicator", "fem.evaluate_many", "mesh.locate_points",
        "mesh.refine", "l2projection.build_projection", "l2projection.project",
        "qoi_metrics.population_series", "store.write_store",
        "fem.save_fields", "mesh.save_mesh"),
    "forecast_sweep": (
        "pipeline_cli.main", "store.read_store", "fem.load_fields",
        "mesh.load_mesh", "store.store_to_snapshot_matrix", "dmd.fit",
        "dmd.evaluate", "dmd.errors", "dmd.save_model", "dmd.load_model",
        "linalg.svd", "linalg.eig", "store.write_store",
        "qoi_metrics.population_series"),
    "indicator_2d": (
        "pipeline_cli.main", "seird_sim.indicator_projection_demo",
        "mesh.locate_points", "mesh.refine", "l2projection.build_projection",
        "l2projection.project", "fem.cg_solve", "fem.save_fields",
        "mesh.save_mesh"),
}


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# processes

@dataclass
class Proc:
    key: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    problem: str | None = None


def child_env(launch=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    if launch is not None:
        env[LAUNCH_ENV] = repr(launch)
    return env


def launch(key, argv, cwd: Path, started: float) -> Proc:
    """Run argv to completion; wall time, CPU time and peak RSS come from
    wait4 on this one child. The child is killed at the run's deadline."""
    with tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.monotonic()
        p = subprocess.Popen(argv, cwd=cwd, env=child_env(t0),
                             stdin=subprocess.DEVNULL,
                             stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(1.0, DEADLINE_S - (t0 - started)), p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    p.returncode = os.waitstatus_to_exitcode(status)
    proc = Proc(key, p.returncode, wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024.0)
    if proc.code != 0:
        proc.problem = f"exit code {proc.code}: {stderr.strip()[-300:]}"
    elif "Traceback (most recent call last)" in stderr:
        proc.problem = "traceback on stderr"
    return proc


def cli_argv(args, trace_to=None) -> list:
    if trace_to is None:
        return [sys.executable, "-m", "amrdmd.pipeline_cli", *args]
    return [sys.executable, str(SHIM), str(trace_to), "--", *args]


# ---------------------------------------------------------------------------
# plain-text readers for output checks (independent of the library)

def read_store_values(store_dir: Path) -> dict:
    """{time string: {field name: values}} of a snapshot store."""
    out = {}
    for line in (store_dir / "manifest.txt").read_text().splitlines():
        _, t_str, _, field_file = line.split()
        with open(store_dir / field_file) as fh:
            fh.readline()
            names = fh.readline().split()
            table = np.loadtxt(fh, ndmin=2)
        out[t_str] = {n: table[:, j] for j, n in enumerate(names)}
    return out


def manifest_lines(store_dir: Path) -> int:
    return len((store_dir / "manifest.txt").read_text().splitlines())


def csv_rows(path: Path) -> list:
    return [r.split(",") for r in path.read_text().splitlines()[1:]]


def digest(paths) -> str:
    """sha256 over every output file except run_manifest.txt, which holds
    wall-clock timings and a run id."""
    h = hashlib.sha256()
    for top in paths:
        files = sorted(top.rglob("*")) if top.is_dir() else [top]
        for f in files:
            if f.is_file() and f.name != "run_manifest.txt":
                h.update(str(f.relative_to(top.parent)).encode() + b"\0")
                h.update(f.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Command:
    key: str           # names the invocation; stable across repetitions
    args: list         # amrdmd arguments, relative to the repetition dir
    outputs: list      # files or directories the command writes


def check_simulate(sim: Path) -> float:
    """Worst |population - 1| / tol over both population CSVs; raises
    AssertionError on a structural defect."""
    for name in ("adaptive", "projected"):
        n = manifest_lines(sim / name)
        assert n == N_SNAPSHOTS, f"{name} store has {n} snapshots"
    worst = 0.0
    for csv in ("population_adaptive.csv", "population_projected.csv"):
        vals = np.array([float(r[1]) for r in csv_rows(sim / csv)])
        assert vals.size == N_SNAPSHOTS, f"{csv} has {vals.size} rows"
        worst = max(worst, float(np.max(np.abs(vals - 1.0))) / POPULATION_TOL)
    return worst


class Workload:
    name = ""
    # One preset simulate takes 12-20 s, and the speed of a shared 2-core
    # machine swings by up to 30 % between consecutive runs of that length, so
    # seird_simulate times at least two repetitions whatever the --seconds
    # budget. forecast_sweep keeps one: its 19 short processes already
    # average some of that noise, and its set-up costs a whole simulate.
    min_reps = 1

    def __init__(self, run_dir: Path, seed: int):
        self.run_dir = run_dir
        self.seed = seed

    def setup(self, started) -> float:
        """Prepare the inputs; returns the set-up time in seconds."""
        times = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            d = self.run_dir / f"setup{k}"
            d.mkdir()
            self.write_inputs(d)
            warm = launch("import", [sys.executable, "-c",
                                     "import amrdmd.pipeline_cli"], d, started)
            if warm.problem:
                raise SetupError(f"cannot import amrdmd: {warm.problem}")
            times.append(time.perf_counter() - t0)
            shutil.rmtree(d)
        self.write_inputs(self.run_dir)
        return statistics.median(times)

    def write_inputs(self, d: Path) -> None:
        pass

    def commands(self) -> list:
        raise NotImplementedError

    def check(self, it_dir: Path, procs: dict) -> float:
        """Check outputs, setting Proc.problem on failures; returns the
        worst accuracy quantity over its acceptance bound."""
        raise NotImplementedError


class SeirdSimulate(Workload):
    name = "seird_simulate"
    min_reps = 2

    def write_inputs(self, d):
        (d / "run.cfg").write_text(PRESET_CONFIG)

    def commands(self):
        return [Command("simulate", ["simulate", "../run.cfg", "sim"], ["sim"])]

    def check(self, it_dir, procs):
        try:
            return check_simulate(it_dir / "sim")
        except (AssertionError, OSError, ValueError, IndexError) as exc:
            procs["simulate"].problem = f"output check: {exc}"
            return float("inf")


class ForecastSweep(Workload):
    name = "forecast_sweep"
    truth_rel = "../setup/sim/projected"

    def setup(self, started):
        t0 = time.perf_counter()
        d = self.run_dir / "setup"
        d.mkdir()
        (d / "run.cfg").write_text(PRESET_CONFIG)
        sim = launch("setup simulate",
                     cli_argv(["simulate", "run.cfg", "sim", "--seed",
                               str(self.seed), "--quiet"]), d, started)
        setup_s = time.perf_counter() - t0
        if sim.problem:
            raise SetupError(f"setup simulate failed: {sim.problem}")
        try:
            check_simulate(d / "sim")
            self.truth = read_store_values(d / "sim" / "projected")
        except (AssertionError, OSError, ValueError, IndexError) as exc:
            raise SetupError(f"setup store is wrong: {exc}") from exc
        return setup_s

    def commands(self):
        truth, cmds = self.truth_rel, []
        mesh = f"{truth}/mesh_0000.mesh.txt"
        for c in COMPARTMENTS:
            cmds += [
                Command(f"dmd fit {c}",
                        ["dmd", "fit", truth, f"{c}.dmd.txt", "--field", c,
                         "--t-start", "3", "--t-end", "30", "--rank", "15"],
                        [f"{c}.dmd.txt"]),
                Command(f"dmd predict {c}",
                        ["dmd", "predict", f"{c}.dmd.txt", f"pred_{c}",
                         "--mesh", mesh, "--until", "44"], [f"pred_{c}"]),
                Command(f"report errors {c}",
                        ["report", "errors", truth, f"pred_{c}",
                         f"errors_{c}.csv", "--field", c, "--train-end", "30"],
                        [f"errors_{c}.csv"]),
            ]
        cmds.append(Command("report qoi", ["report", "qoi", truth, "qoi.csv"],
                            ["qoi.csv"]))
        return cmds

    def check(self, it_dir, procs):
        worst = 0.0
        for c in COMPARTMENTS:
            try:
                worst = max(worst, self._check_compartment(it_dir, c, procs))
            except (AssertionError, OSError, ValueError, IndexError, KeyError) as exc:
                procs[f"dmd predict {c}"].problem = f"output check: {exc}"
                worst = float("inf")
        try:
            rows = csv_rows(it_dir / "qoi.csv")
            vals = np.array([float(r[1]) for r in rows])
            assert vals.size == N_SNAPSHOTS, f"qoi.csv has {vals.size} rows"
            dev = float(np.max(np.abs(vals - 1.0)))
            assert dev <= POPULATION_TOL, f"population off by {dev:.3e}"
        except (AssertionError, OSError, ValueError, IndexError) as exc:
            procs["report qoi"].problem = f"output check: {exc}"
        return worst

    def _check_compartment(self, it_dir, c, procs):
        pred = read_store_values(it_dir / f"pred_{c}")
        times = [t for t in self.truth if t in pred]
        assert len(times) == len(pred) == 165, f"{len(pred)} predicted snapshots"
        Y = np.column_stack([self.truth[t][c] for t in times])
        Yh = np.column_stack([pred[t][c] for t in times])
        tf = np.array([float(t) for t in times])
        col_eta = np.linalg.norm(Y - Yh, axis=0) / np.linalg.norm(Y, axis=0)
        win = (tf >= TRAIN[0] - 1e-9) & (tf <= TRAIN[1] + 1e-9)
        eta_train = (np.linalg.norm(Y[:, win] - Yh[:, win])
                     / np.linalg.norm(Y[:, win]))
        eta_end = float(col_eta[np.argmin(np.abs(tf - HORIZON))])
        ratio = max(eta_train / RECON_BOUNDS[c],
                    eta_end / (PREDICTION_FACTOR * RECON_BOUNDS[c]))
        if ratio > 1.0:
            procs[f"dmd predict {c}"].problem = (
                f"accuracy: eta_F(3..30)={eta_train:.3e}, eta(44)={eta_end:.3e}")
        # the error report must state the same errors and regimes
        rows = csv_rows(it_dir / f"errors_{c}.csv")
        want_f = np.linalg.norm(Y - Yh) / np.linalg.norm(Y)
        try:
            assert [r[0] for r in rows[:-1]] == times, "time column differs"
            got = np.array([float(r[1]) for r in rows[:-1]])
            assert np.allclose(got, col_eta, rtol=1e-9, atol=1e-15), "eta differs"
            regimes = ["reconstruction" if t <= TRAIN[1] + 1e-9 else "prediction"
                       for t in tf]
            assert [r[2] for r in rows[:-1]] == regimes, "regime labels differ"
            assert rows[-1][0] == "eta_F" and np.isclose(
                float(rows[-1][1]), want_f, rtol=1e-9), "eta_F differs"
        except (AssertionError, ValueError, IndexError) as exc:
            procs[f"report errors {c}"].problem = f"output check: {exc}"
        return ratio


class Indicator2d(Workload):
    name = "indicator_2d"

    def commands(self):
        return [Command("demo indicator", ["demo", "indicator", "demo"], ["demo"])]

    def check(self, it_dir, procs):
        try:
            report = dict(line.split(" = ") for line in
                          (it_dir / "demo" / "report.txt").read_text().splitlines())
            for stem in ("donor", "structured", "unstructured"):
                for ext in ("mesh", "field"):
                    f = it_dir / "demo" / f"{stem}.{ext}.txt"
                    assert f.stat().st_size > 0, f"{f.name} is empty"
            worst = max(abs(float(report[k]) - centre) / tol
                        for k, (centre, tol) in INDICATOR_BOUNDS.items())
        except (AssertionError, OSError, ValueError, KeyError) as exc:
            procs["demo indicator"].problem = f"output check: {exc}"
            return float("inf")
        if worst > 1.0:
            procs["demo indicator"].problem = f"accuracy: error ratio {worst:.3f}"
        return worst


WORKLOADS = {w.name: w for w in (SeirdSimulate, ForecastSweep, Indicator2d)}


# ---------------------------------------------------------------------------
# repetitions

@dataclass
class Repetition:
    procs: list
    wall_s: float
    error_ratio: float
    layers: dict = field(default_factory=dict)
    startup_s: float = 0.0

    @property
    def cpu_s(self):
        return sum(p.cpu_s for p in self.procs)


def run_repetition(wl: Workload, k: int, seed: int, started: float,
                   traced: bool, ledger: "Ledger") -> Repetition:
    it_dir = wl.run_dir / f"it{k}"
    it_dir.mkdir()
    trace_dir = wl.run_dir / f"trace{k}"
    cmds = wl.commands()
    procs = []
    t0 = time.perf_counter()
    for i, cmd in enumerate(cmds):
        trace_to = trace_dir / f"{i}.json" if traced else None
        if traced:
            trace_dir.mkdir(exist_ok=True)
        args = [*cmd.args, "--seed", str(seed), "--quiet"]
        procs.append(launch(cmd.key, cli_argv(args, trace_to), it_dir, started))
    wall = time.perf_counter() - t0
    by_key = {p.key: p for p in procs}
    error_ratio = wl.check(it_dir, by_key)
    for cmd, proc in zip(cmds, procs):
        if proc.problem is None:
            proc.problem = ledger.same_output(
                cmd.key, digest([it_dir / o for o in cmd.outputs]))
    rep = Repetition(procs, wall, error_ratio)
    if traced:
        traces = [json.loads(f.read_text()) for f in sorted(
            trace_dir.glob("*.json"), key=lambda f: int(f.stem))]
        rep.layers = merge_layers(t["layers"] for t in traces)
        rep.startup_s = sum(t["startup_s"] for t in traces)
        shutil.rmtree(trace_dir)
    shutil.rmtree(it_dir)
    return rep


def merge_layers(per_command) -> dict:
    """Sum per-function stats over the commands of one repetition."""
    out = {}
    for layers in per_command:
        for name, stats in layers.items():
            agg = out.setdefault(name, {})
            for key, v in stats.items():
                agg[key] = agg.get(key, 0) + v
    return out


def counters_of(layers: dict) -> dict:
    """The exact part of a trace: every stat that is not a time."""
    return {name: {k: v for k, v in stats.items() if not k.endswith("_s")}
            for name, stats in sorted(layers.items())}


# ---------------------------------------------------------------------------
# determinism ledger, kept per workload and per version of the code

def code_version() -> str:
    h = hashlib.sha256()
    for f in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


class Ledger:
    """Output digests, trace counters and wall times of earlier runs of the
    same code in this checkout, so runs of one invocation can be compared
    across benchmark processes and seeds."""

    def __init__(self, workload: str):
        self.path = WORK / "ledger" / f"{workload}.json"
        self.version = code_version()
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            data = {}
        if data.get("version") != self.version:
            data = {"version": self.version, "digests": {}, "counters": None,
                    "wall_s": []}
        self.data = data

    def same_output(self, key, value) -> str | None:
        seen = self.data["digests"].setdefault(key, value)
        if seen != value:
            return "output differs from an earlier run of the same invocation"
        return None

    def same_counters(self, counters) -> str | None:
        if self.data["counters"] is None:
            self.data["counters"] = counters
        if self.data["counters"] != counters:
            return "trace counters differ from an earlier run of this code"
        return None

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True))
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# environment record

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none (not a git checkout)"


def environment(ledger: Ledger, reps: list) -> dict:
    import platform
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    walls = ledger.data["wall_s"]
    spread = None
    if len(walls) >= 4:
        q = statistics.quantiles(walls, n=4)
        spread = (q[2] - q[0]) / statistics.median(walls)
    wall = sum(r.wall_s for r in reps)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "code_version": ledger.version,
        "cpu_over_wall": sum(r.cpu_s for r in reps) / wall if wall else None,
        "wall_s_history": len(walls),
        "wall_s_iqr_over_median": spread,
    }


# ---------------------------------------------------------------------------
# metrics

def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def end_to_end_metrics(setup_s, reps) -> dict:
    procs = [p for r in reps for p in r.procs]
    failed = sum(p.problem is not None for p in procs)
    return {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "setup_s": setup_s,
        "peak_rss_mb": max(p.rss_mb for p in procs),
        "error_ratio": max(r.error_ratio for r in reps),
        "ops_ok_ratio": 1.0 - failed / len(procs),
    }


def per_layer_metrics(names, layers, startup_s, cpu_s, overhead_s) -> dict:
    """Per-layer metric values; a name is <module>.<function>.<stat> unless
    it is one of the derived ones below."""
    def stat(fn, key):
        return layers.get(fn, {}).get(key, 0.0 if key.endswith("_s") else 0)

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "seird_sim.step.picard_iters": stat("seird_sim.step", "cg_solves") / 6,
        "seird_sim.remesh_state.changed_ratio": ratio(
            stat("seird_sim.remesh_state", "changed"),
            stat("seird_sim.remesh_state", "calls")),
        "l2projection.projects_per_build": ratio(
            stat("l2projection.project", "calls"),
            stat("l2projection.build_projection", "calls")),
        "pipeline_cli.startup_s": startup_s,
        "process.cpu_s": cpu_s,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        else:
            fn, key = name.rsplit(".", 1)
            out[name] = stat(fn, key)
    return out


def average_layers(reps) -> dict:
    """Mean times over traced repetitions; counters are equal across them."""
    out = {}
    for name in reps[0].layers:
        out[name] = {k: (sum(r.layers.get(name, {}).get(k, 0) for r in reps)
                         / len(reps) if k.endswith("_s") else v)
                     for k, v in reps[0].layers[name].items()}
    return out


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()
    spec = load_spec()
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    ledger = Ledger(workload)
    wl = WORKLOADS[workload](run_dir, seed)
    try:
        setup_s = wl.setup(started)
        reps = []
        t0 = time.perf_counter()
        while True:
            reps.append(run_repetition(wl, len(reps), seed, started, False, ledger))
            typical = statistics.median(r.wall_s for r in reps)
            if trace or (len(reps) >= wl.min_reps and
                         time.perf_counter() - t0 + typical > seconds):
                break
        problems = []
        if trace:
            # two traced repetitions with different command seeds: counters
            # must agree with each other and with earlier runs of this code
            traced = [run_repetition(wl, len(reps) + i, seed + i, started,
                                     True, ledger) for i in range(2)]
            counters = [counters_of(r.layers) for r in traced]
            if counters[0] != counters[1]:
                problems.append("trace counters differ between two seeds")
            problems.append(ledger.same_counters(counters[0]))
            idle = [fn for fn in REQUIRED_LAYERS[workload]
                    if traced[0].layers.get(fn, {}).get("calls", 0) == 0]
            if idle:
                problems.append(f"layers recorded no calls: {idle}")
        else:
            ledger.data["wall_s"].append(statistics.median(r.wall_s for r in reps))
        ledger.save()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    measured = reps + (traced if trace else [])
    procs = [p for r in measured for p in r.procs]
    problems += [f"{p.key}: {p.problem}" for p in procs if p.problem]
    problems = [p for p in problems if p]
    failed = sum(p.problem is not None for p in procs)

    for r in measured:
        kind = "traced" if r.layers else "plain"
        print(f"{workload} {kind} repetition: {len(r.procs)} command(s), "
              f"wall {r.wall_s:.3f} s, cpu {r.cpu_s:.3f} s, "
              f"command median {statistics.median(p.wall_s for p in r.procs):.3f} s")
    for problem in problems:
        print(f"FAILED {problem}")
    print("env " + json.dumps(environment(ledger, reps), sort_keys=True))

    if trace:
        wall_plain = statistics.median(r.wall_s for r in reps)
        values = per_layer_metrics(
            [m["name"] for m in spec["per_layer"]], average_layers(traced),
            statistics.mean(r.startup_s for r in traced),
            statistics.median(r.cpu_s for r in reps),
            statistics.mean(r.wall_s for r in traced) - wall_plain)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end_metrics(setup_s, reps)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "correct": not problems,
        "attempted": len(procs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "amrdmd" / "pipeline_cli.py").is_file():
        print(f"error: no amrdmd sources under {SRC}", file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
