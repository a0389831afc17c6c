"""Smoke test of the benchmark harness: the tracing shim's span arithmetic,
its rebinding of by-value imports, and the metric aggregation.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import importlib
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import trace_shim  # noqa: E402

TINY_CONFIG = ("dt = 0.25\ndt_o = 0.25\nt_end = 1\nn_elems = 10\n"
               "initial_uniform_levels = 1\nmax_level = 2\nremesh_every = 2\n")

# Runs a tiny simulate in a child with the tracer installed, checks that
# every span lies inside its parent, and prints the summary as JSON.
TRACED_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import trace_shim
from amrdmd import fem, l2projection, pipeline_cli, seird_sim
tracer = trace_shim.Tracer()
trace_shim.install(tracer)
rebound = {f"{m.__name__}.{a}": hasattr(getattr(m, a), "__wrapped__")
           for m, a in ((fem, "locate_points"), (l2projection, "locate_points"),
                        (l2projection, "cg_solve"), (seird_sim, "cg_solve"),
                        (seird_sim, "refine"))}
code = pipeline_cli.main(["simulate", "tiny.cfg", "sim", "--quiet"])
for s in tracer.spans:
    p = s.parent
    assert s.start <= s.end, s.name
    assert p is None or p.start <= s.start <= s.end <= p.end, (s.name, p.name)
    assert s.end - s.start - s.child_s >= -1e-9, s.name
print(json.dumps({"code": code, "rebound": rebound,
                  "layers": trace_shim.summarize(tracer.spans)}))
"""


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_self_time_arithmetic_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = trace_shim.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("m.inner", lambda: None)

    def outer_fn():
        inner()
        inner()

    outer = tracer.wrap("m.outer", outer_fn)
    rec = None

    def rec_fn(n):
        if n:
            rec(n - 1)

    rec = tracer.wrap("m.rec", rec_fn)
    outer()         # ticks: outer 0, inner 1-2, inner 3-4, outer 5
    rec(2)          # ticks: 6, 7, 8, 9, 10, 11
    got = trace_shim.summarize(tracer.spans)
    assert got["m.outer"] == {"calls": 1, "busy_s": 5, "self_s": 3}
    assert got["m.inner"] == {"calls": 2, "busy_s": 2, "self_s": 2}
    # recursion: busy counts the outermost call once; self times partition it
    assert got["m.rec"] == {"calls": 3, "busy_s": 5, "self_s": 5}


def test_counter_hook_time_is_not_parent_self_time():
    ticks = iter(range(100))
    tracer = trace_shim.Tracer(clock=lambda: next(ticks))

    def slow_hook(span, arguments, result):
        span.count("points", len(arguments["pts"]))
        for _ in range(3):
            tracer.clock()

    leaf = tracer.wrap("m.leaf", lambda pts: None, hook=slow_hook)
    top = tracer.wrap("m.top", lambda: leaf([1, 2, 3]))
    top()
    got = trace_shim.summarize(tracer.spans)
    assert got["m.leaf"]["points"] == 3
    assert got["m.top"]["self_s"] == got["m.top"]["busy_s"] - 5


def test_tiny_simulate_through_the_shim(tmp_path):
    (tmp_path / "tiny.cfg").write_text(TINY_CONFIG)
    out = subprocess.run([sys.executable, "-c", TRACED_CHILD, str(BENCH)],
                         cwd=tmp_path, env=child_env(), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["code"] == 0
    assert all(got["rebound"].values()), got["rebound"]
    layers = got["layers"]
    for name, stats in layers.items():
        assert 0 <= stats["self_s"] <= stats["busy_s"] + 1e-9, name
    assert layers["seird_sim.step"]["calls"] == 4
    assert layers["seird_sim.step"]["cg_solves"] % 6 == 0
    assert layers["fem.cg_solve"]["iters"] >= layers["fem.cg_solve"]["calls"]
    assert layers["seird_sim.remesh_state"]["calls"] == 2
    # by-value copies: remesh transfer reaches fem.locate_points and the
    # projection build reaches l2projection.locate_points
    assert layers["mesh.locate_points"]["calls"] >= 2
    assert layers["store.write_store"]["files"] >= 2 * 5 + 2


def test_shim_writes_a_trace_and_keeps_the_exit_code(tmp_path):
    (tmp_path / "tiny.cfg").write_text(TINY_CONFIG)
    cmd = [sys.executable, str(BENCH / "trace_shim.py"), "t.json", "--",
           "simulate", "tiny.cfg", "sim", "--quiet"]
    ok = subprocess.run(cmd, cwd=tmp_path, env=child_env(), timeout=120)
    assert ok.returncode == 0
    trace = json.loads((tmp_path / "t.json").read_text())
    assert trace["exit_code"] == 0 and trace["startup_s"] > 0
    assert trace["layers"]["pipeline_cli.main"]["calls"] == 1
    again = subprocess.run(cmd, cwd=tmp_path, env=child_env(), timeout=120)
    assert again.returncode == 4            # output exists, no --force


def test_merge_and_derived_metrics():
    a = {"seird_sim.step": {"calls": 2, "self_s": 0.5, "cg_solves": 12},
         "seird_sim.remesh_state": {"calls": 4, "changed": 1, "self_s": 0.1}}
    b = {"seird_sim.step": {"calls": 1, "self_s": 0.25, "cg_solves": 6}}
    merged = bench.merge_layers([a, b])
    assert merged["seird_sim.step"] == {"calls": 3, "self_s": 0.75,
                                        "cg_solves": 18}
    assert bench.counters_of(merged)["seird_sim.step"] == {"calls": 3,
                                                           "cg_solves": 18}
    names = ["seird_sim.step.calls", "seird_sim.step.self_s",
             "seird_sim.step.picard_iters",
             "seird_sim.remesh_state.changed_ratio",
             "l2projection.projects_per_build", "dmd.fit.calls",
             "process.cpu_s"]
    got = bench.per_layer_metrics(names, merged, 1.0, 2.0, 0.1)
    assert got == {"seird_sim.step.calls": 3, "seird_sim.step.self_s": 0.75,
                   "seird_sim.step.picard_iters": 3.0,
                   "seird_sim.remesh_state.changed_ratio": 0.25,
                   "l2projection.projects_per_build": 0.0,
                   "dmd.fit.calls": 0, "process.cpu_s": 2.0}


def test_declared_metrics_are_all_produced():
    spec = bench.load_spec()
    public = set()
    for short in trace_shim.LAYERS:
        mod = importlib.import_module(f"amrdmd.{short}")
        public |= {f"{short}.{n}" for n, o in vars(mod).items()
                   if inspect.isfunction(o) and not n.startswith("_")
                   and o.__module__ == mod.__name__}
    derived = {"seird_sim.step.picard_iters",
               "seird_sim.remesh_state.changed_ratio",
               "l2projection.projects_per_build", "pipeline_cli.startup_s",
               "process.cpu_s", "trace.overhead_s"}
    counters = {"calls", "busy_s", "self_s", "iters", "points", "meshes",
                "changed", "files", "bytes", "values_parsed"}
    for m in spec["per_layer"]:
        if m["name"] not in derived:
            fn, stat = m["name"].rsplit(".", 1)
            assert fn in public and stat in counters, m["name"]
    for names in bench.REQUIRED_LAYERS.values():
        assert set(names) <= public
    proc = bench.Proc("k", 0, 2.0, 1.9, 80.0)
    reps = [bench.Repetition([proc], 2.0, 0.5)]
    e2e = bench.end_to_end_metrics(0.7, reps)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert all(v != 0 for v in e2e.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "indicator_2d", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
