"""Run one amrdmd command with every public function of the library traced.

Usage, from the repository root with ``PYTHONPATH=src``::

    python bench/trace_shim.py TRACE_JSON -- <amrdmd arguments>

The shim imports the layer modules, replaces each public module-level
function with a wrapper that records a span (name, start, end, parent span)
and then calls ``amrdmd.pipeline_cli.main`` with the given arguments. Several
modules import functions by value (``from .mesh import locate_points``), so
every attribute of every ``amrdmd`` module that is bound to a wrapped
function is rebound to its wrapper; otherwise the remesh transfer through
``fem.evaluate_many`` -> ``fem.locate_points`` would go unseen.

Spans stay in memory; when the command ends the shim writes one JSON object
to TRACE_JSON with per-function ``calls``, ``busy_s`` (outermost spans of
that name only, so recursion is not counted twice), ``self_s`` (duration
minus the part covered by child spans) and exact counters. The shim exits
with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAUNCH_ENV = "AMRDMD_BENCH_LAUNCH"
LAYERS = ("pipeline_cli", "seird_sim", "mesh", "fem", "l2projection",
          "linalg", "dmd", "qoi_metrics", "store")


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "outermost",
                 "counters")

    def __init__(self, name, parent, outermost):
        self.name = name
        self.parent = parent
        self.outermost = outermost
        self.child_s = 0.0
        self.counters = {}
        self.start = self.end = 0.0

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.depth = {}          # name -> open spans of that name
        self.meshes = {}         # id -> mesh, held so ids are never reused

    def wrap(self, name, fn, hook=None):
        """Wrap fn in a span named name; hook(span, arguments, result) adds
        counters after the span ends, and its cost is kept out of the
        parent's self time."""
        stack, depth, clock = self.stack, self.depth, self.clock
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            open_same = depth.get(name, 0)
            span = Span(name, parent, open_same == 0)
            depth[name] = open_same + 1
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                depth[name] = open_same
                self.spans.append(span)
                if parent is not None:
                    parent.child_s += span.end - span.start
            if hook is not None:
                hook(span, sig.bind(*args, **kwargs).arguments, result)
                if parent is not None:
                    parent.child_s += clock() - span.end
            return result

        return traced

    def count_in_open_span(self, span_name, key):
        """Count one event against the innermost open span if it is named
        span_name."""
        if self.stack and self.stack[-1].name == span_name:
            self.stack[-1].count(key)


def summarize(spans) -> dict:
    """Aggregate spans into {name: {calls, busy_s, self_s, <counters>}}."""
    out = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        dur = s.end - s.start
        agg["calls"] += 1
        agg["self_s"] += dur - s.child_s
        if s.outermost:
            agg["busy_s"] += dur
        for key, n in s.counters.items():
            agg[key] = agg.get(key, 0) + n
    return out


# ---------------------------------------------------------------------------
# counters (exact; bytes are computed from the sizes of files on disk)

def _hooks(tracer: Tracer) -> dict:
    def points(span, a, result):
        span.count("points", len(a["pts"]))

    def located(span, a, result):
        span.count("points", len(a["pts"]))
        if id(a["mesh"]) not in tracer.meshes:
            tracer.meshes[id(a["mesh"])] = a["mesh"]
            span.count("meshes")

    def cg_in_step(span, a, result):
        if span.parent is not None and span.parent.name == "seird_sim.step":
            span.parent.count("cg_solves")

    def remeshed(span, a, result):
        span.count("changed", int(result is not a["state"]))

    def wrote_store(span, a, result):
        files = [p for p in Path(result).iterdir() if p.is_file()]
        span.count("files", len(files))
        span.count("bytes", sum(p.stat().st_size for p in files))

    def wrote_file(span, a, result):
        span.count("bytes", os.path.getsize(a["path"]))

    def read_store(span, a, result):
        files = {"manifest.txt"}
        values = 0
        meshes = {}
        for e in result.entries:
            files.update((e.mesh_file, e.field_file))
            meshes[e.mesh_file] = e.mesh
            values += sum(v.size for v in e.fields.values())
        values += sum(m.nodes.size + m.elements.size for m in meshes.values())
        span.count("bytes", sum(os.path.getsize(result.path / f) for f in files))
        span.count("values_parsed", values)

    return {
        "fem.evaluate_many": points,
        "mesh.locate_points": located,
        "fem.cg_solve": cg_in_step,
        "seird_sim.remesh_state": remeshed,
        "store.write_store": wrote_store,
        "fem.save_fields": wrote_file,
        "mesh.save_mesh": wrote_file,
        "fem.load_fields": wrote_file,
        "store.read_store": read_store,
    }


def install(tracer: Tracer) -> dict:
    """Wrap the public functions of every layer module and rebind every
    by-value copy of them; returns {qualified name: wrapper}."""
    import amrdmd
    from amrdmd import fem

    modules = {name: importlib.import_module(f"amrdmd.{name}")
               for name in LAYERS}
    hooks = _hooks(tracer)
    wrappers = {}
    by_original = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            wrappers[name] = tracer.wrap(name, obj, hooks.get(name))
            by_original[obj] = wrappers[name]
    for mod in [amrdmd, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in by_original:
                setattr(mod, attr, by_original[obj])

    plain_dot = fem.SparseSpd.dot

    def dot(self, x):
        tracer.count_in_open_span("fem.cg_solve", "iters")
        return plain_dot(self, x)

    fem.SparseSpd.dot = dot
    return wrappers


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace_shim.py TRACE_JSON -- <amrdmd arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_args = Path(argv[0]), argv[2:]
    launched = float(os.environ.get(LAUNCH_ENV, time.monotonic()))
    importlib.import_module("amrdmd.pipeline_cli")   # start-up, not tracing
    t_install = time.monotonic()
    tracer = Tracer()
    cli_main = install(tracer)["pipeline_cli.main"]
    install_s = time.monotonic() - t_install
    t_main = time.monotonic()
    code = None
    try:
        code = cli_main(cli_args)
    finally:
        trace = {
            "argv": cli_args,
            "exit_code": code,
            "startup_s": t_main - launched - install_s,
            "install_s": install_s,
            "spans": len(tracer.spans),
            "layers": summarize(tracer.spans),
        }
        out_path.write_text(json.dumps(trace, indent=1, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
