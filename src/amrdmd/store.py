"""On-disk snapshot stores and run manifests.

A store is a directory with a ``manifest.txt`` whose lines read
``index time mesh_file field_file``, the indices 0..N-1 in line order and
the times strictly increasing; mesh and field files use the plain text
formats of the mesh and fem modules. Times are exact Fractions with a
finite decimal, written by mesh.fraction_to_decimal and read back by
mesh.exact_time, so no time ever passes through a float.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import time as _time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import fem, mesh as mesh_mod
from .errors import InvalidArgumentError, StoreError
from .mesh import exact_time, fraction_to_decimal

TOOL_VERSION = "0.1.0"
# A batch of field files closes once it holds this many values, 24 files of
# six fields on 501 nodes. With two or more CPUs a forked child writes each
# full batch as the snapshots arrive: a fork costs as much as 1500 values.
_BATCH_VALUES = 24 * 6 * 501


@dataclass
class StoreEntry:
    index: int
    time_str: str               # the manifest's text
    time: Fraction
    mesh_file: str
    field_file: str
    mesh: object
    fields: dict


@dataclass
class Store:
    path: Path
    entries: list

    @property
    def field_names(self):
        return list(self.entries[0].fields) if self.entries else []


def _fork_batch(jobs) -> list:
    """Fork a child that runs jobs and sends back its first exception, or
    None, pickled through a pipe; returns [pid, read end]. The child leaves
    with os._exit, so no cleanup of the parent runs twice. Formatting text
    holds the GIL, so threads would not overlap it; the children run no
    threads and no BLAS."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            message = None
            try:
                for job in jobs:
                    job()
            except Exception as exc:
                message = exc
            with open(w, "wb") as fh:
                fh.write(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return [pid, open(r, "rb")]


def _reap_oldest(children, root):
    """Wait for the oldest child, close its pipe and drop it; raise the
    exception it sent, or StoreError when it sent nothing."""
    child = children[0]
    with child[1] as pipe:
        data = pipe.read()
    _, status = os.waitpid(child[0], 0)
    children.pop(0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        raise StoreError(f"a worker for store {root} sent no result "
                         f"(exit status {code})")
    message = pickle.loads(data)        # written by this program's child
    if message is not None:
        raise message


def _in_order(children, root, jobs):
    """Run jobs in this process. The children hold earlier files, so when a
    job fails they are reaped first: the first failure in file order is the
    one raised."""
    try:
        for job in jobs:
            job()
    except Exception:
        while children:
            _reap_oldest(children, root)
        raise


def write_store(out_dir, snapshots) -> Path:
    """Write snapshots, any iterable of (time, mesh, {name: values})
    consumed once, as a store into out_dir, made if it does not exist.

    Each mesh object is written by this process when it first appears, and
    shared through the manifest. The field files are cut into batches that
    close once they hold _BATCH_VALUES values, and each full batch is
    written and dropped at once, so no snapshot outlives its batch: if the
    process may run on two or more CPUs, by a forked child, so a generator's
    files are formatted while it computes the next snapshots. At most one
    child per CPU is alive: the oldest is reaped before another is forked.
    This process writes the last batch, and the manifest once every child
    has succeeded. Exceptions are raised in file order with their own type
    and message; an interrupt, or an exception from snapshots, kills and
    reaps the children. With one CPU or no os.fork every file is written in
    process; the bytes do not depend on it. A time, a Fraction (or float)
    written as its exact decimal or a decimal text written as it is, that
    has none or does not exceed the one before raises InvalidArgumentError,
    and no manifest is written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    fork = cpus > 1 and hasattr(os, "fork")
    meshes = {}                 # id -> (mesh, file): held, so no id is reused
    lines, batch, children = [], [], []     # children: [pid, pipe], oldest first
    values = 0                  # in the batch
    try:
        for idx, (t, msh, fields) in enumerate(snapshots):
            exact = exact_time(t) if isinstance(t, str) else Fraction(t)
            t_str = t if isinstance(t, str) else fraction_to_decimal(exact)
            if lines and exact <= last:
                raise InvalidArgumentError(f"snapshot {idx} at time {t_str} does not "
                                           f"follow {lines[-1].split()[1]}")
            last = exact
            if id(msh) not in meshes:
                meshes[id(msh)] = msh, f"mesh_{len(meshes):04d}.mesh.txt"
                _in_order(children, out, [functools.partial(
                    mesh_mod.save_mesh, msh, out / meshes[id(msh)][1])])
            field_file = f"snap_{idx:04d}.field.txt"
            batch.append(functools.partial(fem.save_fields, msh, fields,
                                           out / field_file))
            lines.append(f"{idx} {t_str} {meshes[id(msh)][1]} {field_file}")
            values += msh.n_nodes * len(fields)
            if values >= _BATCH_VALUES:
                if fork:
                    if len(children) == cpus:
                        _reap_oldest(children, out)
                    children.append(_fork_batch(batch))
                else:
                    _in_order(children, out, batch)
                batch, values = [], 0
        _in_order(children, out, batch)
        while children:
            _reap_oldest(children, out)
    finally:
        for pid, pipe in children:      # interrupted or failed: stop the rest
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")
    return out


def iter_store(store_dir, fields=None, t_start=None, t_end=None):
    """The snapshots of a store as StoreEntry objects, each read when it is
    reached. Every manifest line is checked before this returns, but the
    mesh and field files are opened only for the snapshots with
    t_start <= time <= t_end, compared exactly (an omitted bound is open),
    the only entries yielded; each mesh file is loaded once, when it is
    first named, and of each field file only the columns named in fields
    (all when None) are converted. The manifest's invariant: indices 0..N-1
    in line order, times (see mesh.exact_time) strictly increasing, and file
    names inside the store. The first fault in manifest order is raised, a
    manifest fault at once when no entry comes before it, else once those
    entries are yielded: StoreError for a damaged manifest, mesh or field
    file, OSError for a missing one."""
    root = Path(store_dir)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise StoreError(f"no manifest.txt in {root}")
    if (root / ".failed").exists():     # older versions marked it while written
        raise StoreError(f"store {root} is marked failed")
    rows = []                   # (index, time text, time, mesh, field) in the window

    def check(_, table):        # the lines before the first fault, in order
        (index, times, mesh_files, field_files), = table
        for k, (i, t_str, mesh_file, field_file) in enumerate(
                zip(index.tolist(), times, mesh_files, field_files)):
            exact = Fraction(t_str)             # a time token, by _read_table
            if i != k:
                return k, f"index {i} where {k} belongs"
            if k and exact <= Fraction(times[k - 1]):
                return k, f"time {t_str} does not follow {times[k - 1]}"
            for name in (mesh_file, field_file):
                if name in (".", "..") or "/" in name or "\\" in name:
                    return k, f"file name {name!r} leaves the store"
            if ((t_start is None or exact >= t_start)
                    and (t_end is None or exact <= t_end)):
                rows.append((k, t_str, exact, mesh_file, field_file))
        return None

    try:
        mesh_mod._read_table(manifest, "manifest", (), lambda: [(None, "itnn")], check)
        fault = None
    except InvalidArgumentError as exc:
        if not rows:            # no file comes before it
            raise StoreError(str(exc)) from exc
        fault = exc

    def entries():
        meshes = {}
        for k, t_str, exact, mesh_file, field_file in rows:
            try:        # a mesh or field file's message names it
                if mesh_file not in meshes:
                    meshes[mesh_file] = mesh_mod.load_mesh(root / mesh_file)
                values = fem.load_fields(root / field_file, meshes[mesh_file], fields)
            except InvalidArgumentError as exc:
                raise StoreError(str(exc)) from exc
            yield StoreEntry(index=k, time_str=t_str, time=exact, mesh_file=mesh_file,
                             field_file=field_file, mesh=meshes[mesh_file], fields=values)
        if fault is not None:
            raise StoreError(str(fault)) from fault

    return entries()


def read_store(store_dir, fields=None, t_start=None, t_end=None) -> Store:
    """Every entry of iter_store(store_dir, fields, t_start, t_end), read in
    this process."""
    return Store(path=Path(store_dir), entries=list(
        iter_store(store_dir, fields, t_start, t_end)))


def field_columns(field: str, *runs) -> list:
    """The columns of field, one (n_nodes, len(entries)) array for each run
    (path, entries) of entries read from the store at path, the first run
    not empty. Every entry must hold field, and every mesh the nodes of the
    first entry's mesh, compared exactly and once per mesh object, whatever
    its file is called; else StoreError."""
    first_path, first = runs[0][0], runs[0][1][0]
    seen = set()
    for path, entries in runs:
        for e in entries:
            if field not in e.fields:
                raise StoreError(f"field {field!r} missing from {path / e.field_file}")
            if id(e.mesh) not in seen:
                seen.add(id(e.mesh))
                if not np.array_equal(e.mesh.nodes, first.mesh.nodes):
                    raise StoreError(
                        f"{path / e.mesh_file} (t={e.time_str}) and "
                        f"{first_path / first.mesh_file} (t={first.time_str}) "
                        f"are different meshes; project first")
    return [np.column_stack([e.fields[field] for e in entries])
            for _, entries in runs]


def store_to_snapshot_matrix(store: Store, field: str) -> SnapshotMatrix:
    """One field of every entry, on one node set (see field_columns);
    read_store takes the time window, which is uniform when every gap
    equals the first exactly."""
    from .dmd import SnapshotMatrix     # only the commands that fit load dmd
    if len(store.entries) < 2:
        raise InvalidArgumentError("selected window contains fewer than two snapshots")
    data, = field_columns(field, (store.path, store.entries))
    times = [e.time for e in store.entries]
    gaps = {b - a for a, b in zip(times, times[1:])}
    if len(gaps) > 1:
        raise StoreError("snapshots are not uniformly sampled in the window")
    return SnapshotMatrix(data=data, t0=times[0], dt_o=gaps.pop(), field_name=field)


# ---------------------------------------------------------------------------
# run manifests (not part of the reproducibility contract: they carry
# wall-clock timings; stores, models, and CSVs stay byte-identical)

def write_run_manifest(out_dir, command: str, seed, config_snapshot: str,
                       outputs: list, timings: dict) -> None:
    out = Path(out_dir)
    for rel in outputs:
        if not (out / rel).exists():
            raise StoreError(f"manifest references missing file {rel}")
    lines = [
        f"run_id = {os.urandom(16).hex()}",
        f"tool_version = {TOOL_VERSION}",
        f"command = {command}",
        f"seed = {seed}",
        f"created_unix = {_time.time():.3f}",
        f"config = {config_snapshot}",
    ]
    for stage, secs in timings.items():
        lines.append(f"time_{stage}_s = {secs:.3f}")
    for rel in outputs:
        lines.append(f"output = {rel}")
    (out / "run_manifest.txt").write_text("\n".join(lines) + "\n")
