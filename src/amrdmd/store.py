"""On-disk snapshot stores and run manifests.

A store is a directory with a ``manifest.txt`` whose lines read
``index time mesh_file field_file``, the indices 0..N-1 in line order and
the times strictly increasing; mesh and field files use the plain text
formats of the mesh and fem modules. Times are carried as exact rationals
(snapshot index times the output interval) and rendered as decimals, so
manifests never accumulate float drift.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import time as _time
import uuid
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import fem, mesh as mesh_mod
from .dmd import SnapshotMatrix
from .errors import InvalidArgumentError, StoreError

TOOL_VERSION = "0.1.0"
# A batch of field files closes once it holds this many values, 24 files of
# six fields on 501 nodes. With two or more CPUs a forked child writes each
# full batch as the snapshots arrive: a fork costs as much as 1500 values.
_BATCH_VALUES = 24 * 6 * 501


def fraction_to_decimal(fr: Fraction) -> str:
    """Exact decimal rendering when the denominator is 2^a 5^b, else the
    shortest float representation."""
    den = fr.denominator
    d2 = d5 = 0
    while den % 2 == 0:
        den //= 2
        d2 += 1
    while den % 5 == 0:
        den //= 5
        d5 += 1
    if den != 1:
        return repr(float(fr))
    shift = max(d2, d5)
    scaled = fr.numerator * 10 ** shift // fr.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    if shift == 0:
        return sign + digits
    out = sign + digits[:-shift] + "." + digits[-shift:]
    out = out.rstrip("0").rstrip(".")
    return out if out not in ("", "-") else "0"


@dataclass
class StoreEntry:
    index: int
    time_str: str
    time: float
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

    def is_uniform(self) -> bool:
        """All snapshots on one mesh (same mesh file)."""
        return len({e.mesh_file for e in self.entries}) <= 1


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
    """Write snapshots, any iterable of (time_fraction, mesh, {name: values})
    consumed once, as a store into out_dir as it is: the caller decides
    whether it may be reused, and marks it failed while it is written.

    Each mesh object is written by this process when it first appears, and
    shared through the manifest. The field files are cut into batches that
    close once they hold _BATCH_VALUES values; if the process may run on two
    or more CPUs, a forked child writes each full batch as soon as it is
    full, so a generator's files are formatted while it computes the next
    snapshots. At most one child per CPU is alive: the oldest is reaped
    before another is forked. This process writes the last batch, and the
    manifest once every child has succeeded. Exceptions are raised in file
    order with their own type and message; an interrupt, or an exception
    from snapshots, kills and reaps the children. With one CPU or no os.fork
    every file is written in process; the bytes do not depend on it. A
    time that does not exceed the one before raises InvalidArgumentError,
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
        for idx, (t_frac, msh, fields) in enumerate(snapshots):
            t_str = t_frac if isinstance(t_frac, str) else fraction_to_decimal(t_frac)
            exact = Fraction(t_str)
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
            if fork and values >= _BATCH_VALUES:
                if len(children) == cpus:
                    _reap_oldest(children, out)
                children.append(_fork_batch(batch))
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


def read_store(store_dir, fields=None, t_start=None, t_end=None) -> Store:
    """Read a store in this process. Every manifest line is checked, but the
    mesh and field files are opened only for the snapshots with
    t_start <= time <= t_end, compared exactly (an omitted bound is open),
    the only entries returned; of each field file only the columns named in
    fields (all when None) are converted. The manifest's invariant: indices
    0..N-1 in line order, exact times strictly increasing, and file names
    inside the store. The first fault in manifest order is raised:
    StoreError for a damaged manifest, mesh or field file, OSError for a
    missing one."""
    root = Path(store_dir)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise StoreError(f"no manifest.txt in {root}")
    if (root / ".failed").exists():
        raise StoreError(f"store {root} is marked failed")
    meshes, entries = {}, []

    def read(_, table):         # the lines before the first fault, in order
        (index, times, mesh_files, field_files), = table
        for k, (i, t_str, mesh_file, field_file) in enumerate(
                zip(index.tolist(), times, mesh_files, field_files)):
            exact = Fraction(t_str)
            if i != k:
                return k, f"index {i} where {k} belongs"
            if k and exact <= Fraction(times[k - 1]):
                return k, f"time {t_str} does not follow {times[k - 1]}"
            for name in (mesh_file, field_file):
                if name in (".", "..") or "/" in name or "\\" in name:
                    return k, f"file name {name!r} leaves the store"
            if not ((t_start is None or exact >= t_start)
                    and (t_end is None or exact <= t_end)):
                continue
            if mesh_file not in meshes:
                meshes[mesh_file] = mesh_mod.load_mesh(root / mesh_file)
            entries.append(StoreEntry(
                index=k, time_str=t_str, time=float(exact), mesh_file=mesh_file,
                field_file=field_file, mesh=meshes[mesh_file],
                fields=fem.load_fields(root / field_file, meshes[mesh_file], fields)))
        return None

    try:        # a mesh or field file's message names it
        mesh_mod._read_table(manifest, "manifest", (), lambda: [(None, "itnn")], read)
    except InvalidArgumentError as exc:
        raise StoreError(str(exc)) from exc
    return Store(path=root, entries=entries)


def store_to_snapshot_matrix(store: Store, field: str) -> SnapshotMatrix:
    """One field of every entry; read_store takes the time window."""
    if not store.is_uniform():
        raise StoreError("store snapshots live on different meshes; project first")
    if len(store.entries) < 2:
        raise StoreError("selected window contains fewer than two snapshots")
    for e in store.entries:
        if field not in e.fields:
            raise StoreError(f"field {field!r} missing from snapshot {e.index}")
    first, second = (Fraction(e.time_str) for e in store.entries[:2])  # exact step
    times = np.array([e.time for e in store.entries])
    gaps = np.diff(times)
    if np.max(np.abs(gaps - gaps[0])) > 1e-9 * abs(gaps[0]):
        raise StoreError("snapshots are not uniformly sampled in the window")
    data = np.column_stack([e.fields[field] for e in store.entries])
    return SnapshotMatrix(data=data, t0=float(times[0]), dt_o=float(second - first),
                          field_name=field)


# ---------------------------------------------------------------------------
# run manifests (not part of the reproducibility contract: they carry
# wall-clock timings; stores, models, and CSVs stay byte-identical)

def write_run_manifest(out_dir, command: str, seed, config_snapshot: str,
                       outputs: list, timings: dict) -> Path:
    out = Path(out_dir)
    for rel in outputs:
        if not (out / rel).exists():
            raise StoreError(f"manifest references missing file {rel}")
    lines = [
        f"run_id = {uuid.uuid4().hex}",
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
    path = out / "run_manifest.txt"
    path.write_text("\n".join(lines) + "\n")
    return path
