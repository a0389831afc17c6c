"""On-disk snapshot stores and run manifests.

A store is a directory with a ``manifest.txt`` whose lines read
``index time mesh_file field_file``; mesh and field files use the plain
text formats of the mesh and fem modules. Times are carried as exact
rationals (snapshot index times the output interval) and rendered as
decimals, so manifests never accumulate float drift.
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
# Each part of a store's files that _run_parts gives a process holds at least
# this many files, so a store of fewer than twice as many is written in-process:
# a fork costs about a millisecond, as much as writing three 501-value files.
_PART_MIN_JOBS = 12


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


def _run_parts(jobs, root) -> list:
    """Return [job() for job in jobs], the jobs spread over the CPUs this
    process may run on.

    The jobs are cut into contiguous parts, one per CPU in the affinity
    mask but at least _PART_MIN_JOBS jobs each. The parent runs the first
    part; a forked child runs each other part and sends back its results, or
    its first exception, pickled through a pipe. Exceptions are raised in job
    order with their own type and message, as the plain loop would raise
    them. Formatting text holds the GIL, so threads would not run the parts
    at once; the children run no threads and no BLAS. One CPU, no
    os.fork or fewer than 2 * _PART_MIN_JOBS jobs keep the plain loop."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = min(cpus, len(jobs) // _PART_MIN_JOBS) if hasattr(os, "fork") else 1
    if parts < 2:
        return [job() for job in jobs]
    cuts = [len(jobs) * k // parts for k in range(parts + 1)]
    children = []                       # [pid or None once reaped, read end]
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _run_child(jobs[lo:hi], w)
            os.close(w)
            children.append([pid, open(r, "rb")])
        results = [job() for job in jobs[:cuts[1]]]
        for child in children:
            data = child[1].read()
            _, status = os.waitpid(child[0], 0)
            child[0] = None
            code = os.waitstatus_to_exitcode(status)
            if code != 0 or not data:
                raise StoreError(f"a worker for store {root} sent no result "
                                 f"(exit status {code})")
            part = pickle.loads(data)      # written by this program's child
            if isinstance(part, Exception):
                raise part
            results += part
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid is not None:         # interrupted or failed: stop the rest
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_child(part, w):
    """Body of a forked worker of _run_parts; leaves with os._exit, so no
    cleanup of the parent runs twice."""
    status = 1
    try:
        try:
            message = [job() for job in part]
        except Exception as exc:
            message = exc
        data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        with open(w, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def write_store(out_dir, snapshots) -> Path:
    """Write snapshots [(time_fraction, mesh, {name: values})] as a store,
    into out_dir as it is: the caller decides whether it may be reused.

    Repeated mesh objects are written once and shared through the manifest.
    The files are written on every CPU the process may use (see _run_parts),
    and the manifest only once all of them are.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mesh_files = {}
    lines = []
    jobs = []
    for idx, (t_frac, msh, fields) in enumerate(snapshots):
        key = id(msh)
        if key not in mesh_files:
            name = f"mesh_{len(mesh_files):04d}.mesh.txt"
            jobs.append(functools.partial(mesh_mod.save_mesh, msh, out / name))
            mesh_files[key] = name
        field_name = f"snap_{idx:04d}.field.txt"
        jobs.append(functools.partial(fem.save_fields, msh, fields, out / field_name))
        t_str = t_frac if isinstance(t_frac, str) else fraction_to_decimal(t_frac)
        lines.append(f"{idx} {t_str} {mesh_files[key]} {field_name}")
    _run_parts(jobs, out)
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")
    (out / ".failed").unlink(missing_ok=True)       # written whole: valid again
    return out


def read_store(store_dir, fields=None, t_start=None, t_end=None) -> Store:
    """Read a store in this process. Every manifest line is checked, but the
    mesh and field files are opened only for the snapshots with
    t_start <= time <= t_end, compared exactly (an omitted bound is open),
    the only entries returned; of each field file only the columns named in
    fields (all when None) are converted. The first fault in manifest order
    is raised: StoreError for a damaged manifest, mesh or field file, OSError
    for a missing one."""
    root = Path(store_dir)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise StoreError(f"no manifest.txt in {root}")
    if (root / ".failed").exists():
        raise StoreError(f"store {root} is marked failed")
    mesh_cache = {}
    entries = []
    index_lines = {}
    for line_no, raw in enumerate(manifest.read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split()
        try:
            if len(parts) != 4:
                raise ValueError("expected 'index time mesh_file field_file'")
            idx, t_str, mesh_file, field_file = parts
            index, time = int(idx), float(exact := Fraction(t_str))
            for name in (mesh_file, field_file):
                if name in (".", "..") or "/" in name or "\\" in name:
                    raise ValueError(f"file name {name!r} leaves the store")
            if index_lines.setdefault(index, line_no) != line_no:
                raise ValueError(f"index {index} repeats line {index_lines[index]}")
        except (ValueError, OverflowError) as exc:
            raise StoreError(f"malformed line {line_no} of {manifest}: "
                             f"{raw!r} ({exc})") from exc
        if not ((t_start is None or exact >= t_start)
                and (t_end is None or exact <= t_end)):
            continue
        try:
            if mesh_file not in mesh_cache:
                mesh_cache[mesh_file] = mesh_mod.load_mesh(root / mesh_file)
            msh = mesh_cache[mesh_file]
            read = fem.load_fields(root / field_file, msh, fields)
        except InvalidArgumentError as exc:     # its message names the file
            raise StoreError(str(exc)) from exc
        entries.append(StoreEntry(index=index, time_str=t_str, time=time,
                                  mesh_file=mesh_file, field_file=field_file, mesh=msh,
                                  fields=read))
    entries.sort(key=lambda e: e.index)
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
    times = np.array([e.time for e in store.entries])
    gaps = np.diff(times)
    if np.max(np.abs(gaps - gaps[0])) > 1e-9 * abs(gaps[0]):
        raise StoreError("snapshots are not uniformly sampled in the window")
    data = np.column_stack([e.fields[field] for e in store.entries])
    first, second = (Fraction(e.time_str) for e in store.entries[:2])  # exact step
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
