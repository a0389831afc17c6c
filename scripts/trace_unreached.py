#!/usr/bin/env python3
"""Count the statements of src/amrdmd that a pytest run never reaches.

    python scripts/trace_unreached.py [pytest arguments]

Runs pytest from the repository root (with no arguments, the whole suite)
under a line tracer, stdlib sys.settrace only. The tracer is installed by a
sitecustomize module put first on PYTHONPATH, so every interpreter the tests
start with that PYTHONPATH, the CLI subprocesses included, records the lines
of src/amrdmd it runs and writes them out at exit. It also wraps os._exit,
so a forked process that leaves through it, as the store's writers do,
writes its lines out first.

An ast pass then counts each statement inside a function body as reached
when one of its lines ran: a simple statement by any of its lines, a
compound statement by its header lines (a `try:` line included). Docstrings
and global or nonlocal declarations are not counted. It prints every
unreached statement as file:line and the count. It exits with pytest's
status, or 1 when pytest passed but a statement was never reached.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "amrdmd"

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_dump, _prefix = os.environ.get("AMRDMD_TRACE_DUMP"), os.environ.get("AMRDMD_TRACE_PREFIX")
if _dump and _prefix:
    _lines, _traced = set(), {}

    def _line(frame, event, arg):
        if event == "line":
            _lines.add((frame.f_code.co_filename, frame.f_lineno))
        return _line

    def _call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in _traced:
            _traced[name] = os.path.realpath(name).startswith(_prefix)
        return _line if _traced[name] else None

    @atexit.register
    def _write():
        sys.settrace(None)
        out = os.path.join(_dump, f"{os.getpid()}-{os.urandom(4).hex()}.txt")
        with open(out, "w") as fh:
            fh.writelines(f"{os.path.realpath(f)}\\t{n}\\n" for f, n in _lines)

    def _exit(status, _leave=os._exit):     # skips atexit: write first
        try:
            _write()
        finally:
            _leave(status)

    os._exit = _exit

    sys.settrace(_call)
    threading.settrace(_call)
'''


def statement_spans(tree):
    """(first, last) line of the part of each statement in a function body
    whose running marks it reached, docstrings left out."""
    spans = []

    def visit(body, in_function):
        for k, node in enumerate(body):
            docstring = (k == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            # a global or nonlocal declaration compiles to no code
            declaration = isinstance(node, (ast.Global, ast.Nonlocal))
            inner = getattr(node, "body", None)
            if in_function and not docstring and not declaration:
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", [])])
                last = node.end_lineno
                if isinstance(inner, list) and inner:   # compound: its header
                    last = max(first, inner[0].lineno - 1)
                spans.append((first, last))
            function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            blocks = [getattr(node, f, []) for f in ("body", "orelse", "finalbody")]
            blocks += [h.body for h in getattr(node, "handlers", [])]
            blocks += [c.body for c in getattr(node, "cases", [])]
            for block in blocks:
                if isinstance(block, list):
                    visit(block, in_function or function)

    visit(tree.body, False)
    return spans


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        hook, dump = Path(tmp, "hook"), Path(tmp, "dump")
        hook.mkdir()
        dump.mkdir()
        (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = dict(os.environ, AMRDMD_TRACE_DUMP=str(dump),
                   AMRDMD_TRACE_PREFIX=str(PACKAGE.resolve()) + os.sep,
                   PYTHONPATH=os.pathsep.join(
                       [str(hook), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        status = subprocess.run([sys.executable, "-m", "pytest", "-q", *argv],
                                cwd=ROOT, env=env).returncode
        ran = set()
        for part in dump.iterdir():
            for row in part.read_text().splitlines():
                name, line = row.rsplit("\t", 1)
                ran.add((name, int(line)))
    total, unreached = 0, []
    for path in sorted(PACKAGE.resolve().glob("*.py")):
        source = path.read_text()
        for first, last in statement_spans(ast.parse(source)):
            total += 1
            if not any((str(path), n) in ran for n in range(first, last + 1)):
                unreached.append(f"{path.relative_to(ROOT.resolve())}:{first}: "
                                 f"{source.splitlines()[first - 1].strip()}")
    print("\n".join(unreached))
    print(f"{len(unreached)} of {total} statements in function bodies of "
          f"src/amrdmd never ran")
    return status or int(bool(unreached))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
