"""A pytest plugin that lists the statements of src/convka no test reaches.

Run: ``PYTHONPATH=src:tests python -m pytest -q -p trace_lines``.  It traces
line events with ``sys.settrace`` from before the conftest files import the
package, and stops tracing a function once all its lines have run.  At the end it prints each unreached statement outside ``ALLOWED``, and
each entry there that names no block, and fails the run.  Tracing makes the
suite about two and a half times slower, so the plain tier-1 run does not
load it; it sees only in-process tests.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "convka"

# (file, block header) -> why the statements in that block's body may stay unreached
ALLOWED = {
    ("catoid.py", "def __repr__(self):"): "debugging aid; pytest shows it only on a failure",
    ("convolution.py", "def __repr__(self):"): "debugging aid; pytest shows it only on a failure",
    ("higher.py", "def __repr__(self):"): "debugging aid; pytest shows it only on a failure",
    ("report.py", "def __repr__(self):"): "debugging aid; pytest shows it only on a failure",
    ("catoid.py", "if obj is None:"): "the descriptor read off the class, as help() does",
    ("cli.py", "except BrokenPipeError:"): "needs a closed stdout: a subprocess test and CI",
    ("cli.py", 'if __name__ == "__main__":'): "python -m convka.cli: the subprocess tests",
}

hits = set()  # (file, line) of every line event
todo = {}  # code object -> its lines not yet run; tracing it stops once empty


def _line(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        todo[frame.f_code].discard(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    lines = todo.get(code)
    if lines is None:  # a function's def line runs in its caller, not in its own frame
        lines = todo[code] = {n for _, _, n in code.co_lines() if n} - {code.co_firstlineno} \
            if code.co_filename.startswith(str(SRC)) else set()
    return _line if lines else None


def unreached():
    """(file, line, text) of each statement with bytecode that never ran,
    but for the bodies of the blocks in ``ALLOWED``, then (file, 0, header)
    of each entry of ``ALLOWED`` that names no block."""
    named = set()
    for path in sorted(SRC.glob("*.py")):
        text, name = path.read_text(), str(path)
        lines, codes = set(), [compile(text, name, "exec")]
        while codes:  # every line that has bytecode, in every nested code object
            code = codes.pop()
            lines.update(n for _, _, n in code.co_lines() if n)
            codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        source, nodes, allowed = text.splitlines(), list(ast.walk(ast.parse(text))), set()
        for node in nodes:
            if not isinstance(node, (ast.stmt, ast.excepthandler)) or not hasattr(node, "body"):
                continue
            key = path.name, source[node.lineno - 1].strip()
            if key in ALLOWED:
                named.add(key)
                allowed.update(s.lineno for b in node.body for s in ast.walk(b)
                               if isinstance(s, ast.stmt))
        for node in nodes:
            n = getattr(node, "lineno", None)
            if isinstance(node, ast.stmt) and n in lines - allowed and (name, n) not in hits:
                yield path.name, n, source[n - 1].strip()
    for path, header in ALLOWED.keys() - named:
        yield path, 0, f"allowed, but no block starts {header!r}"


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    """Start tracing before the conftest files import the package."""
    sys.settrace(_call)
    threading.settrace(_call)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    missed = sorted(set(unreached()))
    for path, n, text in missed:
        print(f"\nunreached: src/convka/{path}:{n}: {text}", end="")
    print(f"\ntrace_lines: {len(missed)} unreached statements outside the allow-list")
    if missed:
        session.exitstatus = 1
