"""Print the statement lines of ``src/fractree`` that the test suite never runs.

The script runs pytest over ``tests/`` in this process under ``sys.settrace``
and ``threading.settrace``, recording line events only in the files of
``src/fractree``.  It then prints every statement line that never ran as
``file:line: source``.  Statement lines come from an ``ast`` walk of each
file, with docstrings left out.  Code that runs in a child process, such as
the CLI tests that start ``python -m fractree``, is not seen.  It needs
nothing beyond the standard library and pytest:

    python3 tests/line_trace.py [pytest arguments]

Without arguments pytest gets ``-q -p no:cacheprovider
--continue-on-collection-errors tests``.  The exit status is pytest's.  The
trace makes the suite about four times slower, so this is a development
tool, not a test.
"""

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "fractree")


def statement_lines(path):
    """{line: source text} of every statement in ``path`` but docstrings."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.add(first)
    lines = text.splitlines()
    return {
        node.lineno: lines[node.lineno - 1].strip()
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and node not in docstrings
    }


def run_traced(args):
    """Run pytest with ``args`` under the trace: (exit status, lines run),
    the lines as a set of (absolute path, line)."""
    ran = set()
    inside = {}  # co_filename -> whether it lies under SOURCE

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        hit = inside.get(name)
        if hit is None:
            # some frames, such as logging's shutdown hook, have no file name
            hit = inside[name] = bool(name) and os.path.abspath(name).startswith(SOURCE + os.sep)
        return line if hit else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), {(os.path.abspath(name), n) for name, n in ran}


def main(argv):
    sys.path.insert(0, os.path.dirname(SOURCE))  # trace this checkout's package
    args = argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                    os.path.join(ROOT, "tests")]
    status, ran = run_traced(args)
    never = 0
    for name in sorted(os.listdir(SOURCE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SOURCE, name)
        for lineno, text in sorted(statement_lines(path).items()):
            if (path, lineno) not in ran:
                print(f"{os.path.relpath(path, ROOT)}:{lineno}: {text}")
                never += 1
    print(f"{never} statement lines never ran", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
