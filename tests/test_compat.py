"""The package on the oldest Python that pyproject.toml declares, 3.10,
and the CLI's argument dispatch on every CPython >= 3.10 at hand."""

import ast
import glob
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest
from test_cli import dispatch_cases

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Builds (2,2,3/4) as `fractree build` does, saves and reloads it, and
# prints the SHA-256 of the reloaded space's JSON text twice: as json_text,
# the standard library's indented dump, gives it for the whole document and
# as the stored-space writer does, from that dump of the header and one
# template per record.
_ROUND_TRIP = """
import hashlib, json
from fractions import Fraction
from fractree import BuildConfig, Parameters, build, completeness_threshold
from fractree.builder import from_json_dict, json_text, space_json_text, to_json_dict

params = Parameters.white_noise(2, 2, Fraction(3, 4))
ms = build(params, BuildConfig(maxh=completeness_threshold(params)))
back = from_json_dict(json.loads(space_json_text(ms)))
for text in (json_text(to_json_dict(back)), space_json_text(back)):
    print(hashlib.sha256(text.encode()).hexdigest())
"""

ROUND_TRIP_DIGEST = "c0c2f7846d54ed5d2165cf69745bb11321430e54ec50be2f7201f2c41068c790"


def _python_3_10():
    """A CPython 3.10: python3.10 on PATH if it reports 3.10, otherwise one
    under ~/.pyenv/versions; None when neither runs."""
    pyenv = glob.glob(os.path.expanduser("~/.pyenv/versions/3.10*/bin/python3.10"))
    for exe in filter(None, [shutil.which("python3.10"), *sorted(pyenv)]):
        try:
            got = subprocess.run(
                [exe, "-c", "import sys; print(sys.implementation.name, *sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if got.returncode == 0 and got.stdout.split() == ["cpython", "3", "10"]:
            return exe
    return None


def _round_trip_digests(exe: str, path: list[str]) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    got = subprocess.run(
        [exe, "-c", _ROUND_TRIP], capture_output=True, text=True, env=env, timeout=300
    )
    assert got.returncode == 0, got.stderr
    return got.stdout.split()


def test_round_trip_on_python_3_10(tmp_path):
    exe = _python_3_10()
    if exe is None:
        pytest.skip("no CPython 3.10: none on PATH reports 3.10, none under ~/.pyenv/versions")
    # the round trip never calls numpy, which a bare 3.10 may lack
    (tmp_path / "numpy.py").write_text('"""Empty stand-in for numpy."""\n')
    both = [ROUND_TRIP_DIGEST] * 2
    assert _round_trip_digests(sys.executable, [str(SRC)]) == both
    assert _round_trip_digests(exe, [str(tmp_path), str(SRC)]) == both


# Builds a space and exits with it parked in a global and in a reference
# cycle, so its symbols are finalized while the interpreter shuts down.
_PARKED = """
from fractions import Fraction
from fractree import BuildConfig, Parameters, build, completeness_threshold

params = Parameters.white_noise(2, 2, Fraction(3, 4))
SPACE = build(params, BuildConfig(maxh=completeness_threshold(params)))
SPACE.cycle = [SPACE]
"""


@pytest.mark.parametrize("python", ["host", "3.10"])
def test_clean_shutdown_with_live_symbols(tmp_path, python):
    exe, path = sys.executable, [str(SRC)]
    if python == "3.10":
        exe = _python_3_10()
        if exe is None:
            pytest.skip("no CPython 3.10: none on PATH reports 3.10, none under ~/.pyenv/versions")
        # the build never calls numpy, which a bare 3.10 may lack
        (tmp_path / "numpy.py").write_text('"""Empty stand-in for numpy."""\n')
        path.insert(0, str(tmp_path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    got = subprocess.run(
        [exe, "-c", _PARKED], capture_output=True, text=True, env=env, timeout=300
    )
    assert (got.returncode, got.stderr) == (0, "")


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Each name the module imports and never references, as "line name".

    A reference is a name in an expression or a string constant equal to it,
    as in ``__all__``; an import whose lines carry ``# noqa: F401`` is kept
    on purpose.
    """
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        unused += [f"{node.lineno} {name}" for name in names if name not in used]
    return unused


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func: ast.AST):
    """The nodes of ``func``'s body outside any function or class it defines."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _unread_locals(path: pathlib.Path) -> list[str]:
    """Each local a function assigns and never reads, as "line function name".

    A read anywhere inside the function counts, in a nested function too;
    names that start with ``_`` and names declared global or nonlocal are
    exempt.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {
            node.id
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        outer = set()
        stored = {}
        for node in _own_nodes(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
        unread += [
            f"{line} {func.name} {name}"
            for name, line in stored.items()
            if name not in read and name not in outer and not name.startswith("_")
        ]
    return unread


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_every_local_is_read(path):
    assert _unread_locals(path) == []


def _unreferenced_private_defs(paths: list[pathlib.Path]) -> list[str]:
    """Each module-level function or class of ``paths`` whose name starts
    with ``_`` and that no code in ``paths`` references outside its own
    body, as "file:line name".

    A reference is a name, an attribute or a name another module imports.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths}
    refs = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs += [(path, node, alias.name) for alias in node.names]
    dead = []
    for path, tree in trees.items():
        for defn in tree.body:
            if not (isinstance(defn, _SCOPES) and defn.name.startswith("_")):
                continue
            own = set(map(id, ast.walk(defn)))
            if not any(
                name == defn.name and not (where == path and id(node) in own)
                for where, node, name in refs
            ):
                dead.append(f"{path.name}:{defn.lineno} {defn.name}")
    return dead


def test_every_private_definition_is_referenced():
    assert _unreferenced_private_defs(sorted(SRC.rglob("*.py"))) == []


def test_unreferenced_private_definition_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _orphan(n):\n    return _orphan(n - 1)\n\n\ndef _used():\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from a import _used\n")
    assert _unreferenced_private_defs([tmp_path / "a.py", tmp_path / "b.py"]) == ["a.py:1 _orphan"]


def _pyenv_pythons():
    """Each ~/.pyenv/versions/3.X.Y/bin/python3 with X >= 10, by version."""
    found = []
    for exe in glob.glob(os.path.expanduser("~/.pyenv/versions/3.*/bin/python3")):
        version = pathlib.Path(exe).parent.parent.name
        parts = version.split(".")
        if len(parts) == 3 and all(part.isdigit() for part in parts) and int(parts[1]) >= 10:
            found.append((tuple(map(int, parts)), exe))
    return [exe for _, exe in sorted(found)]


@pytest.mark.parametrize(
    "exe", _pyenv_pythons(), ids=lambda exe: pathlib.Path(exe).parent.parent.name
)
def test_cli_dispatch_matches_the_tree(tmp_path, exe):
    # argparse's handling of `--` and of arguments left over changed across
    # 3.10-3.13: main's reader must still say what the tree says under each
    got = subprocess.run(
        [exe, "-c", "import sys, platform; print(platform.python_implementation(), *sys.version_info[:2])"],
        capture_output=True, text=True, timeout=60,
    )
    if got.returncode != 0 or got.stdout.split()[:1] != ["CPython"]:
        pytest.skip(f"{exe} is not a CPython that runs")
    (tmp_path / "numpy.py").write_text('"""Empty stand-in for numpy."""\n')
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join([str(tmp_path), str(SRC)]))
    got = subprocess.run(
        [exe, str(TESTS / "cli_dispatch.py")], input=json.dumps(dispatch_cases()),
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert got.returncode == 0, got.stderr
    assert json.loads(got.stdout) == []
