"""Parse argvs both ways ``fractree.cli`` can, and report where they differ.

``cli._parse_args``, which ``main`` calls, reads an argv that names a
command and then gives only its positionals and exact ``--flag value``
pairs from the command's declarations, without argparse, and hands every
other argv to the full tree, ``cli._parser()``.  The tree alone is the
reference: for each argv both must exit with the same code, print the
same stdout and stderr, and return the same namespace.  No pytest is
needed, so the check runs under any Python the package supports:

    COLUMNS=80 PYTHONPATH=src python3 tests/cli_dispatch.py < cases.json

reads a JSON list of ``[argv, env]`` cases, where ``env`` holds the
FRACTREE_* variables to set (every other one is unset), and prints a JSON
list of the cases that differ, each with both outcomes; ``[]`` means none.
"""

import contextlib
import io
import json
import os
import sys

import fractree.cli as cli


def _tree(argv):
    return cli._parser().parse_args(argv)


def _outcome(parse, argv):
    """(exit code or None, stdout, stderr, namespace as a dict or None)."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def _unset_fractree_variables():
    for name in [name for name in os.environ if name.startswith("FRACTREE_")]:
        del os.environ[name]


def differences(cases):
    """The cases whose two outcomes differ, as (argv, env, one, tree)."""
    found = []
    saved = {name: value for name, value in os.environ.items() if name.startswith("FRACTREE_")}
    try:
        for argv, env in cases:
            _unset_fractree_variables()
            os.environ.update(env)
            one, tree = _outcome(cli._parse_args, argv), _outcome(_tree, argv)
            if one != tree:
                found.append((argv, env, one, tree))
    finally:
        _unset_fractree_variables()
        os.environ.update(saved)
    return found


if __name__ == "__main__":
    found = differences(json.load(sys.stdin))
    print(json.dumps([[argv, env, repr(one), repr(tree)] for argv, env, one, tree in found]))
