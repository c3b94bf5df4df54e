"""Compare an operation's observed record with its pinned record.

Everything is compared exactly, except the stats report's ``pagerank``
float, which may differ by at most ``PAGERANK_TOL``: its power iteration may
be replaced by the exact mean 1/n.
"""

from __future__ import annotations

import copy
from time import perf_counter

PAGERANK_TOL = 1e-9


def _pop_pagerank(record: dict):
    return record["report"]["report"]["graph_measures"].pop("pagerank")


def compare(observed: dict, expected: dict | None) -> list[str]:
    """Return the differences between two records; empty means the check passed."""
    if expected is None:
        return ["no pinned output for this operation"]
    problems = []
    if "report" in expected:
        observed, expected = copy.deepcopy(observed), copy.deepcopy(expected)
        try:
            got, want = _pop_pagerank(observed), _pop_pagerank(expected)
        except (KeyError, TypeError) as exc:
            return [f"stats report lacks graph_measures.pagerank: {exc!r}"]
        if not abs(got - want) <= PAGERANK_TOL:
            problems.append(f"pagerank {got!r} differs from {want!r} by more than {PAGERANK_TOL}")
    for key in sorted(set(observed) | set(expected)):
        if observed.get(key) != expected.get(key):
            problems.append(f"{key}: got {_short(observed.get(key))}, expected {_short(expected.get(key))}")
    return problems


def _short(value, limit: int = 200) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def run_ops(ops, expected: dict, recorder=None):
    """Run each operation once, in order, and check its output.

    Only ``op.run`` is timed.  An operation fails when it raises, or when its
    observed record differs from ``expected[op.key]``; an unexpected exit
    code is part of the record.  Returns (seconds, attempted, failed,
    problems, counts), where counts sums what the operations observed.
    """
    wall = 0.0
    failed = 0
    problems: list[str] = []
    counts: dict[str, int] = {}
    for op in ops:
        if recorder is not None:
            recorder.enabled = True
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            problems.append(f"{op.key}: raised {exc!r}")
            continue
        finally:
            wall += perf_counter() - t0
        if recorder is not None:
            recorder.enabled = False
        try:
            record, op_counts = op.observe(result)
            errs = compare(record, expected.get(op.key))
        except Exception as exc:
            op_counts, errs = {}, [f"output unreadable: {exc!r}"]
        if errs:
            failed += 1
            problems.extend(f"{op.key}: {e}" for e in errs)
        for name, value in op_counts.items():
            counts[name] = counts.get(name, 0) + value
    return wall, len(ops), failed, problems, counts
