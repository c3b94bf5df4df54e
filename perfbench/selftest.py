"""Self-test of the output checks: wrong outputs must count as failed operations.

    python3 perfbench/selftest.py

Feeds ``check.run_ops`` operations that "observe" the pinned records with one
defect each -- a wrong scan row, a stats pagerank off by 1e-6, an operation
that raises -- and requires each to be counted as one failed operation, while
the pinned records themselves, and a pagerank within the 1e-9 tolerance, pass.
Needs neither a build nor the package.
"""

import copy
import json
import os
import sys
from types import SimpleNamespace

import check

HERE = os.path.dirname(os.path.realpath(__file__))


def failed_ops(key: str, record: dict, pins: dict) -> int:
    op = SimpleNamespace(key=key, run=lambda: None, observe=lambda _result: (record, {}))
    return check.run_ops([op], pins)[2]


def raising_op() -> None:
    raise RuntimeError("injected failure")


def main() -> int:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    scan, stats = pins["scan-22"], pins["stats-sweep"]
    key = "stats 2 2 3/4"

    wrong_row = copy.deepcopy(scan["scan"])
    wrong_row["rows"]["37/50"] = ["19", "1916", "true"]
    pagerank_off = copy.deepcopy(stats[key])
    pagerank_off["report"]["report"]["graph_measures"]["pagerank"] += 1e-6
    pagerank_close = copy.deepcopy(stats[key])
    pagerank_close["report"]["report"]["graph_measures"]["pagerank"] += 1e-12
    raises = SimpleNamespace(key="scan", run=raising_op, observe=None)

    cases = [
        ("pinned scan record", failed_ops("scan", scan["scan"], scan), 0),
        ("wrong scan row 37/50", failed_ops("scan", wrong_row, scan), 1),
        ("pinned stats report", failed_ops(key, stats[key], stats), 0),
        ("pagerank off by 1e-6", failed_ops(key, pagerank_off, stats), 1),
        ("pagerank off by 1e-12", failed_ops(key, pagerank_close, stats), 0),
        ("operation that raises", check.run_ops([raises], scan)[2], 1),
    ]
    ok = True
    for name, got, want in cases:
        status = "ok" if got == want else "WRONG"
        ok = ok and got == want
        print(f"{status:5} {name}: {got} failed operation(s), expected {want}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
