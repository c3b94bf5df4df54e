"""One pass of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD --seed N --workdir DIR [--spans FILE]
    PYTHONPATH=src python3 perfbench/worker.py --setup-only

Prints one JSON line: the set-up time (import numpy, then fractree.cli), the
pass's wall time, the reference time (see ``reference``), the process's peak
RSS, the operations attempted and failed, and with --spans the per-layer
numbers of the traced pass, whose spans are written to FILE.  ``run.py``
starts this script once per pass, so every pass starts as cold as a CLI
process.
"""

import sys
import time

_t0 = time.perf_counter()
import numpy  # noqa: E402,F401

_t1 = time.perf_counter()
import fractree.cli  # noqa: E402,F401

_t2 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_ITEMS = 15000


def reference() -> float:
    """Time a fixed computation that uses no fractree code; about 0.35 s.

    The host's speed drifts by 20-40 % over minutes as other tenants' load
    changes, and CPU time drifts with wall time.  The same drift slows this
    computation, so a pass's wall time divided by it (``wall_rel``) tracks
    the program rather than the host.  It does the kinds of work the package
    does -- Fraction arithmetic, tuple keys in dicts, sorting, frozensets --
    and no change to the package can alter its cost.
    """
    t0 = time.perf_counter()
    rng = random.Random(12345)
    table = {}
    for i in range(REFERENCE_ITEMS):
        a = Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000))
        table[(i % 97, a, str(i))] = a * a + Fraction(i, 7)
    groups: dict[int, list] = {}
    for key, value in table.items():
        groups.setdefault(key[0], []).append((value, key))
    sorted(table.values())
    for group in groups.values():
        frozenset(group)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", nargs="?")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--spans", help="trace the pass and write its spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if os.path.dirname(os.path.realpath(fractree.cli.__file__)) != os.path.join(SRC, "fractree"):
        print(f"fractree was imported from {fractree.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"setup_s": _t2 - _t0, "numpy_s": _t1 - _t0, "fractree_s": _t2 - _t1}
    if not args.setup_only:
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)[args.workload]
        rec = spans.install() if args.spans else None
        ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        # The reference brackets the operations, so that it sees the host's
        # speed of the same few seconds.
        ref_before = reference()
        wall, attempted, failed, problems, counts = check.run_ops(ops, expected, rec)
        ref_after = reference()
        result.update(
            wall_s=wall,
            ref_s=(ref_before + ref_after) / 2,
            rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=attempted,
            failed=failed,
            problems=problems,
        )
        if rec is not None:
            result["layers"] = spans.metrics(rec, counts)
            rec.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
