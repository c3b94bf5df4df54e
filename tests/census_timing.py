"""Time the census and the tree counts of two source trees against each
other, point by point.

Each run is one timed call in a fresh interpreter that imports ``fractree``
from ``TREE/src``; the two trees alternate, and which of them goes first
alternates from round to round.  Each point names the call it times:

* ``census`` at (2, 2) gaps 1/1000 and 1/2000 and ``marked_census`` at
  (2, 2) gap 1/40 and (3, 3) gap 1/20, where the census loops are slowest
  to reach;
* the count calls of the ``oracle`` benchmark workload:
  ``bare_level_size(N, q)`` for q up to floor(q*) at its 12 grid points,
  and ``count_regular(N, q + 1)`` for the q up to floor(q*) divisible by N
  at its four size-law points;
* ``count_bounded_by_leaves(2, 201, 101)`` and ``count_bounded(3, 300)``,
  each from a cold table.

For each point the script prints both trees' median time with its range,
how many rounds the second tree was faster in, and the sha256 of each
tree's result (its ``repr``), so "no slower, same output" can be checked
in one run.  It needs only the standard library:

    python3 tests/census_timing.py OLD_TREE NEW_TREE [--rounds 5] [--point NAME]

The exit status is 1 when the two trees give different results at some
point, else 0.  The whole run takes about 10 s a round.
"""

import argparse
import os
import statistics
import subprocess
import sys

# The oracle workload's grid (perfbench ORACLE_GRID) as (N, d, rho), and its
# four size-law points (COUNT_TABLE_POINTS), which come first.
ORACLE_GRID = (
    "(2, 2, 1), (2, 2, F(17, 20)), (2, 2, F(4, 5)), (3, 3, F(17, 10)), "
    "(2, 2, F(9, 10)), (3, 3, F(21, 11)), (3, 3, F(19, 10)), (3, 3, F(9, 5)), "
    "(2, 3, F(3, 2)), (2, 3, F(13, 10)), (3, 2, F(3, 2)), (3, 2, F(13, 10))"
)

POINTS = {
    "census-22-1/1000": "census(gap(2, 2, 1000))",
    "census-22-1/2000": "census(gap(2, 2, 2000))",
    "marked-22-1/40": "marked_census(gap(2, 2, 40))",
    "marked-33-1/20": "marked_census(gap(3, 3, 20))",
    "oracle-counts": (
        f"[[bare_level_size(N, q) for q in range(q_top(N, d, rho) + 1)] for N, d, rho in [{ORACLE_GRID}]]"
        f" + [[count_regular(N, q + 1) for q in range(0, q_top(N, d, rho) + 1, N)]"
        f" for N, d, rho in [{ORACLE_GRID}][:4]]"
    ),
    "leaves-2-201-101": "count_bounded_by_leaves(2, 201, 101)",
    "bounded-3-300": "count_bounded(3, 300)",
}

# One run: import the tree's fractree, time one call, print the seconds
# and the sha256 of the result's repr.
CHILD = """
import hashlib, math, sys, time
from fractions import Fraction as F
sys.path.insert(0, sys.argv[1])
from fractree.census import census, marked_census
from fractree.params import Parameters, rho_c
from fractree.trees import bare_level_size, count_bounded, count_bounded_by_leaves, count_regular

def gap(N, d, k):
    return Parameters.white_noise(N, d, rho_c(N, d) + F(1, k))

def q_top(N, d, rho):
    return math.floor(Parameters.white_noise(N, d, F(rho)).q_star)

call = compile(sys.argv[2], "<point>", "eval")
start = time.perf_counter()
result = eval(call)
seconds = time.perf_counter() - start
print(seconds, hashlib.sha256(repr(result).encode()).hexdigest())
"""


def run(tree, point):
    """(seconds, sha256) of one call at ``point`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(tree, "src"), POINTS[point]],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    return float(out[0]), out[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the source tree to compare against")
    parser.add_argument("new", help="the source tree under test")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--point", action="append", choices=sorted(POINTS),
                        help="time only this point (repeatable); all of them by default")
    args = parser.parse_args(argv)
    trees = (os.path.abspath(args.old), os.path.abspath(args.new))
    points = args.point or list(POINTS)
    times = {(point, tree): [] for point in points for tree in trees}
    digests = {(point, tree): set() for point in points for tree in trees}
    for round_ in range(args.rounds):
        for point in points:
            for tree in trees if round_ % 2 == 0 else trees[::-1]:
                seconds, digest = run(tree, point)
                times[(point, tree)].append(seconds)
                digests[(point, tree)].add(digest)
    same = True
    print(f"{args.rounds} rounds; old = {trees[0]}, new = {trees[1]}")
    for point in points:
        old, new = (times[(point, tree)] for tree in trees)
        wins = sum(b < a for a, b in zip(old, new))
        print(f"{point}: old {statistics.median(old):.4f} s [{min(old):.4f}, {max(old):.4f}], "
              f"new {statistics.median(new):.4f} s [{min(new):.4f}, {max(new):.4f}], "
              f"new faster in {wins} of {len(old)}")
        for label, tree in zip(("old", "new"), trees):
            print(f"  {label} sha256 {' '.join(sorted(digests[(point, tree)]))}")
        same = same and digests[(point, trees[0])] == digests[(point, trees[1])]
    print("same results" if same else "DIFFERENT results")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
