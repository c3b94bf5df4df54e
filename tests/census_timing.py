"""Time the census of two source trees against each other, point by point.

Each run is one call of ``census`` or ``marked_census`` in a fresh
interpreter that imports ``fractree`` from ``TREE/src``; the two trees
alternate, and which of them goes first alternates from round to round.
The points are where the census loops are slowest to reach:

* ``census`` at (2, 2) gaps 1/1000 and 1/2000;
* ``marked_census`` at (2, 2) gap 1/40 and (3, 3) gap 1/20.

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

POINTS = {
    "census-22-1/1000": ("census", 2, 2, 1000),
    "census-22-1/2000": ("census", 2, 2, 2000),
    "marked-22-1/40": ("marked_census", 2, 2, 40),
    "marked-33-1/20": ("marked_census", 3, 3, 20),
}

# One run: import the tree's fractree, time one call, print the seconds
# and the sha256 of the result's repr.
CHILD = """
import hashlib, sys, time
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from fractree import census as module
from fractree.params import Parameters, rho_c
name, N, d, gap = sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5])
params = Parameters.white_noise(N, d, rho_c(N, d) + Fraction(1, gap))
function = getattr(module, name)
start = time.perf_counter()
result = function(params)
seconds = time.perf_counter() - start
print(seconds, hashlib.sha256(repr(result).encode()).hexdigest())
"""


def run(tree, point):
    """(seconds, sha256) of one call at ``point`` in a fresh interpreter."""
    name, N, d, gap = POINTS[point]
    out = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(tree, "src"), name, str(N), str(d), str(gap)],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    return float(out[0]), out[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the source tree to compare against")
    parser.add_argument("new", help="the source tree under test")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--point", action="append", choices=sorted(POINTS),
                        help="time only this point (repeatable); all four by default")
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
        print(f"{point}: old {statistics.median(old):.3f} s [{min(old):.3f}, {max(old):.3f}], "
              f"new {statistics.median(new):.3f} s [{min(new):.3f}, {max(new):.3f}], "
              f"new faster in {wins} of {len(old)}")
        for label, tree in zip(("old", "new"), trees):
            print(f"  {label} sha256 {' '.join(sorted(digests[(point, tree)]))}")
        same = same and digests[(point, trees[0])] == digests[(point, trees[1])]
    print("same results" if same else "DIFFERENT results")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
