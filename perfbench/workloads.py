"""The four benchmark workloads, as lists of operations.

An operation is one CLI invocation or one library-level oracle point.  Its
``run`` part is what the benchmark times; its ``observe`` part, run after the
clock has stopped, turns the result and any files it wrote into a record that
``check.compare`` holds against the pinned outputs in ``expected.json``, plus
a few counts for the traced run.

Every call into the package goes through a module attribute
(``fractree.cli.main``, ``fractree.builder.build``, ...), so the wrappers that
``spans.install`` puts there see it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import fractree.builder
import fractree.cli
import fractree.counting
import fractree.symbols
import fractree.trees
from fractree.params import Parameters

F = Fraction

# The paper's divergence sweep at N = d = 2, down to gap 0.073.  The next
# point, 73/100, alone builds for 20-28 s, longer than a whole run, so it
# would leave one sample per run; the sweep stops one point short of it.
SCAN_22 = ("1", "9/10", "17/20", "4/5", "3/4", "37/50")

# The sweeps the acceptance trend tests and ``fit`` consume.
SWEEP_22 = ("1", "9/10", "17/20", "4/5", "3/4")
SWEEP_33 = ("21/11", "19/10", "9/5", "17/10")

# The GRID points of the acceptance tests with q* <= 20, where exhaustive
# bare-tree enumeration is feasible: every GRID point except (2, 2, 3/4).
ORACLE_GRID = (
    (2, 2, F(1)),
    (2, 2, F(9, 10)),
    (2, 2, F(17, 20)),
    (2, 2, F(4, 5)),
    (3, 3, F(21, 11)),
    (3, 3, F(19, 10)),
    (3, 3, F(9, 5)),
    (3, 3, F(17, 10)),
    (2, 3, F(3, 2)),
    (2, 3, F(13, 10)),
    (3, 2, F(3, 2)),
    (3, 2, F(13, 10)),
)

# Points where the size law is checked against count_regular, as in
# the acceptance test TestCountTables.
COUNT_TABLE_POINTS = frozenset(
    [(2, 2, F(1)), (2, 2, F(17, 20)), (2, 2, F(4, 5)), (3, 3, F(17, 10))]
)

# json-roundtrip stores the whole certified space at this point: about 3.5 s
# a pass, where 37/50 takes 13 s.
ROUNDTRIP_POINT = ("2", "2", "3/4")


@dataclass
class Op:
    key: str  # the entry of expected.json this operation is checked against
    run: Callable[[], Any]
    observe: Callable[[Any], tuple[dict, dict]]  # result -> (record, counts)


def cli_main(argv: list[str]) -> tuple[Any, str, str]:
    """Call ``fractree.cli.main`` and capture its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = fractree.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _read(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _shuffled(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# scan-22: scan down to 37/50, then fit the CSV


def scan_22(seed: int, workdir: str) -> list[Op]:
    csv_path = os.path.join(workdir, "scan.csv")
    fit_path = os.path.join(workdir, "fit.json")
    rhos = _shuffled(SCAN_22, seed)

    def observe_scan(result):
        code, _out, _err = result
        with open(csv_path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = {r[0]: r[1:] for r in reader}
        return {"exit": code, "header": header, "rows": rows}, {}

    def observe_fit(result):
        code, _out, _err = result
        return {"exit": code, "fit": json.loads(_read(fit_path))}, {}

    argv = ["scan", "--N", "2", "--d", "2", "--rho", ",".join(rhos), "--out", csv_path]
    fit_argv = ["fit", csv_path, "--N", "2", "--d", "2", "--format", "json", "--out", fit_path]
    return [
        Op("scan", lambda: cli_main(argv), observe_scan),
        Op("fit", lambda: cli_main(fit_argv), observe_fit),
    ]


# ---------------------------------------------------------------------------
# stats-sweep: stats --out DIR at every point of both sweeps


def stats_sweep(seed: int, workdir: str) -> list[Op]:
    points = [("2", "2", r) for r in SWEEP_22] + [("3", "3", r) for r in SWEEP_33]
    ops = []
    for N, d, rho in _shuffled(points, seed):
        out_dir = os.path.join(workdir, f"stats_{N}_{d}_{rho.replace('/', '_')}")
        argv = ["stats", "--N", N, "--d", d, "--rho", rho, "--out", out_dir]

        def observe(result, out_dir=out_dir):
            code, out, _err = result
            files = {name: _read(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))}
            report = json.loads(files.pop("report.json"))
            return {"exit": code, "stdout": out, "report": report, "csv": files}, {}

        ops.append(Op(f"stats {N} {d} {rho}", lambda argv=argv: cli_main(argv), observe))
    return ops


# ---------------------------------------------------------------------------
# oracle: the recursion against exhaustive bare-tree enumeration


def oracle_point(N: int, d: int, rho: Fraction) -> tuple[dict, dict]:
    """Build, enumerate and decorate up to q*, compare, and count solutions."""
    params = Parameters.white_noise(N, d, rho)
    config = fractree.builder.BuildConfig(
        maxh=fractree.builder.completeness_threshold(params), iter=64
    )
    ms = fractree.builder.build(params, config)
    sector = fractree.builder.negative_sector(ms)
    q_max = math.floor(fractree.counting.lattice_bounds(N, d, rho).q_star)

    image = set()
    for q in range(q_max + 1):
        for leaves in range(1, q + 2):
            if params.homogeneity_of_type(leaves, q).is_negative:
                bare = list(fractree.trees.enumerate_bare(N, q, leaves=leaves))
                image.update(fractree.symbols.decorate(t) for t in bare)
    sector_k0 = {s for s, _h in sector if not s.kvec}

    record = {
        "complete": ms.complete,
        "sector_k0": len(sector_k0),
        "image": len(image),
        "image_negative": all(
            fractree.symbols.homogeneity_of(t, params).is_negative for t in image
        ),
        "equal": sector_k0 == image,
        "hF": len({h for _s, h in sector}),
        "dio_le": fractree.counting.dio_count(N, d, rho, "le"),
        "dio_lt": fractree.counting.dio_count(N, d, rho, "lt"),
    }
    if (N, d, rho) in COUNT_TABLE_POINTS:
        sizes = Counter(s.q for s, _h in sector)
        pairs = [(c, fractree.trees.count_regular(N, q + 1)) for q, c in sizes.items() if q % N == 0]
        record["regular_hits"] = len(pairs)
        record["regular_match"] = all(c == r for c, r in pairs)
    counts = {
        "trees.catalogue_entries": sum(
            fractree.trees.bare_level_size(N, q) for q in range(q_max + 1)
        ),
        "trees.oracle_image": len(image),
        "counting.dio_le": record["dio_le"],
        "counting.dio_lt": record["dio_lt"],
    }
    return record, counts


def oracle(seed: int, workdir: str) -> list[Op]:
    # Start with an empty bare-tree catalogue, as a fresh process does.
    fractree.trees.clear_bare_cache()
    return [
        Op(f"oracle {N} {d} {rho}", lambda pt=(N, d, rho): oracle_point(*pt), lambda r: r)
        for N, d, rho in _shuffled(ORACLE_GRID, seed)
    ]


# ---------------------------------------------------------------------------
# json-roundtrip: build --out FILE, then load_json(FILE)


def sector_digest(ms) -> str:
    """SHA-256 of the negative sector, one "symbol<TAB>homogeneity" line each."""
    d = ms.params.d
    text = "\n".join(
        f"{fractree.symbols.render(s, d)}\t{h}" for s, h in fractree.builder.negative_sector(ms)
    )
    return hashlib.sha256(text.encode()).hexdigest()


def json_roundtrip(seed: int, workdir: str) -> list[Op]:
    path = os.path.join(workdir, "space.json")
    N, d, rho = ROUNDTRIP_POINT
    argv = ["build", "--N", N, "--d", d, "--rho", rho, "--out", path]

    def observe_build(result):
        code, out, _err = result
        return {"exit": code, "stdout": out}, {}

    def observe_load(ms):
        return {"complete": ms.complete, "sector_sha256": sector_digest(ms)}, {}

    return [
        Op("build", lambda: cli_main(argv), observe_build),
        Op("load", lambda: fractree.load_json(path), observe_load),
    ]


WORKLOADS = {
    "scan-22": scan_22,
    "stats-sweep": stats_sweep,
    "oracle": oracle,
    "json-roundtrip": json_roundtrip,
}
