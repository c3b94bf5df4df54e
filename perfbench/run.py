"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seconds S          # every workload, one table

Run from the root of a checkout; the package is imported from its ``src/``.
A run is a closed loop with one client: it starts a fresh interpreter
(``worker.py``) for one pass of the workload, waits for it, and starts the
next one while it can be expected to end within ``--seconds`` of the first
(by the median pass so far), so exactly one operation is in flight at a
time.  A pass longer than ``--seconds`` runs once.  Before the passes,
SETUP_SAMPLES more interpreters only import numpy and fractree.cli, so that
set-up time is a median of several.

With --trace 0 the last line of output is the end-to-end result: the median
pass wall time relative to a reference computation timed in the same pass
(``worker.reference``), the median peak RSS of a pass process, and the
median set-up time.  With --trace 1 the run alternates untraced and traced
passes and reports the per-layer metrics of the traced ones instead, with
the tracing overhead as traced minus untraced wall time.  ``--seed`` only
permutes the order of the points inside a workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("scan-22", "stats-sweep", "oracle", "json-roundtrip")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # a run ends within 180 s; no pass starts that could overrun this

END_TO_END_UNITS = {"wall_rel": "ratio", "peak_rss_mib": "MiB", "setup_s": "s"}
# Printed with the end-to-end metrics, but not in the result line: the raw
# times move with the host's speed (see ``worker.reference``).
RAW_UNITS = {"wall_s": "s", "ref_s": "s"}


class PassFailed(RuntimeError):
    pass


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("cli.main_s."):
        return "s"
    if name == "builder.sector_share":
        return "ratio"
    return "count"


def child(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"worker {args} did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run passes for ``seconds``, and summarise them."""
    start = time.perf_counter()
    workdir = os.path.join(SCRATCH, f"work-{os.getpid()}")
    spans_dir = os.path.join(SCRATCH, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    setups = [child(["--setup-only"], TIME_LIMIT_S)["setup_s"] for _ in range(SETUP_SAMPLES)]
    plain, traced, problems = [], [], []
    attempted = failed = 0
    durations: list[float] = []
    passes_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        # Start no pass that would be expected to end after ``seconds``,
        # once there is something to report.
        typical = statistics.median(durations) if durations else 0.0
        if plain and (traced or not trace) and now - passes_start + typical > seconds:
            break
        elapsed = now - start
        if durations and elapsed + 1.5 * max(durations) > TIME_LIMIT_S:
            break
        with_spans = trace and len(traced) < len(plain)
        args = [name, "--seed", str(seed), "--workdir", workdir]
        if with_spans:
            args += ["--spans", os.path.join(spans_dir, f"{name}-seed{seed}.json")]
        os.makedirs(workdir, exist_ok=True)
        t0 = time.perf_counter()
        try:
            res = child(args, TIME_LIMIT_S - elapsed)
        except PassFailed as exc:
            attempted += 1
            failed += 1
            problems.append(str(exc))
            break
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        durations.append(time.perf_counter() - t0)
        (traced if with_spans else plain).append(res)
        setups.append(res["setup_s"])
        attempted += res["attempted"]
        failed += res["failed"]
        problems.extend(res["problems"])

    summary = {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "wall_rel": [p["wall_s"] / p["ref_s"] for p in plain],
        "wall_s": [p["wall_s"] for p in plain],
        "ref_s": [p["ref_s"] for p in plain],
        "peak_rss_mib": [p["rss_mib"] for p in plain],
        "setup_s": setups,
    }
    if trace:
        summary["layers"], trace_problems = layer_summary(plain, traced)
        if not traced:
            trace_problems.append("no traced pass completed")
        summary["failed"] += len(trace_problems)
        problems.extend(trace_problems)
    return summary


def layer_summary(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Median of each per-layer metric over the traced passes.

    Counts must repeat exactly from pass to pass; each count that does not is
    returned as a failed check.
    """
    if not traced or not plain:
        return {}, []
    out, mismatches = {}, []
    for name in traced[0]["layers"]:
        values = [t["layers"][name] for t in traced]
        is_count = per_layer_unit(name) == "count"
        if is_count and len(set(values)) > 1:
            mismatches.append(f"count {name} differs between traced passes: {values}")
        out[name] = values[0] if is_count else statistics.median(values)
    out["setup.numpy_s"] = statistics.median(t["numpy_s"] for t in traced)
    out["setup.fractree_s"] = statistics.median(t["fractree_s"] for t in traced)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    out["pass.wall_s"] = plain_wall
    out["pass.ref_s"] = statistics.median(p["ref_s"] for p in plain)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - plain_wall
    return out, mismatches


def result_line(summary: dict, trace: bool) -> dict:
    if trace:
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in sorted(summary["layers"].items())
        }
    else:
        metrics = {
            name: {"value": statistics.median(summary[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
            if summary[name]
        }
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def report(summary: dict) -> None:
    """Human-readable lines: each metric by name and unit, medians with spread."""
    print(f"workload {summary['workload']}  seed {summary['seed']}")
    for name, unit in {**END_TO_END_UNITS, **RAW_UNITS}.items():
        values = summary[name]
        if values:
            q1, med, q3 = quartiles(values)
            print(f"  {name:<13} median {med:.6g} {unit}  quartiles [{q1:.6g}, {q3:.6g}]  n={len(values)}")
    rate = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    print(f"  {'error_rate':<13} {rate:.6g} ratio  ({summary['failed']} failed / {summary['attempted']} attempted)")
    for problem in summary["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fractree benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, exit through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    for needed in ("src/fractree/cli.py", "perfbench/expected.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a fractree checkout", file=sys.stderr)
            return 2

    try:
        if args.workload is None:
            ok = True
            for name in WORKLOADS:
                summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
                report(summary)
                ok = ok and summary["failed"] == 0
            return 0 if ok else 1
        summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassFailed as exc:  # set-up itself failed: there is nothing to measure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(summary)
    print(json.dumps(result_line(summary, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
