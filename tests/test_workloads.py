"""The benchmark's workloads, run once each against their pinned outputs.

``perfbench/workloads.py`` and ``perfbench/check.py`` are loaded from their
files and only called: every operation of the four workloads runs once in a
temporary directory, and ``check.compare`` holds its record against
``perfbench/expected.json``.  Nothing is timed, so a change of output shows
here before a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fractree import symbols, trees

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
check = _load("check")
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_its_pins(name, tmp_path):
    ops = workloads.WORKLOADS[name](1, str(tmp_path))
    assert {op.key for op in ops} == set(EXPECTED[name])
    for op in ops:
        record, _counts = op.observe(op.run())
        assert check.compare(record, EXPECTED[name][op.key]) == [], op.key


def test_oracle_pass_makes_few_nodes(monkeypatch, tmp_path):
    # each decorated tree costs one node once its subtrees have twins: 507
    # nodes in all, of which 100 for decorate, against 1,120 and 713 when
    # every vertex of every tree was made again
    calls = []
    make_node = symbols._make_node

    def counted(dec, kids):
        calls.append(dec)
        return make_node(dec, kids)

    ops = workloads.oracle(1, str(tmp_path))
    monkeypatch.setattr(symbols, "_make_node", counted)
    monkeypatch.setattr(trees, "_make_node", counted)
    for op in ops:
        op.run()
    assert len(calls) <= 510, len(calls)
    trees.clear_bare_cache()
