"""Write expected.json: the outputs every benchmark operation is checked against.

    PYTHONPATH=src python3 perfbench/pin.py

Runs each workload once, in workload order, and records what each operation
observed.  The pins are sector-level: they never include len(ms) or the
full build JSON, whose stored set a builder change may legitimately redefine.
Re-pin only when an output changes on purpose, and say so in CHANGES.md.
"""

import json
import os
import tempfile

import workloads

HERE = os.path.dirname(os.path.realpath(__file__))


def main() -> None:
    pins = {}
    for name, make in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=HERE) as workdir:
            pins[name] = {op.key: op.observe(op.run())[0] for op in make(0, workdir)}
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
