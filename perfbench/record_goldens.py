"""Record the goldens: the expected output of every op of every workload.

    python3 perfbench/record_goldens.py [WORKLOAD ...]

Runs each op of each workload's universe (every op any seed can pick)
with the pattherm in ``src/`` and writes ``perfbench/goldens/<workload>.json``.
The committed goldens were recorded at commit e756c89. Known-defect ops
get the correct behaviour as their golden, not the defect:

- text-mode ``costs``: the report as ``cmd_costs`` prints it once
  ``format_work`` (defined in ``thermo_costs``) is in scope;
- the prescience witness: refused with exit 3 and no stdout;
- ``costs -k 17``: refused with exit 4 and no stdout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from common import GOLDENS, ROOT, WORK, pin_threads, use_checkout_src

pin_threads()

import compare  # noqa: E402
import ops  # noqa: E402

REFUSED = {ops.WITNESS: 3, ops.OVER_BUDGET: 4}


def expected(cli, op: ops.Op) -> dict:
    if op.defect in REFUSED:
        return {"exit": REFUSED[op.defect], "stdout": ""}
    patched = op.defect == ops.TEXT_COSTS
    if patched:
        from pattherm.thermo_costs import format_work

        cli.format_work = format_work
    try:
        outcome = ops.run_op(cli, op)
    finally:
        if patched:
            del cli.format_work
    if not isinstance(outcome.exit, int):
        raise RuntimeError(f"{op.key}: {outcome.exit}")
    return compare.record(outcome.exit, outcome.stdout, outcome.files)


def main(argv) -> int:
    os.chdir(ROOT)
    use_checkout_src()
    import pattherm.cli as cli

    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    WORK.mkdir(exist_ok=True)
    GOLDENS.mkdir(exist_ok=True)
    for workload in argv or ops.WORKLOADS:
        goldens = {op.key: expected(cli, op) for op in ops.universe(workload)}
        with open(GOLDENS / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"recorded_at": rev, "ops": goldens}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(goldens)} goldens")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
