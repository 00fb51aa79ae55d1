"""Every benchmark op matches its committed golden.

Runs each op of every perfbench workload's universe (every op any seed
can pick) through `pattherm.cli.main` from the repository root, and
compares the outcome with `perfbench/goldens/<workload>.json` under the
benchmark's own rules: numbers within 1e-9, other text exact, traces and
written files byte for byte. The minimize ops write the gitignored
`perfbench/_work/minimized.json`, as `perfbench/run.py` does.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import ops  # noqa: E402
from common import GOLDENS, ROOT, WORK  # noqa: E402


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_every_op_matches_its_golden(workload, monkeypatch):
    import pattherm.cli as cli

    monkeypatch.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    with open(GOLDENS / f"{workload}.json", encoding="utf-8") as fh:
        goldens = json.load(fh)["ops"]
    problems = []
    for op in ops.universe(workload):
        outcome = ops.run_op(cli, op)
        actual = compare.record(outcome.exit, outcome.stdout, outcome.files)
        problems += [f"{op.key}: {p}" for p in compare.compare(goldens[op.key], actual)]
    assert not problems, "\n".join(problems)
