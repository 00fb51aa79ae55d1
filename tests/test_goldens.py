"""Every benchmark op matches its committed golden.

Runs each op of every perfbench workload's universe (every op any seed
can pick) through `pattherm.cli.main`, and compares the outcome with
`perfbench/goldens/<workload>.json` under the benchmark's own rules:
numbers within 1e-9, other text exact, traces and written files byte for
byte. The ops run from a private directory whose `perfbench/inputs` links
to the benchmark's inputs, so their relative paths and golden keys are
unchanged, while the minimize ops write `perfbench/_work/minimized.json`
there and not in the checkout, where a benchmark run may be writing it.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import ops  # noqa: E402
from common import GOLDENS, INPUTS, WORK  # noqa: E402


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_every_op_matches_its_golden(workload, monkeypatch, tmp_path):
    import pattherm.cli as cli

    bench = tmp_path / "perfbench"
    (bench / WORK.name).mkdir(parents=True)
    (bench / INPUTS.name).symlink_to(INPUTS)
    monkeypatch.chdir(tmp_path)
    with open(GOLDENS / f"{workload}.json", encoding="utf-8") as fh:
        goldens = json.load(fh)["ops"]
    problems = []
    for op in ops.universe(workload):
        outcome = ops.run_op(cli, op)
        actual = compare.record(outcome.exit, outcome.stdout, outcome.files)
        problems += [f"{op.key}: {p}" for p in compare.compare(goldens[op.key], actual)]
    assert not problems, "\n".join(problems)
