"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.pin_threads()
common.use_checkout_src()

import compare  # noqa: E402
import hostclock  # noqa: E402
import ops  # noqa: E402
from spans import ROOT_SPAN, Tracer  # noqa: E402


def _goldens(workload):
    with open(common.GOLDENS / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(common.ROOT)
    common.WORK.mkdir(exist_ok=True)


@pytest.fixture
def cli():
    import pattherm.cli

    return pattherm.cli


# --- comparator ------------------------------------------------------------

CSV_KEY = "costs perfbench/inputs/ref/pc09.json -k 8 --csv"


def _bump_first_number(text: str, delta: float) -> str:
    parts = compare.NUMBER.split(text)
    parts[1] = f"{float(parts[1]) + delta:.9f}"
    return "".join(parts)


def test_golden_matches_itself():
    golden = _goldens("exact-costs")[CSV_KEY]
    assert compare.compare(golden, dict(golden)) == []


@pytest.mark.parametrize("delta", [2e-9, -1e-6, 0.5])
def test_comparator_flags_perturbed_number(delta):
    golden = _goldens("exact-costs")[CSV_KEY]
    actual = dict(golden, stdout=_bump_first_number(golden["stdout"], delta))
    assert compare.compare(golden, actual)


def test_comparator_accepts_last_digit_rounding():
    golden = _goldens("exact-costs")[CSV_KEY]
    actual = dict(golden, stdout=_bump_first_number(golden["stdout"], 1e-9))
    assert compare.compare(golden, actual) == []


def test_comparator_flags_text_exit_trace_and_file():
    golden = _goldens("exact-costs")[CSV_KEY]
    assert compare.compare(golden, dict(golden, stdout=golden["stdout"].replace("causal", "prev")))
    assert compare.compare(golden, dict(golden, exit=1))
    assert compare.compare(golden, dict(golden, stdout=golden["stdout"] + "extra\n"))
    sim = next(g for k, g in _goldens("monte-carlo").items()
               if k.startswith("simulate") and g["exit"] == 0)
    assert compare.compare(sim, dict(sim, trace_sha256=compare.sha256("x")))
    mini = next(g for g in _goldens("structure").values() if "files_sha256" in g)
    changed = {p: compare.sha256("x") for p in mini["files_sha256"]}
    assert compare.compare(mini, dict(mini, files_sha256=changed))


def test_scientific_fields_compare_relatively():
    assert compare.compare_text("x 2.876000000e-21\n", "x 2.876000001e-21\n") == []
    assert compare.compare_text("x 2.876000000e-21\n", "x 2.877000000e-21\n")


def test_simulate_trace_is_checked_byte_for_byte(cli):
    op = next(op for op in ops.universe("monte-carlo") if op.defect is None)
    golden = _goldens("monte-carlo")[op.key]
    outcome = ops.run_op(cli, op)
    head, trace = compare.split_trace(outcome.stdout)
    assert compare.compare(golden, compare.record(outcome.exit, outcome.stdout, {})) == []
    flipped = trace[:-3] + ("1" if trace[-3] != "1" else "2") + trace[-2:]
    actual = compare.record(outcome.exit, head + flipped, {})
    assert compare.compare(golden, actual) == ["simulation trace differs"]


# --- host clock ------------------------------------------------------------


def test_host_clock_scales_by_the_reference_around_each_step():
    clock = hostclock.HostClock()
    ref = hostclock.REF_S
    # a host twice as slow for the first 20 steps, nominal for the next 20
    clock.refs = [2 * ref] * 21 + [ref] * 20
    slow = 2 ** -hostclock.TRACKING
    assert clock.scale(0, 1.0) == pytest.approx(slow)
    assert clock.scale(10, 1.0) == pytest.approx(slow)
    assert clock.scale(39, 0.5) == pytest.approx(0.5)
    assert hostclock.scaled(0.25, ref) == 0.25
    assert 0 < hostclock.reference_seconds() < 1


# --- tracing ---------------------------------------------------------------


def test_self_times_sum_to_traced_op_wall_time(cli):
    tracer = Tracer()
    picks = [
        ops.universe("exact-costs")[3],
        next(op for op in ops.universe("structure") if op.argv[0] == "minimize"),
        next(op for op in ops.universe("structure") if op.argv[0] == "analyze"),
        ops.MC_WITNESS,
    ]
    tracer.install()
    try:
        outcomes = [tracer.run_op(i, lambda op=op: ops.run_op(cli, op))
                    for i, op in enumerate(picks)]
    finally:
        tracer.uninstall()
    self_ns: dict[int, int] = {}
    for _, op_id, ns in tracer.self_times():
        assert ns >= 0
        self_ns[op_id] = self_ns.get(op_id, 0) + ns
    roots = {s[4]: s for s in tracer.spans if tracer.names[s[0]] == ROOT_SPAN}
    assert sorted(roots) == list(range(len(picks)))
    for op_id, (_, start, end, _, _) in roots.items():
        assert self_ns[op_id] == end - start
        assert outcomes[op_id].seconds * 1e9 <= end - start
    for _, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            _, p_start, p_end, _, _ = tracer.spans[parent]
            assert p_start <= start <= end <= p_end
    layers = {tracer.names[s[0]].split(".")[0] for s in tracer.spans}
    assert {"cli", "process_model", "info_measures", "causal_structure",
            "thermo_costs", "cycle_sim"} <= layers


def test_uninstall_restores_every_binding():
    import pattherm
    import pattherm.causal_structure as cs
    import pattherm.info_measures as im
    import pattherm.process_model as pm

    before = (pattherm.cycle_report, cs.validate_machine, pm.uniform_distribution,
              im.JointTable.entropy, pm.ValidatedMachine.word_state_vectors)
    tracer = Tracer()
    tracer.install()
    try:
        # module-level `from .x import y` names and the package re-exports
        assert cs.validate_machine is pm.validate_machine
        assert cs.validate_machine is not before[1]
        assert pattherm.cycle_report.__wrapped__ is before[0]
    finally:
        tracer.uninstall()
    after = (pattherm.cycle_report, cs.validate_machine, pm.uniform_distribution,
             im.JointTable.entropy, pm.ValidatedMachine.word_state_vectors)
    assert after == before


def test_function_local_imports_are_traced(cli):
    # check_determinism imports joint_block_distribution inside its body
    import pattherm

    machine = pattherm.validate_machine(
        pattherm.load_machine_file("perfbench/inputs/ref/pc09.json"))
    memory = pattherm.causal_memory(pattherm.minimize_to_causal(machine))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_op(0, lambda: pattherm.check_determinism(memory, 2))
    finally:
        tracer.uninstall()
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert "process_model.joint_block_distribution" in names
    assert tracer.counters["process_model.block_words"] == 4


# --- smoke runs ------------------------------------------------------------


@pytest.mark.parametrize("workload,trace", [
    ("exact-costs", 0), ("monte-carlo", 0), ("structure", 0), ("monte-carlo", 1),
])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = {m["name"] for m in json.loads(
        (common.ROOT / "BENCHMARK.json").read_text())["end_to_end" if not trace else "per_layer"]}
    assert set(result["metrics"]) == names


def test_refuses_without_source():
    # a directory holding only the benchmark, with no src/ to run
    bare = common.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "structure",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
