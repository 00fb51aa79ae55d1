"""pattherm benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload exact-costs --seed 1 --seconds 30 --trace 0

One closed-loop client in one process runs the workload's ops one at a
time, in whole passes over the seed's op list, until ``--seconds`` of op
time have passed and at least MIN_OPS ops have succeeded. Every op's output is
checked against the committed goldens. The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, in host-normalised time (see
hostclock.py), and the per-layer metrics with ``--trace 1``. See
perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from common import (
    BENCH, GOLDENS, RESULTS, ROOT, SRC, THREAD_VARS, WORK, MissingSourceError,
    pin_threads, use_checkout_src,
)

pin_threads()

import compare  # noqa: E402
import ops  # noqa: E402
from hostclock import REF_S, WINDOW, HostClock, reference_seconds, scaled  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

MIN_OPS = 110  # successful ops; p90 then has at least 10 samples beyond it
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def environment() -> dict:
    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unknown (not a git checkout)"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_rev": rev,
        "thread_pinning": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def _reference_median() -> float:
    return statistics.median(reference_seconds() for _ in range(2 * WINDOW))


def measure_setup(workload: str, seed: int) -> list[dict]:
    """SETUP_RUNS fresh interpreters; each reports import and load time.

    Each probe's wall time is scaled by the mean of the median reference
    times taken just before and just after it.
    """
    runs = []
    before = _reference_median()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        after = _reference_median()
        report["wall_s"] = wall
        report["scaled_s"] = scaled(wall, (before + after) / 2)
        before = after
        runs.append(report)
    return runs


class Checker:
    """Compares each outcome with its golden and keeps the tallies."""

    def __init__(self, goldens: dict):
        self.goldens = goldens
        self.latencies: list[float] = []  # seconds, of the ops that succeeded
        self.records: list[tuple] = []  # key, seconds, ok, timed
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []  # mismatches outside the known defects
        self.defects: dict[str, str] = {}

    def check(self, op: ops.Op, outcome: ops.Outcome, timed: bool = True) -> None:
        self.attempted += 1
        golden = self.goldens.get(op.key)
        if golden is None:
            problems = ["no golden for this op"]
        else:
            actual = compare.record(outcome.exit, outcome.stdout, outcome.files)
            problems = compare.compare(golden, actual)
        ok = not problems
        if not ok:
            self.failed += 1
        if problems and op.defect is None:
            stderr = outcome.stderr.strip().splitlines()[-1:]
            self.unexpected.append(f"{op.key}: {'; '.join(problems[:3] + stderr)}")
        if op.defect is not None:
            self.defects[op.key] = "matches expected" if not problems else problems[0]
        if ok and timed:
            self.latencies.append(outcome.seconds)
        self.records.append((op.key, outcome.seconds, ok, timed))

    @property
    def correct(self) -> bool:
        return not self.unexpected


def percentile(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile: a measured sample, never an interpolation."""
    ranked = sorted(latencies)
    return ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)]


def timed_phase(cli, plan, checker, clock, seconds: float, tracer=None) -> dict:
    """Whole passes until `seconds` of op time and MIN_OPS ops succeeded.

    With a tracer, every op runs twice, untraced and traced, in
    alternating order so that warm-up falls on both alike; passes go on
    until both together reach `seconds`. No percentile is taken from a
    traced run, so it has no minimum op count. The clock times its
    reference after every untraced op.
    """
    op_time = traced_time = 0.0
    pass_rates = []  # successful untraced ops per second of op time, per pass
    done = False
    while not done:
        pass_time, pass_ok = 0.0, len(checker.latencies)
        for i, op in enumerate(plan.pass_ops(len(pass_rates))):
            order = (False, True) if i % 2 == 0 else (True, False)
            for traced in order if tracer is not None else (False,):
                if traced:
                    outcome = _traced_op(tracer, checker.attempted, cli, op)
                    traced_time += outcome.seconds
                else:
                    outcome = ops.run_op(cli, op)
                    clock.tick()
                    pass_time += outcome.seconds
                checker.check(op, outcome, timed=not traced)
        op_time += pass_time
        pass_rates.append((len(checker.latencies) - pass_ok) / pass_time)
        if tracer is not None:
            done = op_time + traced_time >= seconds
        else:
            done = op_time >= seconds and len(checker.latencies) >= MIN_OPS
    return {"passes": len(pass_rates), "op_time_s": op_time,
            "traced_time_s": traced_time, "pass_rates": pass_rates}


def _traced_op(tracer, op_id, cli, op):
    tracer.install()
    try:
        return tracer.run_op(op_id, lambda: ops.run_op(cli, op))
    finally:
        tracer.uninstall()


def timing(latencies: list[float], op_time: float, setup: list[float]) -> dict:
    return {
        "ops_per_s": (len(latencies) / op_time, "1/s"),
        "op_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "op_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }


def end_to_end_metrics(checker, clock, setups) -> tuple[dict, dict]:
    """(metrics in scaled time, the same timing metrics in raw wall time)."""
    steps = [r for r in checker.records if r[3]]  # the clock's steps, in order
    times = [clock.scale(j, r[1]) for j, r in enumerate(steps)]
    lat = [t for t, r in zip(times, steps) if r[2]]
    metrics = timing(lat, sum(times), [s["scaled_s"] for s in setups])
    metrics.update({
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "fail_frac": (checker.failed / checker.attempted, "fraction"),
    })
    raw = timing(checker.latencies, sum(r[1] for r in steps),
                 [s["wall_s"] for s in setups])
    return metrics, raw


def per_layer_metrics(tracer, phase, setups) -> dict:
    n = phase["passes"]  # traced passes; every count below is per pass
    calls, self_s = tracer.layer_totals()
    c = tracer.counters
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer] / n, "count")
        m[f"{layer}.self_s"] = (self_s[layer] / n, "s")
    m["setup.calls"] = (len(setups), "count")
    m["setup.self_s"] = (statistics.median(s["wall_s"] for s in setups), "s")
    m["setup.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    m["setup.load_s"] = (statistics.median(s["load_s"] for s in setups), "s")
    m["process_model.block_words"] = (c["process_model.block_words"] / n, "count")
    m["process_model.table_mib"] = (c["process_model.table_bytes"] / n / 2**20, "MiB")
    m["info_measures.entropy_evals"] = (c["info_measures.entropy_evals"] / n, "count")
    m["info_measures.excess_converged_frac"] = (
        _ratio(c["info_measures.excess_converged"], c["info_measures.excess_attempted"]),
        "fraction")
    m["thermo_costs.block_tables_per_report"] = (
        _ratio(c["thermo_costs.block_tables_in_reports"], c["thermo_costs.reports"]),
        "tables/report")
    m["causal_structure.prescience_checks"] = (
        c["causal_structure.prescience_checks"] / n, "count")
    m["causal_structure.prescience_words"] = (
        c["causal_structure.prescience_words"] / n, "count")
    m["cycle_sim.blocks"] = (c["cycle_sim.blocks"] / n, "count")
    m["cycle_sim.draws"] = (c["cycle_sim.draws"] / n, "count")
    m["trace.overhead_frac"] = (phase["traced_time_s"] / phase["op_time_s"] - 1.0, "fraction")
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def load_goldens(workload: str) -> dict:
    path = GOLDENS / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"no goldens at {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pattherm benchmark")
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    try:
        use_checkout_src()
        import pattherm.cli as cli

        if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC)):
            raise BenchError(f"pattherm imported from {cli.__file__}, not {SRC}")
        goldens = load_goldens(args.workload)
        WORK.mkdir(exist_ok=True)
        env = environment()
        plan = ops.Plan(args.workload, args.seed)
        setups = measure_setup(args.workload, args.seed)
    except (MissingSourceError, BenchError, ImportError, OSError,
            subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    checker = Checker(goldens)
    clock = HostClock()
    tracer = Tracer() if args.trace else None
    phase = timed_phase(cli, plan, checker, clock, args.seconds, tracer)
    raw = {}
    if tracer is None:
        metrics, raw = end_to_end_metrics(checker, clock, setups)
    else:
        metrics = per_layer_metrics(tracer, phase, setups)

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write_csv(RESULTS / f"spans-{label}.csv")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "phase": phase, "setup": setups,
        "samples": checker.attempted, "failed": checker.failed,
        "known_defects": checker.defects, "unexpected": checker.unexpected,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_wall_time_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "reference_s": clock.refs, "ops": checker.records,
    }
    with open(RESULTS / f"{label}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']}, threads pinned to 1, git {env['git_rev']}")
    print(f"samples: {checker.attempted} ops in {phase['passes']} passes, "
          f"{checker.failed} failed, {len(checker.latencies)} latency samples, "
          f"{phase['op_time_s']:.3f} s of op time")
    for key, reason in checker.defects.items():
        print(f"known defect: {key}: {reason}")
    for line in checker.unexpected[:20]:
        print(f"WRONG: {line}")
    print(f"host: reference loop median {1e3 * statistics.median(clock.refs):.3f} ms "
          f"against {1e3 * REF_S:.3f} ms nominal")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    for name, (value, unit) in raw.items():
        print(f"  raw wall time {name:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
