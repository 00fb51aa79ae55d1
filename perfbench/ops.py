"""The benchmark's operations: what each workload runs, and how one op runs.

An op is one in-process ``pattherm.cli.main(argv)`` call with stdout and
stderr captured. Each workload has a finite universe of ops whose
goldens are committed; ``--seed`` picks the inputs (which pooled random
machines, or in structure the order in which passes rotate through the
pools; which simulation seeds) and the order of ops in every pass.
A pass has the same mix of op kinds and sizes for every seed, so the
figures of two seeds are comparable.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass
from pathlib import Path

from common import INPUTS, WORK, rel

IN = rel(INPUTS)
MINIMIZED = rel(WORK / "minimized.json")

WORKLOADS = ("exact-costs", "monte-carlo", "structure")

# Known defects and refusals at the seed commit. Their goldens hold the
# correct behaviour. While an op differs from its golden it counts in
# fail_frac; it does not make a run incorrect.
TEXT_COSTS = "text-mode costs raises NameError: format_work is never imported"
WITNESS = "depth-4 prescience check accepts the period-7 memory of period-6; expected exit 3"
OVER_BUDGET = "k=17 exceeds the 2^16-word block budget; expected exit 4"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    defect: str | None = None  # reason, for a known-defect op
    output: str | None = None  # file the op writes, checked with stdout

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _m(name: str) -> str:
    return f"{IN}/{name}.json"


def _costs(machine: str, k: int, memory: str | None = None, *extra: str,
           csv: bool = True, defect: str | None = None) -> Op:
    argv = ["costs", _m(machine)]
    if memory:
        argv += ["--memory", _m(memory)]
    argv += ["-k", str(k)] + (["--csv"] if csv else []) + list(extra)
    return Op(tuple(argv), defect=defect)


def _pool(pattern: str) -> list[str]:
    return sorted(p.relative_to(INPUTS).with_suffix("").as_posix()
                  for p in INPUTS.glob(pattern))


# --- exact-costs -----------------------------------------------------------
# k spans 2..65,536 words per block; every family reaches the large-k end.
# Of the 70 successful ops of a pass, 39 are small (k <= 8 on machines of
# at most 4 states) and one is the k=17 refusal, so p50 falls among many
# ops of near-equal cost. Above the three costliest (40x3 k=8, 10x2 k=16,
# the sweep) come pc09, gm, p2 and fc at k=16, within about 1.3x of each
# other. They run twice a pass, so p90, 7th from the top, falls in the
# middle of this band and not on its edge.
EXACT_FIXED_K = (
    ("ref/pc09", None, tuple(range(1, 17))),
    ("ref/pc09", "ref/pc_last_two", (1, 2, 6, 10, 14)),
    ("ref/pc09", "ref/pc_split50", (1, 3, 7, 11, 15)),
    ("ref/gm", None, (*range(1, 9), 16)),
    ("ref/p2", None, (*range(1, 9), 16)),
    ("ref/fc", None, (*range(1, 9), 16)),
)
EXACT_RANDOM_K = {"exact/r10x2": (1, 4, 8, 12, 16), "exact/r40x3": (1, 2, 4, 6, 8)}
EXACT_P90_BAND = ("ref/pc09", "ref/gm", "ref/p2", "ref/fc")  # at k=16


def _exact_ops(random_machines: list[str]) -> list[Op]:
    ops = [_costs(m, k, mem) for m, mem, ks in EXACT_FIXED_K for k in ks]
    ops += [_costs(m, 16) for m in EXACT_P90_BAND]
    for machine in random_machines:
        ops += [_costs(machine, k) for k in EXACT_RANDOM_K[machine.rsplit("_", 1)[0]]]
    ops += [
        Op(("sweep", _m("ref/pc09"), "--k-range", "1:16")),
        _costs("ref/pc09", 3, None, "--units", "kT", "--temperature", "300"),
        _costs("ref/pc09", 4, csv=False, defect=TEXT_COSTS),
        _costs("ref/pc09", 17, defect=OVER_BUDGET),
    ]
    return ops


# --- monte-carlo -----------------------------------------------------------
MC_BLOCKS = 2000
MC_SEEDS = tuple(range(16))  # simulation seeds rotated through the passes
MC_SEEDS_PER_PASS = 4
MC_CONFIGS = (  # machine, memory, k
    ("ref/pc09", None, 1),
    ("ref/pc09", "ref/pc_last_two", 2),
    ("ref/pc09", "ref/pc_split50", 4),
    ("ref/gm", None, 3),
    ("exact/r40x3", None, 1),  # one pooled machine, picked by the seed
)


def _simulate(machine: str, memory: str | None, k: int, seed: int,
              defect: str | None = None) -> Op:
    argv = ["simulate", _m(machine)]
    if memory:
        argv += ["--memory", _m(memory)]
    argv += ["-k", str(k), "-n", str(MC_BLOCKS), "--seed", str(seed)]
    return Op(tuple(argv), defect=defect)


MC_WITNESS = _simulate("witness/p6", "witness/p7_as_p6", 1, 0, defect=WITNESS)


# --- structure -------------------------------------------------------------
# Each pass takes one machine per (states, symbols) stratum, two of the two
# smallest, rotating through each stratum's pool in a seeded order. A run
# of several passes so meets most of the pool, and its figures depend less
# on which machines a seed draws first. Of the 45 successful ops of a pass,
# the 60x2 machine's three big ops come first and the 60x4 machine's three
# next; p90, 4.5th from the top, falls in the middle of the 60x4 band, not
# on the edge between the two.
STRUCTURE_PICKS = {"m5x2": 2, "m8x3": 2}
STRUCTURE_WITNESS = _costs("witness/p6", 1, "witness/p7_as_p6", defect=WITNESS)


def _structure_ops(stem: str) -> list[Op]:
    s = f"structure/{stem}"
    return [
        Op(("analyze", _m(s))),
        Op(("analyze", _m(f"{s}_red"))),
        Op(("minimize", _m(f"{s}_red"), "-o", MINIMIZED), output=MINIMIZED),
        _costs(s, 1, f"{s}_kernel"),
        _costs(s, 1, f"{s}_mem"),
    ]


def _structure_shapes() -> dict[str, list[str]]:
    shapes: dict[str, list[str]] = {}
    for path in _pool("structure/m*_[0-9].json"):
        stem = path.split("/")[-1]
        shapes.setdefault(stem.rsplit("_", 1)[0], []).append(stem)
    return shapes


# --- selection -------------------------------------------------------------


def universe(workload: str) -> list[Op]:
    """Every op any seed can run; the goldens cover exactly these."""
    if workload == "exact-costs":
        return _exact_ops([m for f in EXACT_RANDOM_K for m in _pool(f"{f}_*.json")])
    if workload == "monte-carlo":
        ops = [MC_WITNESS]
        for machine, memory, k in MC_CONFIGS:
            machines = _pool(f"{machine}_*.json") if machine.startswith("exact/") else [machine]
            ops += [_simulate(m, memory, k, s) for m in machines for s in MC_SEEDS]
        return ops
    if workload == "structure":
        stems = [stem for group in _structure_shapes().values() for stem in group]
        return [op for stem in stems for op in _structure_ops(stem)] + [STRUCTURE_WITNESS]
    raise ValueError(f"unknown workload {workload!r}")


class Plan:
    """The seed's choice of inputs, and the op list of every pass."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}/{seed}")
        if workload == "exact-costs":
            picks = [self.rng.choice(_pool(f"{f}_*.json")) for f in EXACT_RANDOM_K]
            self._base = _exact_ops(picks)
        elif workload == "monte-carlo":
            self._r40x3 = self.rng.choice(_pool("exact/r40x3_*.json"))
            self._seeds = list(MC_SEEDS)
            self.rng.shuffle(self._seeds)
        else:
            self._shapes = {shape: self.rng.sample(group, len(group))
                            for shape, group in _structure_shapes().items()}

    def _ops(self, index: int) -> list[Op]:
        if self.workload == "exact-costs":
            return list(self._base)
        if self.workload == "structure":
            ops = [STRUCTURE_WITNESS]
            for shape, stems in self._shapes.items():
                picks = STRUCTURE_PICKS.get(shape, 1)
                for j in range(index * picks, (index + 1) * picks):
                    ops += _structure_ops(stems[j % len(stems)])
            return ops
        start = (index * MC_SEEDS_PER_PASS) % len(self._seeds)
        seeds = (self._seeds * 2)[start:start + MC_SEEDS_PER_PASS]
        ops = [MC_WITNESS]
        for machine, memory, k in MC_CONFIGS:
            m = self._r40x3 if machine.startswith("exact/") else machine
            ops += [_simulate(m, memory, k, s) for s in seeds]
        return ops

    def pass_ops(self, index: int) -> list[Op]:
        """Op list of pass `index`, shuffled; the mix is the same every pass."""
        ops = self._ops(index)
        self.rng.shuffle(ops)
        return ops

    def input_files(self) -> tuple[list[str], list[tuple[str, str]]]:
        """(machine files, (machine, memory file) pairs) the ops read."""
        machines: dict[str, None] = {}
        memories: dict[tuple[str, str], None] = {}
        for op in self._ops(0):
            machines[op.argv[1]] = None
            if "--memory" in op.argv:
                memories[(op.argv[1], op.argv[op.argv.index("--memory") + 1])] = None
        return list(machines), list(memories)


# --- running one op --------------------------------------------------------


@dataclass
class Outcome:
    exit: int | str | None  # exit code, or "ExcType: message" if it raised
    stdout: str
    stderr: str
    seconds: float
    files: dict[str, bytes]


def run_op(cli, op: Op) -> Outcome:
    """Run one op through `cli.main` in this process and capture it."""
    out, err = io.StringIO(), io.StringIO()
    if op.output:
        Path(op.output).unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects a flag
        code = exc.code
    except Exception as exc:  # a crash is an outcome to compare, not a stop
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    files = {}
    if op.output:
        path = Path(op.output)
        files[op.output] = path.read_bytes() if path.exists() else b""
    return Outcome(code, out.getvalue(), err.getvalue(), seconds, files)
