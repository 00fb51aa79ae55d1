"""Seeded generator for the benchmark's committed input files.

    python3 perfbench/gen_inputs.py [--seed 20151001]

Writes ``perfbench/inputs/``:

- ``ref/``: byte copies of the reference machines and kernels shipped in
  ``machines/``, so later edits there cannot shift the benchmark;
- ``exact/``: random unifilar machines of 10 states x 2 symbols and
  40 states x 3 symbols, used at large stride k;
- ``structure/``: a population of 5-60 state, 2-4 symbol machines, each
  with a redundant (non-minimal) presentation, a kernel file and an
  explicit-machine memory file;
- ``witness/``: the period-7 machine mapped onto the period-6 causal
  states by 4-symbol future prefix, which the depth-4 prescience check
  wrongly accepts.

Every generated state is recurrent: each machine is built around a
random Hamiltonian cycle and a generated file is rejected unless
validation reports no transient state. (A state with no in-edge makes
``previous_state_kernel`` raise ``KernelError`` "has no sub-states".)
The outputs are committed; rerunning with the same seed reproduces them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from common import INPUTS, ROOT, pin_threads, use_checkout_src

pin_threads()
use_checkout_src()

import numpy as np  # noqa: E402

from pattherm import (  # noqa: E402
    machine_to_dict,
    minimize_to_causal,
    parity_kernel,
    parse_machine,
    previous_state_kernel,
    refine_memory,
    stochastic_split_kernel,
    validate_machine,
)

DEFAULT_SEED = 20151001
EXACT_SHAPES = {"r10x2": (10, 2, 6), "r40x3": (40, 3, 4)}  # name: (n, a, count)
# (states, symbols) strata of the structure population; 4 machines each
STRUCTURE_SHAPES = ((5, 2), (8, 3), (12, 4), (20, 2), (30, 3), (60, 2), (60, 4))
STRUCTURE_PER_SHAPE = 4
MIN_P = 0.02


def _probs(rng, m: int) -> list[float]:
    """A random distribution over m outcomes, each at least MIN_P, 6 digits."""
    p = MIN_P + (1.0 - m * MIN_P) * rng.dirichlet(np.ones(m))
    head = [round(float(x), 6) for x in p[:-1]]
    return head + [round(1.0 - sum(head), 6)]


def random_unifilar(rng, n: int, a: int, density: float = 0.75):
    """A strongly connected unifilar machine in machine-file form.

    Returns the machine and its Hamiltonian cycle as (state, symbol) pairs.
    """
    states = [f"s{i}" for i in range(n)]
    symbols = [str(x) for x in range(a)]
    order = rng.permutation(n)
    out: dict[int, dict[int, int]] = {i: {} for i in range(n)}
    cycle = []
    for pos in range(n):  # the Hamiltonian cycle keeps every state recurrent
        x = int(rng.integers(a))
        out[int(order[pos])][x] = int(order[(pos + 1) % n])
        cycle.append((states[int(order[pos])], symbols[x]))
    for i in range(n):
        for x in range(a):
            if x not in out[i] and rng.random() < density:
                out[i][x] = int(rng.integers(n))
    transitions = []
    for i in range(n):
        edges = sorted(out[i].items())
        for (x, j), p in zip(edges, _probs(rng, len(edges))):
            transitions.append(
                {"from": states[i], "symbol": symbols[x], "p": p, "to": states[j]}
            )
    machine = {"alphabet": symbols, "states": states, "transitions": transitions}
    return machine, cycle


def redundant_copy(rng, data: dict, cycle) -> dict:
    """Split every state into two copies that predict alike.

    Cycle edges keep the copy index except the last, which swaps it, so
    the copies lie on one Hamiltonian cycle of twice the length; every
    other edge picks its target copy at random.
    """
    swap = cycle[-1]
    on_cycle = set(cycle)
    transitions = []
    for t in data["transitions"]:
        for c in (0, 1):
            key = (t["from"], t["symbol"])
            if key == swap:
                d = 1 - c
            elif key in on_cycle:
                d = c
            else:
                d = int(rng.integers(2))
            transitions.append({"from": f"{t['from']}.{c}", "symbol": t["symbol"],
                                "p": t["p"], "to": f"{t['to']}.{d}"})
    states = [f"{s}.{c}" for s in data["states"] for c in (0, 1)]
    return {"alphabet": data["alphabet"], "states": states, "transitions": transitions}


def kernel_to_dict(kernel) -> dict:
    rules = []
    for r in kernel.rules:
        row = {"target": r.target, "p": dict(r.probs)}
        for key in ("source_class", "source_sub", "symbol"):
            if getattr(r, key) is not None:
                row[key] = getattr(r, key)
        rules.append(row)
    return {
        "kind": "kernel",
        "name": kernel.name,
        "sub_states": {s: list(us) for s, us in kernel.sub_states.items()},
        "rules": rules,
    }


def memory_to_dict(memory, name: str) -> dict:
    return {
        "kind": "machine",
        "name": name,
        "machine": machine_to_dict(memory.machine),
        "causal_map": dict(memory.causal_map),
    }


def _write(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def _recurrent(data: dict, label: str):
    machine = validate_machine(parse_machine(data))
    if machine.transient_states:
        raise RuntimeError(f"{label}: transient states {machine.transient_states}")
    return machine


def periodic(word: str, prefix: str) -> dict:
    states = [f"{prefix}{i}" for i in range(len(word))]
    return {
        "alphabet": ["0", "1"],
        "states": states,
        "transitions": [
            {"from": states[i], "symbol": word[i], "p": 1.0,
             "to": states[(i + 1) % len(word)]}
            for i in range(len(word))
        ],
    }


def witness() -> tuple[dict, dict]:
    """Period-6 base machine and a period-7 memory that agrees to depth 4."""
    base = periodic("000001", "Q")
    cand = periodic("0000001", "P")

    def future(word: str, i: int, depth: int = 4) -> str:
        return "".join(word[(i + t) % len(word)] for t in range(depth))

    causal_map = {}
    for i, p in enumerate(cand["states"]):
        prefix = future("0000001", i)
        causal_map[p] = next(
            q for j, q in enumerate(base["states"]) if future("000001", j) == prefix
        )
    memory = {"kind": "machine", "name": "p7-as-p6", "machine": cand,
              "causal_map": causal_map}
    return base, memory


def generate(seed: int) -> None:
    out = INPUTS
    if out.exists():
        shutil.rmtree(out)
    rng = np.random.default_rng(seed)

    ref = out / "ref"
    ref.mkdir(parents=True)
    for name in ("pc09", "gm", "p2", "fc"):
        shutil.copyfile(ROOT / "machines" / f"{name}.json", ref / f"{name}.json")
    for name in ("pc_last_two", "pc_split50"):
        shutil.copyfile(ROOT / "machines" / "kernels" / f"{name}.json",
                        ref / f"{name}.json")

    for stem, (n, a, count) in EXACT_SHAPES.items():
        for i in range(count):
            data, _ = random_unifilar(rng, n, a)
            _recurrent(data, stem)
            _write(out / "exact" / f"{stem}_{i}.json", data)

    for n, a in STRUCTURE_SHAPES:
        for i in range(STRUCTURE_PER_SHAPE):
            stem = f"m{n}x{a}_{i}"
            # the redundant copy doubles the states, so its base has n/2
            base_n = max(3, n // 2)
            data, _ = random_unifilar(rng, n, a)
            machine = _recurrent(data, stem)
            causal = minimize_to_causal(machine)
            _write(out / "structure" / f"{stem}.json", data)
            redundant = redundant_copy(rng, *random_unifilar(rng, base_n, a))
            _recurrent(redundant, f"{stem}_red")
            _write(out / "structure" / f"{stem}_red.json", redundant)
            kernel = (previous_state_kernel, stochastic_split_kernel)[i % 2](causal)
            _write(out / "structure" / f"{stem}_kernel.json", kernel_to_dict(kernel))
            memory = refine_memory(causal, parity_kernel(causal))
            _write(out / "structure" / f"{stem}_mem.json",
                   memory_to_dict(memory, f"{stem}-parity"))

    base, memory = witness()
    _recurrent(base, "p6")
    _recurrent(memory["machine"], "p7")
    _write(out / "witness" / "p6.json", base)
    _write(out / "witness" / "p7_as_p6.json", memory)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    generate(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
