"""Per-layer tracing of pattherm from outside the package.

The layers are the modules of ``src/pattherm``. ``Tracer.install`` wraps
each layer's public functions, and the public methods of the classes it
defines, and rebinds every ``pattherm.*`` module attribute that refers to
a wrapped function, so ``from .x import y`` names and function-local
imports (which read the defining module at call time) reach the wrapper.
Nothing in the package is edited; ``uninstall`` restores every binding.

A span is (name, start_ns, end_ns, parent index, op id), kept in memory
and written out at the end. Counters are derived from the arguments and
return values of the wrapped calls.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "process_model", "info_measures", "causal_structure",
          "thermo_costs", "cycle_sim")
ROOT_SPAN = "bench.op"

# Per-element accessors run per word, symbol or rule; a span would cost
# more than their body. Their time stays in the calling span.
ACCESSORS = frozenset({
    "process_model.Alphabet.index",
    "process_model.Alphabet.word",
    "process_model.ValidatedMachine.state_index",
    "process_model.ValidatedMachine.successor",
    "process_model.ValidatedMachine.symbol_matrices",
    "process_model.StationaryDistribution.probability",
    "process_model.JointBlockDistribution.probability",
    "info_measures.FiniteDistribution.probability",
    "causal_structure.PrescientMemory.class_of",
    "causal_structure.KernelRule.matches",
    "causal_structure.RefinementKernel.rules_for",
    "causal_structure.SynchronizationProfile.residual",
    "thermo_costs.Units.convert",
    "cycle_sim.TapeState.write",
    "cycle_sim.TapeState.consume",
    "cycle_sim.WorkLedger.cumulative_net",
    "cycle_sim.WorkLedger.battery_balance",
})


def _public_callables(module):
    """(qualified name, owner, attribute, function) for one layer module."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, fn in vars(obj).items():
                qual = f"{layer}.{name}.{attr}"
                if attr.startswith("_") or not inspect.isfunction(fn) or qual in ACCESSORS:
                    continue
                yield qual, obj, attr, fn


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.counters: Counter = Counter()
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "process_model.joint_block_distribution": self._on_joint_table,
            "process_model.ValidatedMachine.word_state_vectors": self._on_words,
            "process_model.ValidatedMachine.per_state_word_distributions": self._on_words,
            "info_measures.JointTable.entropy": self._on_entropy,
            "info_measures.excess_entropy": self._on_excess,
            "thermo_costs.cycle_report": self._on_report,
            "causal_structure.check_prescience": self._on_prescience,
            "cycle_sim.run_cycle": self._on_cycle,
        }
        self._signatures: dict[str, inspect.Signature] = {}

    # --- installing ------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pattherm.{layer}")
            for qual, owner, attr, fn in list(_public_callables(module)):
                wrapper = self._wrap(qual, fn)
                wrappers[id(fn)] = wrapper
                self._rebind(owner, attr, fn, wrapper)
                if qual in self._hooks:
                    self._signatures[qual] = inspect.signature(fn)
        for name, module in list(sys.modules.items()):
            if name == "pattherm" or name.startswith("pattherm."):
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        self._rebind(module, attr, value, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, qual: str, fn):
        name_id = self._name_id(qual)
        hook = self._hooks.get(qual)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name_id, qual)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, qual)
            if hook is not None:
                hook(tracer._signatures[qual].bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # --- spans -----------------------------------------------------------

    def _open(self, name_id: int, qual: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name_id, time.perf_counter_ns(), 0, parent, self.op_id))
        self._stack.append(index)
        self._active[qual] += 1
        return index

    def _close(self, index: int, qual: str) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self._active[qual] -= 1
        name_id, start, _, parent, op_id = self.spans[index]
        self.spans[index] = (name_id, start, end, parent, op_id)

    def run_op(self, op_id: int, call):
        """Run `call()` as op `op_id` under a root span; returns its result."""
        self.op_id = op_id
        index = self._open(self._name_id(ROOT_SPAN), ROOT_SPAN)
        try:
            return call()
        finally:
            self._close(index, ROOT_SPAN)

    # --- counters from arguments and return values -------------------------

    def _on_joint_table(self, bound, result) -> None:
        args = bound.arguments
        self.counters["process_model.block_words"] += len(args["m"].alphabet) ** args["k"]
        self.counters["process_model.table_bytes"] += result.table.probs.nbytes
        if self._active["thermo_costs.cycle_report"]:
            self.counters["thermo_costs.block_tables_in_reports"] += 1

    def _on_words(self, bound, result) -> None:
        args = bound.arguments
        self.counters["process_model.block_words"] += len(args["self"].alphabet) ** args["length"]
        self.counters["process_model.table_bytes"] += result.nbytes

    def _on_entropy(self, bound, result) -> None:
        if bound.arguments.get("names") is None:  # the pass over a table
            self.counters["info_measures.entropy_evals"] += 1

    def _on_excess(self, bound, result) -> None:
        self.counters["info_measures.excess_attempted"] += 1
        self.counters["info_measures.excess_converged"] += bool(result.converged)

    def _on_report(self, bound, result) -> None:
        self.counters["thermo_costs.reports"] += 1

    def _on_prescience(self, bound, result) -> None:
        bound.apply_defaults()
        args = bound.arguments
        words = len(args["machine"].alphabet) ** args["L"]
        states = args["machine"].n_states + args["base"].machine.n_states
        self.counters["causal_structure.prescience_checks"] += 1
        self.counters["causal_structure.prescience_words"] += words * states

    def _on_cycle(self, bound, result) -> None:
        cfg = bound.arguments["cfg"]
        blocks = result[1].block_count
        self.counters["cycle_sim.blocks"] += blocks
        # one class draw and two member draws, then per symbol: emit,
        # generator landing, default reset, extractor landing
        self.counters["cycle_sim.draws"] += 3 + 4 * cfg.k * blocks

    # --- reductions ------------------------------------------------------

    def self_times(self) -> list[tuple[int, int, int]]:
        """(name id, op id, self ns) per span: duration minus child spans."""
        child = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(name_id, op_id, end - start - child[i])
                for i, (name_id, start, end, _, op_id) in enumerate(self.spans)]

    def layer_totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per layer; the root span is layer 'bench'."""
        calls, self_s = Counter(), Counter()
        for name_id, _, ns in self.self_times():
            layer = self.names[name_id].split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += ns / 1e9
        return calls, self_s

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start_ns", "end_ns", "parent", "op"))
            for name_id, start, end, parent, op_id in self.spans:
                out.writerow((self.names[name_id], start, end, parent, op_id))
