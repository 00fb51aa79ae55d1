"""Monte Carlo realization of the generate-then-extract tape cycle.

A generator writes k-symbol blocks onto a tape while updating its
prescient memory; an extractor reads each block, updates its own memory,
and resets the cells to freshly drawn default symbols. Work is booked
analytically per block (the costs are quasistatic averages), while the
ledger holds empirical frequency tables that cross-check the analytic
entropies.

One shared stream drives the pattern symbols (the extractor reads what
the generator wrote); memory-kernel randomness uses an independent
substream per device, so indeterministic refinements stay private noise.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .causal_structure import PrescientMemory
from .errors import DesynchronizedError, InsufficientDataError
from .info_measures import entropy_bits
from .process_model import _draws, _sampling_rows, _walk
from .thermo_costs import block_work


@dataclass(frozen=True)
class SimConfig:
    memory: PrescientMemory
    k: int
    n_blocks: int
    seed: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")


TRACE_COLUMNS = ("block_index", "symbols", "gen_state_before", "gen_state_after",
                 "ext_state_before", "ext_state_after", "battery_balance_bits")
CSV_CHUNK_ROWS = 1 << 16  # rows formatted per write, which bounds the text held


class SimTrace(NamedTuple):
    """The trace as columns: each block's word, the n+1 generator and
    extractor state labels at block boundaries, and the battery balance
    after each block."""

    words: list[str]
    gen_labels: list[str]
    ext_labels: list[str]
    battery: list[float]

    def to_csv(self, fh) -> None:
        """Write the header line, then one line per block."""
        g, e = self.gen_labels, self.ext_labels
        rows = zip(range(len(self.words)), self.words, g, g[1:], e, e[1:], self.battery)
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        while chunk := [f"{i},{w},{gb},{ga},{eb},{ea},{b:.9f}\n"
                        for i, w, gb, ga, eb, ea, b in islice(rows, CSV_CHUNK_ROWS)]:
            fh.write("".join(chunk))


class WorkLedger(NamedTuple):
    """Analytic per-block costs plus empirical frequency tables."""

    w_tape_per_block: float
    w_diss_per_block: float
    w_out_per_block: float
    block_count: int
    state_symbol_counts: Counter  # (generator state, symbol) -> count
    symbol_counts: Counter
    default_counts: Counter  # reset symbols drawn from the default distribution

    @property
    def net_per_block(self) -> float:
        return self.w_tape_per_block + self.w_diss_per_block - self.w_out_per_block

    def cumulative_net(self, blocks: int | None = None) -> float:
        n = self.block_count if blocks is None else blocks
        return n * self.net_per_block

    def battery_balance(self, blocks: int | None = None) -> float:
        n = self.block_count if blocks is None else blocks
        return n * (self.w_out_per_block - self.w_tape_per_block - self.w_diss_per_block)

    def empirical_symbol_entropy(self) -> tuple[float, int]:
        return _plugin_entropy(self.symbol_counts)

    def empirical_conditional_entropy(self) -> tuple[float, int]:
        """Plug-in H(next symbol | generator state), in bits."""
        total = sum(self.state_symbol_counts.values())
        if total == 0:
            raise InsufficientDataError("no symbols recorded")
        by_state: dict[str, Counter] = {}
        for (state, symbol), count in self.state_symbol_counts.items():
            by_state.setdefault(state, Counter())[symbol] = count
        h = 0.0
        for counts in by_state.values():
            n_state = sum(counts.values())
            h_state, _ = _plugin_entropy(counts)
            h += (n_state / total) * h_state
        return h, total


def _plugin_entropy(counts: Counter) -> tuple[float, int]:
    """Plug-in entropy of a frequency table: (bits, total count)."""
    total = sum(counts.values())
    if total == 0:
        raise InsufficientDataError("empty frequency table")
    return entropy_bits(np.array([c / total for c in counts.values()])), total


def _tally(codes, label) -> Counter:
    """Counter of label(c) over the integer codes, keys in first-occurrence
    order; each distinct code is labelled once."""
    distinct, first, counts = np.unique(codes, return_index=True, return_counts=True)
    order = np.argsort(first)
    return Counter(dict(zip(map(label, distinct[order].tolist()), counts[order].tolist())))


def run_cycle(cfg: SimConfig):
    """Simulate n_blocks generate/extract rounds; returns (trace, ledger).

    Deterministic for a fixed config. Raises DesynchronizedError if the
    two memories ever disagree at the causal-state level at a block
    boundary, which no prescient memory should trigger.
    """
    mem = cfg.memory
    machine = mem.machine
    n = machine.n_states
    a = len(machine.alphabet)
    states = machine.states
    symbols = machine.alphabet.symbols
    k, n_blocks = cfg.k, cfg.n_blocks
    n_steps = k * n_blocks

    # node i < n draws a symbol x of state i and moves to node n + i * a + x,
    # which draws the state that emitting x from i lands in
    landing_rows = _sampling_rows(machine.step_matrix().reshape(-1, n))
    rows = [
        (cum, [n + i * a + x for x in nxt], total)
        for i, (cum, nxt, total) in enumerate(_sampling_rows(machine.emission_matrix()))
    ] + landing_rows

    # one batch of uniforms per stream; draw t of a stream takes its t-th double
    pattern_u, gen_u, ext_u, reset_u = (
        np.random.default_rng(s).random(n_steps + 1)
        for s in np.random.SeedSequence(cfg.seed).spawn(4)
    )

    # start synchronized: one causal class, private sub-state draws
    base_pi = mem.base.machine.stationary()
    class0 = _draws(base_pi, pattern_u[:1])[0]
    class_label = mem.base.machine.states[class0]
    in_class = np.array([mem.causal_map[s] == class_label for s in states])
    weights = machine.stationary() * in_class
    if weights.sum() <= 0.0:
        weights = in_class.astype(float)
    gen_state, ext_state = _draws(weights, [gen_u[0], ext_u[0]])

    work = block_work(mem, k)  # before the walks: its refusal is the first error

    # the generator needs nothing from the extractor: walk it all at once,
    # alternating a pattern draw (symbol) and a generator draw (landing state)
    uniforms = np.empty(2 * n_steps)
    uniforms[0::2] = pattern_u[1:]
    uniforms[1::2] = gen_u[1:]
    path = np.array(_walk(rows, rows[gen_state], uniforms.tolist()))
    gen_path = np.concatenate([[gen_state], path[1::2]])
    xs = (path[0::2] - n) % a

    # the extractor reads the whole tape, stopping at a symbol it cannot read
    ext_path = [ext_state]
    for x, u in zip(xs.tolist(), ext_u[1:].tolist()):
        cum, nxt, total = landing_rows[ext_state * a + x]
        if not nxt:
            break
        ext_state = nxt[bisect_right(cum, u * total)]
        ext_path.append(ext_state)
    # then its class is checked at every block boundary it reached; the
    # first error in block order is the one raised
    classes = [mem.causal_map[s] for s in states]
    class_code = np.unique(classes, return_inverse=True)[1]
    gen_ends, ext_ends = gen_path[k::k], np.array(ext_path)[k::k]
    mismatch = np.flatnonzero(class_code[gen_ends[:len(ext_ends)]] != class_code[ext_ends])
    if mismatch.size:
        block = int(mismatch[0])
        raise DesynchronizedError(
            f"block {block}: generator class {classes[gen_ends[block]]!r} "
            f"!= extractor class {classes[ext_ends[block]]!r}"
        )
    if len(ext_path) <= n_steps:
        raise DesynchronizedError(
            f"extractor in {states[ext_state]!r} cannot read {symbols[xs[len(ext_path) - 1]]!r}"
        )

    # tallies count integer codes; Counter keys keep first-occurrence order,
    # which fixes the order in which the plug-in entropies sum
    resets = _draws(mem.base.machine.default_distribution, reset_u[:n_steps])
    ledger = WorkLedger(
        *work,
        block_count=n_blocks,
        state_symbol_counts=_tally(
            gen_path[:-1] * a + xs, lambda c: (states[c // a], symbols[c % a])
        ),
        symbol_counts=_tally(xs, symbols.__getitem__),
        default_counts=_tally(resets, symbols.__getitem__),
    )
    # block words as big-endian base-|A| codes, each distinct code spelled once
    place = a ** np.arange(k - 1, -1, -1)
    distinct, word_code = np.unique(xs.reshape(n_blocks, k) @ place, return_inverse=True)
    digits = (distinct[:, None] // place % a).tolist()
    spelled = ["".join(map(symbols.__getitem__, d)) for d in digits]

    return SimTrace(
        words=list(map(spelled.__getitem__, word_code.tolist())),
        gen_labels=[states[g] for g in gen_path[::k].tolist()],
        ext_labels=[states[e] for e in ext_path[::k]],
        battery=ledger.battery_balance(np.arange(1, n_blocks + 1)).tolist(),
    ), ledger
