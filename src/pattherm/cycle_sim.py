"""Monte Carlo realization of the generate-then-extract tape cycle.

A generator writes k-symbol blocks onto a tape while updating its
prescient memory; an extractor reads each block, updates its own memory,
and resets the cells to freshly drawn default symbols. Work is booked
analytically per block (the costs are quasistatic averages), while the
ledger accumulates empirical frequency tables that cross-check the
analytic entropies.

One shared stream drives the pattern symbols (the extractor reads what
the generator wrote); memory-kernel randomness uses an independent
substream per device, so indeterministic refinements stay private noise.
"""

from __future__ import annotations

import io
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .causal_structure import PrescientMemory
from .errors import DesynchronizedError, InsufficientDataError
from .info_measures import FiniteDistribution, entropy_bits
from .process_model import _cumulative_rows, _draw
from .thermo_costs import BITS, Units, block_work


@dataclass(frozen=True)
class SimConfig:
    memory: PrescientMemory
    k: int
    n_blocks: int
    seed: int
    default_distribution: FiniteDistribution | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")


@dataclass
class TapeState:
    """Bounded view of the tape: the inter-cursor pattern region only.

    Cells left of the extractor cursor hold default symbols after reset;
    a bounded window of them is retained for inspection, plus counts.
    """

    capacity: int
    pattern_cells: deque = field(default_factory=deque)
    recent_default: deque = field(default_factory=deque)
    gen_cursor: int = 0
    ext_cursor: int = 0

    def write(self, symbol: str) -> None:
        if len(self.pattern_cells) >= self.capacity:
            raise DesynchronizedError("generator overran the tape window")
        self.pattern_cells.append(symbol)
        self.gen_cursor += 1

    def consume(self, default_symbol: str) -> str:
        if not self.pattern_cells:
            raise DesynchronizedError("extractor overran the generator cursor")
        symbol = self.pattern_cells.popleft()
        self.recent_default.append(default_symbol)
        if len(self.recent_default) > self.capacity:
            self.recent_default.popleft()
        self.ext_cursor += 1
        return symbol


class BlockRecord(NamedTuple):
    block_index: int
    symbols: str
    gen_state_before: str
    gen_state_after: str
    ext_state_before: str
    ext_state_after: str
    battery_balance_bits: float


TRACE_COLUMNS = (
    "block_index",
    "symbols",
    "gen_state_before",
    "gen_state_after",
    "ext_state_before",
    "ext_state_after",
    "battery_balance_bits",
)


@dataclass
class SimTrace:
    records: list[BlockRecord]

    def to_csv(self, fh) -> None:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for r in self.records:
            fh.write(
                f"{r.block_index},{r.symbols},{r.gen_state_before},"
                f"{r.gen_state_after},{r.ext_state_before},{r.ext_state_after},"
                f"{r.battery_balance_bits:.9f}\n"
            )

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


@dataclass
class WorkLedger:
    """Analytic per-block costs plus empirical frequency tables."""

    w_tape_per_block: float
    w_diss_per_block: float
    w_out_per_block: float
    units: Units
    block_count: int = 0
    state_symbol_counts: Counter = field(default_factory=Counter)
    symbol_counts: Counter = field(default_factory=Counter)
    word_counts: Counter = field(default_factory=Counter)
    default_counts: Counter = field(default_factory=Counter)

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

    def empirical_word_entropy(self) -> tuple[float, int]:
        return _plugin_entropy(self.word_counts)

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


def empirical_entropy(sequence, block_len: int, overlapping: bool = True):
    """Plug-in entropy of the block frequency table of a sequence.

    Overlapping windows (the default) give phase-invariant estimates for
    periodic data. Returns (entropy in bits, number of windows counted);
    no bias correction is applied.
    """
    seq = list(sequence)
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    if len(seq) < block_len:
        raise InsufficientDataError(
            f"sequence of length {len(seq)} has no {block_len}-blocks"
        )
    step = 1 if overlapping else block_len
    counts = Counter(
        tuple(seq[i : i + block_len])
        for i in range(0, len(seq) - block_len + 1, step)
    )
    return _plugin_entropy(counts)


def run_cycle(cfg: SimConfig):
    """Simulate n_blocks generate/extract rounds; returns (trace, ledger).

    Deterministic for a fixed config. Raises DesynchronizedError if the
    two memories ever disagree at the causal-state level at a block
    boundary, which no prescient memory should trigger.
    """
    mem = cfg.memory
    machine = mem.machine
    n = machine.n_states
    alphabet = machine.alphabet
    default = cfg.default_distribution or machine.default_distribution

    a = len(alphabet)
    emit_rows = _cumulative_rows(machine.emission_matrix())
    # row i * a + x: landing state after emitting symbol x from state i
    landing_rows = _cumulative_rows(machine.symbol_matrices().transpose(1, 0, 2).reshape(-1, n))
    default_row = _cumulative_rows(default.probs[None, :])[0]

    # one batch of uniforms per stream: the same doubles as one call per draw
    n_draws = cfg.k * cfg.n_blocks + 1
    pattern_u, gen_u, ext_u, reset_u = (
        iter(np.random.default_rng(s).random(n_draws).tolist())
        for s in np.random.SeedSequence(cfg.seed).spawn(4)
    )

    # start synchronized: one causal class, private sub-state draws
    base_pi = mem.base.machine.stationary().probs
    class0 = _draw(_cumulative_rows(base_pi[None, :])[0], next(pattern_u))
    class_label = mem.base.machine.states[class0]
    in_class = np.array([mem.causal_map[s] == class_label for s in machine.states])
    weights = machine.stationary().probs * in_class
    if weights.sum() <= 0.0:
        weights = in_class.astype(float)
    member_row = _cumulative_rows(weights[None, :])[0]
    gen_state = _draw(member_row, next(gen_u))
    ext_state = _draw(member_row, next(ext_u))

    w_tape, diss, w_out = block_work(mem, cfg.k, default, BITS)
    ledger = WorkLedger(
        w_tape_per_block=w_tape,
        w_diss_per_block=diss.eq3,
        w_out_per_block=w_out,
        units=BITS,
    )
    tape = TapeState(capacity=cfg.k)
    records: list[BlockRecord] = []
    states = machine.states
    symbols = alphabet.symbols

    for block in range(cfg.n_blocks):
        gen_before = states[gen_state]
        ext_before = states[ext_state]
        block_symbols = []
        for _ in range(cfg.k):
            x = _draw(emit_rows[gen_state], next(pattern_u))
            ledger.state_symbol_counts[(states[gen_state], symbols[x])] += 1
            ledger.symbol_counts[symbols[x]] += 1
            tape.write(symbols[x])
            block_symbols.append(symbols[x])
            gen_state = _draw(landing_rows[gen_state * a + x], next(gen_u))
        for _ in range(cfg.k):
            reset_sym = symbols[_draw(default_row, next(reset_u))]
            read = tape.consume(reset_sym)
            ledger.default_counts[reset_sym] += 1
            row = landing_rows[ext_state * a + alphabet.index(read)]
            if not row[1]:
                raise DesynchronizedError(
                    f"extractor in {states[ext_state]!r} cannot read {read!r}"
                )
            ext_state = _draw(row, next(ext_u))
        word = "".join(block_symbols)
        ledger.word_counts[word] += 1
        ledger.block_count += 1
        if mem.causal_map[states[gen_state]] != mem.causal_map[states[ext_state]]:
            raise DesynchronizedError(
                f"block {block}: generator class "
                f"{mem.causal_map[states[gen_state]]!r} != extractor class "
                f"{mem.causal_map[states[ext_state]]!r}"
            )
        records.append(
            BlockRecord(
                block_index=block,
                symbols=word,
                gen_state_before=gen_before,
                gen_state_after=states[gen_state],
                ext_state_before=ext_before,
                ext_state_after=states[ext_state],
                battery_balance_bits=ledger.battery_balance(block + 1),
            )
        )
    return SimTrace(records), ledger
