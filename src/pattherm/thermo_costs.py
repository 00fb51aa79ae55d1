"""Work costs of generating and extracting patterns with prescient memory.

Every cost is an average quasistatic work in bits (beta*W / ln 2), the
paper's unit of kB*T*ln2; joules appear only when a cost is printed, via
`format_work` and a Units value. The default tape distribution is the
pattern's (`mem.base.machine.default_distribution`). The dissipative
memory-update cost is always computed along three routes that read
different block entropies (see `_dissipation`); their agreement, and
the extractor identity, certify the entropy bookkeeping and the memory's
prescience at depth k, whatever units are printed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .causal_structure import CausalMachine, PrescientMemory, as_causal, causal_memory
from .errors import PatthermError
from .info_measures import entropy_bits, excess_entropy, symbol_entropy_given_state
from .process_model import ValidatedMachine, joint_block_distribution

K_BOLTZMANN = 1.380649e-23  # J/K
IDENTITY_TOL = 1e-9  # agreement between the dissipation routes


@dataclass(frozen=True)
class Units:
    """Output units: dimensionless bits, or joules at a fixed temperature."""

    mode: str = "bits"
    temperature: float | None = None

    def __post_init__(self):
        if self.mode not in ("bits", "physical"):
            raise ValueError(f"units mode must be 'bits' or 'physical', got {self.mode!r}")
        if self.mode == "physical":
            if self.temperature is None or not 0.0 < self.temperature < math.inf:
                raise ValueError("physical units need a positive, finite temperature")

    @property
    def factor(self) -> float:
        """Joules per bit in physical mode, 1 in bits mode."""
        if self.mode == "bits":
            return 1.0
        return K_BOLTZMANN * self.temperature * math.log(2.0)

    @property
    def label(self) -> str:
        return "bits" if self.mode == "bits" else "J"

    def convert(self, bits: float) -> float:
        return bits if self.mode == "bits" else bits * self.factor


BITS = Units()


def _as_memory(m) -> PrescientMemory:
    if isinstance(m, PrescientMemory):
        return m
    if isinstance(m, (CausalMachine, ValidatedMachine)):
        return causal_memory(as_causal(m))
    raise TypeError(f"expected a machine or memory, got {type(m).__name__}")


def _default_entropy(mem: PrescientMemory) -> float:
    """H(X_default) of the pattern's default tape distribution."""
    return entropy_bits(mem.base.machine.default_distribution)


def generation_tape_cost(m, k: int) -> float:
    """Work to write k pattern symbols over default-distributed cells.

    k * [H(X_default) - h], with h the per-symbol entropy conditioned on
    the causal state. Positive whenever the pattern is more ordered than
    the default tape.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mem = _as_memory(m)
    h = symbol_entropy_given_state(mem.base.machine)
    return k * (_default_entropy(mem) - h)


class BlockEntropies(NamedTuple):
    """The block entropies, in bits, that the costs of a k-block read.

    H(R_in, W, R_out) is not among them: it cancels from eq2 and from the
    extractor identity, and eq3 and eq5 never use it.
    """

    k: int
    h: float  # H(X^{t+1} | R^t) of the memory machine, per symbol
    state_in: float  # H(R_in)
    state_out: float  # H(R_out)
    state_word: float  # H(R_in, W)
    word_state: float  # H(W, R_out)
    word_in: float  # H(W), from the table that gives H(R_in, W)
    word_out: float  # H(W), from the table that gives H(W, R_out)

    @property
    def prescient(self) -> float:
        """H(R_in) + k*h, the value H(R_in, W) takes for a prescient memory."""
        return self.state_in + self.k * self.h


def block_entropies(mem: PrescientMemory, ks):
    """BlockEntropies at each stride in `ks`, in one pass over two tables.

    The forward table F[i, w] = P(w | R_in = i), n x |A|^k, grows by
    prepending a symbol; weighted by pi it gives H(R_in, W). The backward
    table A[w, j] = P(w, R_out = j), |A|^k x n, grows by appending one and
    gives H(W, R_out). Each stride extends the last one's tables, so a
    rising `ks` costs one pass; the (R_in, W, R_out) table is never built.
    """
    machine = mem.machine
    for k in ks:
        if k < 1:
            raise ValueError("k must be >= 1")
        machine.check_budget(k)
    pi = machine.stationary()
    h = symbol_entropy_given_state(machine)
    h_state = entropy_bits(pi)
    out = []
    length, forward, backward = 0, np.ones((machine.n_states, 1)), pi[None, :]
    for k in ks:
        if k < length:
            length, forward, backward = 0, np.ones((machine.n_states, 1)), pi[None, :]
        for _ in range(k - length):
            forward = machine.prepend_symbols(forward)
        joint = pi[:, None] * forward
        state_word, word_in = entropy_bits(joint), entropy_bits(pi @ forward)
        del joint  # before the backward table grows, to bound peak memory
        for _ in range(k - length):
            backward = machine.extend_words(backward)
        length = k
        out.append(BlockEntropies(
            k=k,
            h=h,
            state_in=h_state,
            state_out=h_state,
            state_word=state_word,
            word_state=entropy_bits(backward),
            word_in=word_in,
            word_out=entropy_bits(backward.sum(axis=1)),
        ))
    return out


def _dense_entropies(mem: PrescientMemory, k: int) -> BlockEntropies:
    """BlockEntropies from marginals of the (R_in, W, R_out) table."""
    t = joint_block_distribution(mem.machine, k).table
    h_word = t.entropy("word")
    return BlockEntropies(
        k=k,
        h=symbol_entropy_given_state(mem.machine),
        state_in=t.entropy("state_in"),
        state_out=t.entropy("state_out"),
        state_word=t.entropy(("state_in", "word")),
        word_state=t.entropy(("word", "state_out")),
        word_in=h_word,
        word_out=h_word,
    )


def _dissipation(e: BlockEntropies) -> tuple[float, float, float]:
    """The memory-update dissipation (eq2, eq3, eq5), computed three ways.

    eq2: erasure-minus-indeterminism form
         H(R^t | block, R^{t+k}) - H(R^{t+k} | R^t, block)
         = H(R^t, block) - H(block, R^{t+k}), with H(R^t, block) taken at
         its prescient value H(R) + k*h
    eq3: prediction-minus-retrodiction form
         H(block | R^t) - H(block | R^{t+k})
    eq5: mutual-information form
         I(block; R^{t+k}) - I(block; R^t), each side's H(block) read
         from the table its joint entropy comes from

    The routes read different entropies and must agree within 1e-9;
    disagreement raises, since it would mean the bookkeeping itself, or
    the memory's prescience, is broken.
    """
    eq2 = e.prescient - e.word_state
    eq3 = (e.state_word - e.state_in) - (e.word_state - e.state_out)
    eq5 = (e.word_out + e.state_out - e.word_state) - (e.word_in + e.state_in - e.state_word)
    gap = max(abs(eq2 - eq3), abs(eq3 - eq5))
    if gap > IDENTITY_TOL:
        raise PatthermError(f"dissipation routes disagree by {gap:.3e} at k={e.k}")
    return eq2, eq3, eq5


def _extraction(mem: PrescientMemory, e: BlockEntropies) -> float:
    """W_out, once the extractor identity H(R_in, W) = H(R) + k*h holds.

    H(R^t, block | R^{t+k}) - k*h - H(R^{t+k} | R^t, block) reduces to
    H(R_in, W) - H(R_out) - k*h: a depth-k check that the memory predicts
    the next k symbols as well as its per-symbol entropy says.
    """
    gap = abs(e.state_word - e.state_out - e.k * e.h)
    if gap > IDENTITY_TOL:
        raise PatthermError(
            f"extractor bookkeeping identity violated by {gap:.3e} at k={e.k}"
        )
    return e.k * (_default_entropy(mem) - e.h)


CSV_COLUMNS = (
    "k",
    "W_tape",
    "W_diss_eq2",
    "W_diss_eq3",
    "W_diss_eq5",
    "W_out",
    "W_diss_limit",
    "units",
    "memory_id",
)


def format_work(bits: float, units: Units) -> str:
    """A cost in bits, printed in `units` to 9 digits: fixed point for
    bits, scientific for joules."""
    if units.mode == "bits":
        text = f"{bits:.9f}"
        # rounding noise such as -4.4e-16 prints unsigned, not as -0.000000000
        return text.lstrip("-") if float(text) == 0.0 else text
    return f"{units.convert(bits):.9e}"


class CostReport(NamedTuple):
    """All per-block work quantities for one memory at one stride k."""

    k: int
    w_tape: float
    w_diss_eq2: float
    w_diss_eq3: float
    w_diss_eq5: float
    w_out: float
    w_diss_limit: float
    memory_id: str
    minimal: bool
    net: float

    def csv_row(self, units: Units = BITS) -> list[str]:
        works = (self.w_tape, self.w_diss_eq2, self.w_diss_eq3, self.w_diss_eq5,
                 self.w_out, self.w_diss_limit)
        return [
            str(self.k),
            *(format_work(w, units) for w in works),
            units.label,
            self.memory_id,
        ]


def block_work(m, k: int) -> tuple[float, float, float]:
    """(W_tape, W_diss, W_out) for one k-block, from marginals of the
    (R_in, W, R_out) table.

    `simulate` books these per block. Its trace prints n times W_diss to
    nine decimals, so W_diss keeps the float these marginals give, which
    the streamed tables of `cycle_report` can miss in the last bit.
    """
    mem = _as_memory(m)
    w_tape = generation_tape_cost(mem, k)
    e = _dense_entropies(mem, k)
    w_out = _extraction(mem, e)
    return w_tape, _dissipation(e)[1], w_out


def cycle_reports(m, ks, excess=None) -> list[CostReport]:
    """cycle_report at each stride in `ks`, from one pass over the tables.

    W_diss_limit is H(R) - E, the large-block dissipation of a
    synchronizing memory; `excess` defaults to the pattern's E.
    """
    mem = _as_memory(m)
    entropies = block_entropies(mem, ks)
    if excess is None:
        excess = excess_entropy(mem.base.machine)
    limit = mem.memory_entropy() - float(excess)
    reports = []
    for e in entropies:
        w_tape = generation_tape_cost(mem, e.k)
        w_out = _extraction(mem, e)
        eq2, eq3, eq5 = _dissipation(e)
        reports.append(CostReport(
            k=e.k,
            w_tape=w_tape,
            w_diss_eq2=eq2,
            w_diss_eq3=eq3,
            w_diss_eq5=eq5,
            w_out=w_out,
            w_diss_limit=limit,
            memory_id=mem.memory_id,
            minimal=mem.is_minimal,
            net=w_tape + eq3 - w_out,
        ))
    return reports


def cycle_report(m, k: int, excess=None) -> CostReport:
    """Full generate-then-extract cycle balance for one block.

    The written and consumed tape work cancel, so the net cost of the
    cycle equals the generator's memory-update dissipation; the report
    flags whether the chosen memory attains the causal minimum.
    """
    return cycle_reports(m, [k], excess)[0]
