"""Work costs of generating and extracting patterns with prescient memory.

Every cost is an average quasistatic work in bits (beta*W / ln 2); the
Units value converts to joules via the Landauer factor kB*T*ln2 when a
temperature is supplied. The dissipative memory-update cost is always
computed along three independent routes; their agreement certifies the
entropy bookkeeping behind the whole module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .causal_structure import CausalMachine, PrescientMemory, as_causal, causal_memory
from .errors import PatthermError
from .info_measures import (
    FiniteDistribution,
    JointTable,
    entropy,
    excess_entropy,
    symbol_entropy_given_state,
)
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
            if self.temperature is None or self.temperature <= 0.0:
                raise ValueError("physical units need a positive temperature")

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


def _default_dist(mem: PrescientMemory, default) -> FiniteDistribution:
    if default is None:
        return mem.machine.default_distribution
    return default


def generation_tape_cost(
    m, k: int, default: FiniteDistribution | None = None, units: Units = BITS
) -> float:
    """Work to write k pattern symbols over default-distributed cells.

    k * [H(X_default) - h], with h the per-symbol entropy conditioned on
    the causal state. Positive whenever the pattern is more ordered than
    the default tape.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mem = _as_memory(m)
    h = symbol_entropy_given_state(mem.base.machine)
    d = _default_dist(mem, default)
    return units.convert(k * (entropy(d) - h))


@dataclass(frozen=True)
class DissipationCost:
    """The memory-update dissipation, computed three ways.

    eq2: erasure-minus-indeterminism form
         H(R^t | block, R^{t+k}) - H(R^{t+k} | R^t, block)
    eq3: prediction-minus-retrodiction form
         H(block | R^t) - H(block | R^{t+k})
    eq5: mutual-information form
         I(block; R^{t+k}) - I(block; R^t)
    """

    k: int
    eq2: float
    eq3: float
    eq5: float
    units: Units = BITS

    @property
    def value(self) -> float:
        return self.eq3

    @property
    def max_disagreement(self) -> float:
        return max(abs(self.eq2 - self.eq3), abs(self.eq3 - self.eq5))


def dissipation_cost(
    m, k: int, units: Units = BITS, block_budget: int | None = None
) -> DissipationCost:
    """Dissipative work of updating the memory across a k-symbol block.

    All three routes are evaluated from the exact joint block table and
    must agree within 1e-9; disagreement raises, since it would mean the
    bookkeeping itself is broken.
    """
    mem = _as_memory(m)
    return _dissipation(joint_block_distribution(mem.machine, k, block_budget).table, k, units)


def _dissipation(t: JointTable, k: int, units: Units) -> DissipationCost:
    eq2 = t.conditional_entropy("state_in", ("word", "state_out")) - t.conditional_entropy(
        "state_out", ("state_in", "word")
    )
    eq3 = t.conditional_entropy("word", "state_in") - t.conditional_entropy(
        "word", "state_out"
    )
    eq5 = t.mutual_information("word", "state_out") - t.mutual_information(
        "word", "state_in"
    )
    cost = DissipationCost(
        k=k,
        eq2=units.convert(eq2),
        eq3=units.convert(eq3),
        eq5=units.convert(eq5),
        units=units,
    )
    if cost.max_disagreement > IDENTITY_TOL * max(1.0, units.factor):
        raise PatthermError(
            f"dissipation routes disagree by {cost.max_disagreement:.3e} at k={k}"
        )
    return cost


def memory_entropy(m, units: Units = BITS) -> float:
    return units.convert(_as_memory(m).memory_entropy())


def dissipation_limit(m, excess, units: Units = BITS) -> float:
    """Large-block dissipation H(R) - E for synchronizing memories."""
    mem = _as_memory(m)
    e = float(excess)
    return units.convert(mem.memory_entropy() - e)


def convergence_gaps(m, ks, excess=None, block_budget: int | None = None):
    """|W_diss(k) - (H(R) - E)| for each k, in bits."""
    mem = _as_memory(m)
    if excess is None:
        excess = excess_entropy(mem.base.machine, block_budget=block_budget)
    limit = dissipation_limit(mem, excess)
    return tuple(
        abs(dissipation_cost(mem, k, block_budget=block_budget).eq3 - limit)
        for k in ks
    )


@dataclass(frozen=True)
class ExtractionWork:
    """Work released by resetting k pattern symbols to the default state.

    `intermediate` is the retrodictive entropy H(R^t, block | R^{t+k});
    `intermediate_identity` is its predicted value k*H(X|R) +
    H(R^{t+k} | R^t, block). Their agreement is checked on every call.
    """

    k: int
    value: float
    intermediate: float
    intermediate_identity: float
    units: Units = BITS


def extraction_work(
    m,
    k: int,
    default: FiniteDistribution | None = None,
    units: Units = BITS,
    block_budget: int | None = None,
) -> ExtractionWork:
    """Average work output of a prescient extractor over a k-block.

    k * [H(X_default) - H(X^{t+1}|R^t)]; positive means work released.
    Identical for every prescient memory of the same pattern.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mem = _as_memory(m)
    table = joint_block_distribution(mem.machine, k, block_budget).table
    return _extraction(mem, table, k, default, units)


def _extraction(
    mem: PrescientMemory, t: JointTable, k: int, default, units: Units
) -> ExtractionWork:
    h = symbol_entropy_given_state(mem.machine)
    d = _default_dist(mem, default)
    intermediate = t.conditional_entropy(("state_in", "word"), "state_out")
    identity = k * h + t.conditional_entropy("state_out", ("state_in", "word"))
    if abs(intermediate - identity) > IDENTITY_TOL:
        raise PatthermError(
            f"extractor bookkeeping identity violated by "
            f"{abs(intermediate - identity):.3e} at k={k}"
        )
    return ExtractionWork(
        k=k,
        value=units.convert(k * (entropy(d) - h)),
        intermediate=units.convert(intermediate),
        intermediate_identity=units.convert(identity),
        units=units,
    )


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


def format_work(value: float, units: Units) -> str:
    """9-digit rendering: fixed point for bits, scientific for joules."""
    if units.mode == "bits":
        return f"{value:.9f}"
    return f"{value:.9e}"


@dataclass(frozen=True)
class CostReport:
    """All per-block work quantities for one memory at one stride k."""

    k: int
    w_tape: float
    w_diss_eq2: float
    w_diss_eq3: float
    w_diss_eq5: float
    w_out: float
    w_diss_limit: float
    units: Units
    memory_id: str
    minimal: bool
    net: float

    def csv_row(self) -> list[str]:
        return [
            str(self.k),
            format_work(self.w_tape, self.units),
            format_work(self.w_diss_eq2, self.units),
            format_work(self.w_diss_eq3, self.units),
            format_work(self.w_diss_eq5, self.units),
            format_work(self.w_out, self.units),
            format_work(self.w_diss_limit, self.units),
            self.units.label,
            self.memory_id,
        ]


def block_work(
    m,
    k: int,
    default: FiniteDistribution | None = None,
    units: Units = BITS,
    block_budget: int | None = None,
) -> tuple[float, DissipationCost, float]:
    """(W_tape, dissipation, W_out) for one k-block, from one joint table."""
    mem = _as_memory(m)
    w_tape = generation_tape_cost(mem, k, default, units)
    table = joint_block_distribution(mem.machine, k, block_budget).table
    diss = _dissipation(table, k, units)
    return w_tape, diss, _extraction(mem, table, k, default, units).value


def cycle_report(
    m,
    k: int,
    default: FiniteDistribution | None = None,
    units: Units = BITS,
    excess=None,
    block_budget: int | None = None,
) -> CostReport:
    """Full generate-then-extract cycle balance for one block.

    The written and consumed tape work cancel, so the net cost of the
    cycle equals the generator's memory-update dissipation; the report
    flags whether the chosen memory attains the causal minimum.
    """
    mem = _as_memory(m)
    w_tape, diss, w_out = block_work(mem, k, default, units, block_budget)
    if excess is None:
        excess = excess_entropy(mem.base.machine, block_budget=block_budget)
    limit = dissipation_limit(mem, excess, units)
    net = w_tape + diss.eq3 - w_out
    return CostReport(
        k=k,
        w_tape=w_tape,
        w_diss_eq2=diss.eq2,
        w_diss_eq3=diss.eq3,
        w_diss_eq5=diss.eq5,
        w_out=w_out,
        w_diss_limit=limit,
        units=units,
        memory_id=mem.memory_id,
        minimal=mem.is_minimal,
        net=net,
    )
