"""Causal states, prescient refinements, and their verification.

Minimization merges states of a unifilar presentation that predict the
same future (Moore-style partition refinement), yielding the unique
minimal presentation whose state entropy is the statistical complexity.
Refinements go the other way: a kernel splits each causal state into
sub-states, possibly stochastically and conditioned on the incoming
transition, producing a larger memory that predicts exactly as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DisconnectedError,
    KernelError,
    MachineSpecError,
    PrescienceViolationError,
    UnifilarRequiredError,
)
from .info_measures import entropy_bits
from .process_model import (
    MachineSpec,
    Transition,
    ValidatedMachine,
    parse_machine,
    validate_machine,
)

EMISSION_TOL = 1e-9  # state-distribution equality during merging
KERNEL_ROW_TOL = 1e-12
DETERMINISM_TOL = 1e-9
SYNC_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CausalMachine:
    """Minimal unifilar presentation plus the projection that produced it."""

    machine: ValidatedMachine
    projection: dict[str, str]  # input state -> causal state

    @property
    def complexity(self) -> float:
        """Statistical complexity C = H(pi) of the causal presentation."""
        return self.machine.stationary().entropy()


def statistical_complexity(c: CausalMachine) -> float:
    return c.complexity


def as_causal(m) -> CausalMachine:
    """Coerce a machine (or memory) to its causal presentation."""
    if isinstance(m, CausalMachine):
        return m
    if isinstance(m, PrescientMemory):
        return m.base
    return minimize_to_causal(m)


def minimize_to_causal(m: ValidatedMachine) -> CausalMachine:
    """Merge states with identical future morphs; idempotent.

    Partition refinement: start from blocks of equal next-symbol
    distributions (tolerance 1e-9), then split blocks whose members map a
    symbol to different blocks, until stable. Block order (and merged
    state labels) follow the first member in input order.
    """
    if not m.unifilar:
        raise UnifilarRequiredError(
            "causal-state minimization is defined for unifilar presentations"
        )
    n = m.n_states
    a = len(m.alphabet)
    E = m.emission_matrix()
    T = m.symbol_matrices()
    succ = np.full((n, a), -1, dtype=int)
    for x in range(a):
        for i in range(n):
            j = int(np.argmax(T[x, i]))
            if T[x, i, j] > 0.0:
                succ[i, x] = j

    block_of = np.full(n, -1, dtype=int)
    reps: list[int] = []
    for i in range(n):
        for b, rep in enumerate(reps):
            if np.abs(E[i] - E[rep]).max() <= EMISSION_TOL:
                block_of[i] = b
                break
        else:
            block_of[i] = len(reps)
            reps.append(i)

    while True:
        signatures = {}
        new_block_of = np.full(n, -1, dtype=int)
        order = 0
        for i in range(n):
            sig = (block_of[i],) + tuple(
                block_of[succ[i, x]] if succ[i, x] >= 0 else -1 for x in range(a)
            )
            if sig not in signatures:
                signatures[sig] = order
                order += 1
            new_block_of[i] = signatures[sig]
        if np.array_equal(new_block_of, block_of):
            break
        block_of = new_block_of

    n_blocks = block_of.max() + 1
    members = [np.flatnonzero(block_of == b) for b in range(n_blocks)]
    labels = [m.states[int(ms[0])] for ms in members]
    transitions = []
    for b in range(n_blocks):
        rep = int(members[b][0])
        for x in range(a):
            if succ[rep, x] >= 0:
                transitions.append(
                    Transition(
                        labels[b],
                        m.alphabet.symbols[x],
                        float(E[rep, x]),
                        labels[block_of[succ[rep, x]]],
                    )
                )
    quotient = validate_machine(
        MachineSpec(
            alphabet=m.alphabet,
            states=tuple(labels),
            transitions=tuple(transitions),
            default_distribution=m.default_distribution,
        )
    )
    projection = {m.states[i]: labels[block_of[i]] for i in range(n)}
    return CausalMachine(machine=quotient, projection=projection)


# ---------------------------------------------------------------------------
# prescient memories


@dataclass(frozen=True, eq=False)
class PrescientMemory:
    """A memory machine whose states predict as well as the causal states."""

    machine: ValidatedMachine
    base: CausalMachine
    causal_map: dict[str, str]  # memory state -> causal state
    memory_id: str = "causal"
    kernel: "RefinementKernel | None" = None

    def class_of(self, state: str) -> str:
        return self.causal_map[state]

    def memory_entropy(self) -> float:
        """H(R): entropy of the stationary memory-state distribution."""
        return self.machine.stationary().entropy()

    @property
    def is_minimal(self) -> bool:
        return self.memory_entropy() - self.base.complexity < 1e-9


def causal_memory(c: CausalMachine) -> PrescientMemory:
    """The causal states themselves, used as memory."""
    return PrescientMemory(
        machine=c.machine,
        base=c,
        causal_map={s: s for s in c.machine.states},
        memory_id="causal",
    )


@dataclass(frozen=True)
class KernelRule:
    """One fine-graining rule: where to land among a causal state's subs.

    A rule applies to transitions entering `target` whose source class,
    source sub-state, and emitted symbol match the non-None fields.
    """

    target: str
    probs: dict[str, float]
    source_class: str | None = None
    source_sub: str | None = None
    symbol: str | None = None

    def matches(self, source_class: str, source_sub: str, symbol: str) -> bool:
        if self.source_class is not None and self.source_class != source_class:
            return False
        if self.source_sub is not None and self.source_sub != source_sub:
            return False
        if self.symbol is not None and self.symbol != symbol:
            return False
        return True


@dataclass(frozen=True, eq=False)
class RefinementKernel:
    """Sub-state labels per causal state plus the landing rules."""

    name: str
    sub_states: dict[str, tuple[str, ...]]
    rules: tuple[KernelRule, ...]

    def rules_for(self, target: str) -> list[KernelRule]:
        return [r for r in self.rules if r.target == target]


def _validate_kernel(c: CausalMachine, kernel: RefinementKernel) -> None:
    machine = c.machine
    classes = set(machine.states)
    if set(kernel.sub_states) != classes:
        raise KernelError(
            f"kernel covers states {sorted(kernel.sub_states)}, machine has "
            f"{sorted(classes)}"
        )
    seen: set[str] = set()
    for s, subs in kernel.sub_states.items():
        if not subs:
            raise KernelError(f"causal state {s!r} has no sub-states")
        for u in subs:
            if u in seen:
                raise KernelError(f"sub-state label {u!r} used more than once")
            seen.add(u)
    for rule in kernel.rules:
        if rule.target not in classes:
            raise KernelError(f"rule targets unknown causal state {rule.target!r}")
        subs = set(kernel.sub_states[rule.target])
        unknown = set(rule.probs) - subs
        if unknown:
            raise KernelError(
                f"rule for {rule.target!r} assigns mass to non-member "
                f"sub-states {sorted(unknown)!r}"
            )
        total = sum(rule.probs.values())
        if abs(total - 1.0) > KERNEL_ROW_TOL:
            raise KernelError(
                f"rule for {rule.target!r} has probabilities summing to {total!r}"
            )
        if any(p < 0.0 for p in rule.probs.values()):
            raise KernelError(f"rule for {rule.target!r} has negative probability")


def refine_memory(
    c: CausalMachine,
    kernel: RefinementKernel,
    check_horizon: int = 4,
) -> PrescientMemory:
    """Fine-grain the causal states according to a kernel.

    The resulting memory machine emits exactly like its base (so it stays
    prescient by construction) while the landing sub-state inside the
    entered causal state is drawn from the matching kernel rule. The
    construction is verified with check_prescience up to `check_horizon`.
    """
    _validate_kernel(c, kernel)
    machine = c.machine
    states: list[str] = []
    class_of: dict[str, str] = {}
    for s in machine.states:
        for u in kernel.sub_states[s]:
            states.append(u)
            class_of[u] = s

    transitions = []
    for tr in machine.transitions:
        for u in kernel.sub_states[tr.frm]:
            for rule in kernel.rules:
                if rule.target == tr.to and rule.matches(tr.frm, u, tr.symbol):
                    break
            else:
                raise KernelError(
                    f"no rule covers transition {tr.frm!r} --{tr.symbol!r}--> "
                    f"{tr.to!r} from sub-state {u!r}"
                )
            for v, q in rule.probs.items():
                if q > 0.0:
                    transitions.append(Transition(u, tr.symbol, tr.p * q, v))

    try:
        refined = validate_machine(
            MachineSpec(
                alphabet=machine.alphabet,
                states=tuple(states),
                transitions=tuple(transitions),
                default_distribution=machine.default_distribution,
            )
        )
    except DisconnectedError as exc:
        raise KernelError(f"kernel induces a reducible memory chain: {exc}") from exc

    memory = PrescientMemory(
        machine=refined,
        base=c,
        causal_map=class_of,
        memory_id=kernel.name,
        kernel=kernel,
    )
    report = check_prescience(refined, class_of, c, L=check_horizon)
    if not report:
        raise PrescienceViolationError(
            f"refinement {kernel.name!r} deviates from its causal morphs by "
            f"{report.max_deviation:.3e}",
            deviation=report.max_deviation,
        )
    return memory


# ---------------------------------------------------------------------------
# stock kernels


def identity_kernel(c: CausalMachine, name: str = "identity") -> RefinementKernel:
    subs = {s: (s,) for s in c.machine.states}
    rules = tuple(KernelRule(target=s, probs={s: 1.0}) for s in c.machine.states)
    return RefinementKernel(name=name, sub_states=subs, rules=rules)


def previous_state_kernel(
    c: CausalMachine, name: str = "prev-state"
) -> RefinementKernel:
    """Split each causal state by the causal state it was entered from.

    For processes whose causal state is the last symbol this is the
    last-two-symbols memory.
    """
    machine = c.machine
    predecessors: dict[str, list[str]] = {s: [] for s in machine.states}
    for tr in machine.transitions:
        if tr.frm not in predecessors[tr.to]:
            predecessors[tr.to].append(tr.frm)
    # a state with no in-edges (transient) keeps one sub-state of its own
    subs = {
        s: tuple(f"{p}>{s}" for p in predecessors[s]) or (s,) for s in machine.states
    }
    rules = []
    for s in machine.states:
        for p in predecessors[s]:
            rules.append(
                KernelRule(target=s, source_class=p, probs={f"{p}>{s}": 1.0})
            )
    return RefinementKernel(name=name, sub_states=subs, rules=tuple(rules))


def stochastic_split_kernel(
    c: CausalMachine,
    n_subs: int = 2,
    probs=None,
    name: str = "split50",
) -> RefinementKernel:
    """Split every causal state into subs drawn i.i.d. at each update."""
    if probs is None:
        probs = [1.0 / n_subs] * n_subs
    if len(probs) != n_subs:
        raise KernelError("probs length must equal n_subs")
    subs = {
        s: tuple(f"{s}~{i}" for i in range(n_subs)) for s in c.machine.states
    }
    rules = tuple(
        KernelRule(
            target=s,
            probs={f"{s}~{i}": float(probs[i]) for i in range(n_subs)},
        )
        for s in c.machine.states
    )
    return RefinementKernel(name=name, sub_states=subs, rules=tuple(rules))


def parity_kernel(c: CausalMachine, name: str = "parity") -> RefinementKernel:
    """Deterministic split tracking the running parity of symbol indices.

    Doubles the memory (one extra bit, uniform and unobservable), while
    every update stays a function of the previous sub-state and symbol.
    """
    machine = c.machine
    subs = {s: (f"{s}%0", f"{s}%1") for s in machine.states}
    rules = []
    for tr in machine.transitions:
        flip = machine.alphabet.index(tr.symbol) % 2
        for b in (0, 1):
            rules.append(
                KernelRule(
                    target=tr.to,
                    source_sub=f"{tr.frm}%{b}",
                    symbol=tr.symbol,
                    probs={f"{tr.to}%{b ^ flip}": 1.0},
                )
            )
    return RefinementKernel(name=name, sub_states=subs, rules=tuple(rules))


def random_kernel(
    c: CausalMachine, rng: np.random.Generator, name: str = "random"
) -> RefinementKernel:
    """Random prescient kernel: random split sizes, rules, and rows."""
    machine = c.machine
    subs = {}
    for s in machine.states:
        k = int(rng.integers(1, 4))
        subs[s] = tuple(f"{s}#{i}" for i in range(k))
    mode = rng.choice(["plain", "by_symbol", "by_source"])
    rules = []
    for s in machine.states:
        row = lambda: {
            u: float(p) for u, p in zip(subs[s], rng.dirichlet(np.ones(len(subs[s]))))
        }
        if mode == "by_symbol":
            for x in machine.alphabet.symbols:
                rules.append(KernelRule(target=s, symbol=x, probs=row()))
        elif mode == "by_source":
            for src in machine.states:
                rules.append(KernelRule(target=s, source_class=src, probs=row()))
        rules.append(KernelRule(target=s, probs=row()))
    return RefinementKernel(name=name, sub_states=subs, rules=tuple(rules))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class PrescienceReport:
    ok: bool
    max_deviation: float
    horizon: int

    def __bool__(self):
        return self.ok


def check_prescience(
    machine: ValidatedMachine,
    causal_map: dict[str, str],
    base: CausalMachine,
    L: int = 4,
    tol: float = 1e-9,
    block_budget: int | None = None,
) -> PrescienceReport:
    """Compare each state's length-L future word distribution to its class's.

    Total-variation deviation above `tol` for any state fails the check.
    """
    if machine.alphabet.symbols != base.machine.alphabet.symbols:
        raise MachineSpecError("candidate and causal alphabets differ")
    missing = set(machine.states) - set(causal_map)
    if missing:
        raise MachineSpecError(f"states missing from causal map: {sorted(missing)}")
    cand = machine.per_state_word_distributions(L, block_budget)
    ref = base.machine.per_state_word_distributions(L, block_budget)
    worst = 0.0
    for i, u in enumerate(machine.states):
        s = causal_map[u]
        j = base.machine.state_index(s)
        dev = 0.5 * float(np.abs(cand[i] - ref[j]).sum())
        worst = max(worst, dev)
    return PrescienceReport(ok=worst <= tol, max_deviation=worst, horizon=L)


@dataclass(frozen=True)
class DeterminismCheck:
    ok: bool
    residual: float  # H(R^{t+k} | R^t, block) in bits

    def __bool__(self):
        return self.ok


def check_determinism(
    mem: PrescientMemory, k: int, block_budget: int | None = None
) -> DeterminismCheck:
    """True iff the final memory state is fixed by (initial state, block)."""
    from .process_model import joint_block_distribution

    joint = joint_block_distribution(mem.machine, k, block_budget)
    residual = joint.table.conditional_entropy("state_out", ("state_in", "word"))
    residual = max(residual, 0.0)
    return DeterminismCheck(ok=residual < DETERMINISM_TOL, residual=residual)


@dataclass(frozen=True)
class SynchronizationProfile:
    """Residual memory-state uncertainty after observing L past symbols."""

    entries: tuple[tuple[int, float], ...]
    threshold: float = SYNC_TOL

    def residual(self, L: int) -> float:
        for length, value in self.entries:
            if length == L:
                return value
        raise KeyError(L)

    @property
    def sync_at(self) -> int | None:
        """Smallest observed depth with residual below threshold, if any."""
        for length, value in self.entries:
            if value < self.threshold:
                return length
        return None


def synchronization_profile(
    mem, L_max: int, block_budget: int | None = None
) -> SynchronizationProfile:
    """H(R^t | last L symbols) for L = 1..L_max, from the stationary joint.

    One forward pass: the word-state table for L extends the one for L-1.
    """
    machine = mem.machine if isinstance(mem, PrescientMemory) else mem
    entries = []
    joint = machine.word_state_vectors(0)
    for L in range(1, L_max + 1):
        machine.check_budget(L, block_budget)
        joint = machine.extend_words(joint)
        residual = entropy_bits(joint) - entropy_bits(joint.sum(axis=1))
        entries.append((L, max(residual, 0.0)))
    return SynchronizationProfile(entries=tuple(entries))


# ---------------------------------------------------------------------------
# kernel and memory files

_KERNEL_FIELDS = {"kind", "name", "sub_states", "rules"}
_RULE_FIELDS = {"target", "p", "source_class", "source_sub", "symbol"}
_MEMORY_FIELDS = {"kind", "name", "machine", "causal_map"}


def parse_kernel(data: dict, name: str = "kernel") -> RefinementKernel:
    if not isinstance(data, dict):
        raise KernelError("kernel file must hold a JSON object")
    unknown = set(data) - _KERNEL_FIELDS
    if unknown:
        raise KernelError(f"unknown kernel fields {sorted(unknown)!r}")
    if "sub_states" not in data or "rules" not in data:
        raise KernelError("kernel file needs 'sub_states' and 'rules'")
    sub_states = data["sub_states"]
    if not isinstance(sub_states, dict) or not all(
        isinstance(us, list) for us in sub_states.values()
    ):
        raise KernelError(
            f"kernel 'sub_states' must map causal states to lists, got {sub_states!r}"
        )
    subs = {str(s): tuple(str(u) for u in us) for s, us in sub_states.items()}
    if not isinstance(data["rules"], list):
        raise KernelError(f"kernel 'rules' must be a list, got {data['rules']!r}")
    rules = []
    for row in data["rules"]:
        if not isinstance(row, dict):
            raise KernelError(f"kernel rules must be objects, got {row!r}")
        unknown = set(row) - _RULE_FIELDS
        if unknown:
            raise KernelError(f"unknown rule fields {sorted(unknown)!r}")
        if "target" not in row or "p" not in row:
            raise KernelError("kernel rule needs 'target' and 'p'")
        probs = row["p"]
        if not isinstance(probs, dict) or not all(
            isinstance(p, (int, float)) and not isinstance(p, bool)
            for p in probs.values()
        ):
            raise KernelError(
                f"kernel rule 'p' must map sub-states to numbers, got {probs!r}"
            )
        rules.append(
            KernelRule(
                target=str(row["target"]),
                probs={str(u): float(p) for u, p in probs.items()},
                source_class=row.get("source_class"),
                source_sub=row.get("source_sub"),
                symbol=row.get("symbol"),
            )
        )
    return RefinementKernel(
        name=str(data.get("name", name)), sub_states=subs, rules=tuple(rules)
    )


def parse_memory_machine(data: dict, base: CausalMachine, name: str) -> PrescientMemory:
    unknown = set(data) - _MEMORY_FIELDS
    if unknown:
        raise KernelError(f"unknown memory fields {sorted(unknown)!r}")
    if "machine" not in data or "causal_map" not in data:
        raise KernelError("memory file needs 'machine' and 'causal_map'")
    if not isinstance(data["causal_map"], dict):
        raise KernelError(
            f"memory 'causal_map' must be an object, got {data['causal_map']!r}"
        )
    machine = validate_machine(parse_machine(data["machine"]))
    causal_map = {str(u): str(s) for u, s in data["causal_map"].items()}
    unknown_targets = set(causal_map.values()) - set(base.machine.states)
    if unknown_targets:
        raise KernelError(
            f"causal_map targets unknown causal states {sorted(unknown_targets)!r}"
        )
    report = check_prescience(machine, causal_map, base)
    if not report:
        raise PrescienceViolationError(
            f"memory machine deviates from causal morphs by "
            f"{report.max_deviation:.3e}",
            deviation=report.max_deviation,
        )
    return PrescientMemory(
        machine=machine,
        base=base,
        causal_map=causal_map,
        memory_id=str(data.get("name", name)),
    )


def load_memory_file(path, base: CausalMachine) -> PrescientMemory:
    """Load a memory selector file: a refinement kernel or explicit machine."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise KernelError(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    stem = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    if not isinstance(data, dict):
        raise KernelError("memory file must hold a JSON object")
    kind = data.get("kind")
    if kind is None:
        kind = "kernel" if "sub_states" in data else "machine"
    if kind == "kernel":
        return refine_memory(base, parse_kernel(data, name=stem))
    if kind == "machine":
        return parse_memory_machine(data, base, name=stem)
    raise KernelError(f"unknown memory file kind {kind!r}")
