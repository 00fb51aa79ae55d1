"""Causal states, prescient refinements, and their verification.

Minimization merges states of a unifilar presentation that predict the
same future, yielding the unique minimal presentation whose state
entropy is the statistical complexity.
Refinements go the other way: a kernel splits each causal state into
sub-states, possibly stochastically and conditioned on the incoming
transition, producing a larger memory that predicts exactly as well.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ValidatedMachine,
    _check_labels,
    machine_from_tensor,
    parse_machine,
    read_json_file,
    validate_machine,
)

KERNEL_ROW_TOL = 1e-12
DETERMINISM_TOL = 1e-9
SYNC_TOL = 1e-9
# next-symbol rows that agree this closely count as the same prediction
FUTURE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CausalMachine:
    """Minimal unifilar presentation plus the projection that produced it."""

    machine: ValidatedMachine
    projection: dict[str, str]  # input state -> causal state

    @property
    def complexity(self) -> float:
        """Statistical complexity C = H(pi) of the causal presentation."""
        return entropy_bits(self.machine.stationary())


def as_causal(m) -> CausalMachine:
    """Coerce a machine (or memory) to its causal presentation."""
    if isinstance(m, CausalMachine):
        return m
    if isinstance(m, PrescientMemory):
        return m.base
    return minimize_to_causal(m)


def minimize_to_causal(m: ValidatedMachine) -> CausalMachine:
    """Merge states with identical future morphs; idempotent.

    Blocks start as states whose next-symbol rows agree within FUTURE_TOL,
    then split while members send a symbol to different blocks or to none
    (Moore's refinement). Block order (and merged state labels) follow the
    first member in input order. Raises MachineSpecError when rows agree
    within FUTURE_TOL only along a chain, since the first blocks, and so
    the causal states, would then depend on the order of the states.
    """
    if not m.unifilar:
        raise UnifilarRequiredError(
            "causal-state minimization is defined for unifilar presentations"
        )
    n = m.n_states
    a = len(m.alphabet)
    E = m.emission_matrix()
    succ = m.successors()

    apart = np.zeros((n, n))  # max over symbols of |P(x | i) - P(x | j)|
    for f in E.T:
        np.maximum(apart, np.abs(f[:, None] - f[None, :]), out=apart)
    near = apart <= FUTURE_TOL
    block = near.argmax(axis=1)  # each named by its first near member
    i, j = np.nonzero((block[:, None] == block[None, :]) != near)
    if i.size:
        raise MachineSpecError(
            f"states {m.states[i[0]]!r} and {m.states[j[0]]!r} have next-symbol rows "
            f"{apart[i[0], j[0]]:.3e} apart in a chain of rows within {FUTURE_TOL:g}, "
            "so the causal states would depend on the order of the states"
        )
    block = block.tolist()
    while True:
        first: dict[tuple, int] = {}  # signature -> lowest-indexed state with it
        refined = [
            first.setdefault((b, *(block[j] if j >= 0 else -1 for j in row)), i)
            for i, (b, row) in enumerate(zip(block, succ.tolist()))
        ]
        if refined == block:
            break
        block = refined
    reps, block_of = np.unique(block, return_inverse=True)  # lowest members, ascending
    labels = tuple(m.states[r] for r in reps.tolist())
    T = np.zeros((a, len(reps), len(reps)))
    b, x = np.nonzero(succ[reps] >= 0)
    T[x, b, block_of[succ[reps[b], x]]] = E[reps[b], x]
    quotient = machine_from_tensor(m.alphabet, labels, T, m.default_distribution)
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

    def memory_entropy(self) -> float:
        """H(R): entropy of the stationary memory-state distribution."""
        return entropy_bits(self.machine.stationary())

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
    # a condition that names nothing would leave its rule silently dead;
    # tuples, since a JSON list or object as a condition is unhashable
    known = {
        "source_class": tuple(classes),
        "source_sub": tuple(seen),
        "symbol": machine.alphabet.symbols,
    }
    for rule in kernel.rules:
        if rule.target not in classes:
            raise KernelError(f"rule targets unknown causal state {rule.target!r}")
        for condition, names in known.items():
            value = getattr(rule, condition)
            if value is not None and value not in names:
                raise KernelError(f"rule for {rule.target!r} has unknown {condition} {value!r}")
        subs = set(kernel.sub_states[rule.target])
        unknown = set(rule.probs) - subs
        if unknown:
            raise KernelError(
                f"rule for {rule.target!r} assigns mass to non-member "
                f"sub-states {sorted(unknown)!r}"
            )
        total = sum(rule.probs.values())
        if not abs(total - 1.0) <= KERNEL_ROW_TOL:  # a NaN or infinite entry fails too
            raise KernelError(
                f"rule for {rule.target!r} has probabilities summing to {total!r}"
            )
        if any(p < 0.0 for p in rule.probs.values()):
            raise KernelError(f"rule for {rule.target!r} has negative probability")


def refine_memory(c: CausalMachine, kernel: RefinementKernel) -> PrescientMemory:
    """Fine-grain the causal states according to a kernel.

    The resulting memory machine emits exactly like its base (so it stays
    prescient by construction) while the landing sub-state inside the
    entered causal state is drawn from the matching kernel rule. The
    construction is verified as memory files are: edge support exactly,
    then prescience_gap.
    """
    _validate_kernel(c, kernel)
    machine = c.machine
    class_of = {u: s for s in machine.states for u in kernel.sub_states[s]}
    states = tuple(class_of)
    _check_labels(states, "state label")
    sub_ix = {u: k for k, u in enumerate(states)}

    E, succ = machine.emission_matrix(), machine.successors()
    T = np.zeros((len(machine.alphabet), len(states), len(states)))
    for i, x in np.argwhere(succ >= 0).tolist():
        frm, to = machine.states[i], machine.states[succ[i, x]]
        symbol = machine.alphabet.symbols[x]
        for u in kernel.sub_states[frm]:
            for rule in kernel.rules:
                if rule.target == to and rule.matches(frm, u, symbol):
                    break
            else:
                raise KernelError(
                    f"no rule covers transition {frm!r} --{symbol!r}--> "
                    f"{to!r} from sub-state {u!r}"
                )
            for v, q in rule.probs.items():
                if q > 0.0:
                    T[x, sub_ix[u], sub_ix[v]] = E[i, x] * q

    try:
        refined = machine_from_tensor(machine.alphabet, states, T)
    except DisconnectedError as exc:
        raise KernelError(f"kernel induces a reducible memory chain: {exc}") from exc

    _require_prescient(
        refined, class_of, c, f"refinement {kernel.name!r} deviates from its causal morphs"
    )
    return PrescientMemory(machine=refined, base=c, causal_map=class_of, memory_id=kernel.name)


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
    into = machine.state_matrix() > 0.0  # into[i, j]: some symbol leads i to j
    predecessors = {
        s: [machine.states[i] for i in np.flatnonzero(into[:, j])]
        for j, s in enumerate(machine.states)
    }
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
    succ = machine.successors()
    rules = []
    for i, x in np.argwhere(succ >= 0).tolist():
        frm, to = machine.states[i], machine.states[succ[i, x]]
        for b in (0, 1):
            rules.append(
                KernelRule(
                    target=to,
                    source_sub=f"{frm}%{b}",
                    symbol=machine.alphabet.symbols[x],
                    probs={f"{to}%{b ^ x % 2}": 1.0},
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


def prescience_gap(
    machine: ValidatedMachine, causal_map: dict[str, str], base: CausalMachine
) -> float:
    """max over m and x of |P(x | m) - P(x | class(m))|: how far a memory
    state's next-symbol row strays from its causal class's."""
    if machine.alphabet.symbols != base.machine.alphabet.symbols:
        raise MachineSpecError("candidate and causal alphabets differ")
    missing = set(machine.states) - set(causal_map)
    if missing:
        raise MachineSpecError(f"states missing from causal map: {sorted(missing)}")
    classes = [base.machine.state_index(causal_map[u]) for u in machine.states]
    E_base = base.machine.emission_matrix()
    return float(np.abs(machine.emission_matrix() - E_base[classes]).max())


def _require_prescient(machine, causal_map, base: CausalMachine, what: str) -> None:
    """Refuse a memory unless every positive edge m -x-> m' lands in the
    class the base's x-edge from class(m) reaches, which is exact, and its
    prescience gap is within FUTURE_TOL. By induction on word length, each
    word w then has within |w| * gap of its class's probability."""
    gap = prescience_gap(machine, causal_map, base)
    classes = np.array([base.machine.state_index(causal_map[u]) for u in machine.states])
    xs, us, vs = np.nonzero(machine.symbol_matrices())
    landing = base.machine.successors()[classes[us], xs]
    wrong = np.flatnonzero(landing != classes[vs])
    if wrong.size:
        e = wrong[0]
        u, x, v = machine.states[us[e]], machine.alphabet.symbols[xs[e]], machine.states[vs[e]]
        want = base.machine.states[landing[e]] if landing[e] >= 0 else "no class"
        raise PrescienceViolationError(
            f"{what}: edge {u!r} --{x!r}--> {v!r} lands in class "
            f"{causal_map[v]!r}, not {want!r}",
            deviation=gap,
        )
    if gap > FUTURE_TOL:
        raise PrescienceViolationError(f"{what} by {gap:.3e}", deviation=gap)


@dataclass(frozen=True)
class DeterminismCheck:
    ok: bool
    residual: float  # H(R^{t+k} | R^t, block) in bits

    def __bool__(self):
        return self.ok


def check_determinism(mem: PrescientMemory, k: int) -> DeterminismCheck:
    """True iff the final memory state is fixed by (initial state, block)."""
    from .process_model import joint_block_distribution

    table = joint_block_distribution(mem.machine, k).table
    residual = max(table.entropy() - table.entropy(("state_in", "word")), 0.0)
    return DeterminismCheck(ok=residual < DETERMINISM_TOL, residual=residual)


@dataclass(frozen=True)
class SynchronizationProfile:
    """Residual memory-state uncertainty after observing L past symbols."""

    entries: tuple[tuple[int, float], ...]

    def residual(self, L: int) -> float:
        for length, value in self.entries:
            if length == L:
                return value
        raise KeyError(L)

    @property
    def sync_at(self) -> int | None:
        """Smallest observed depth with residual below SYNC_TOL, if any."""
        for length, value in self.entries:
            if value < SYNC_TOL:
                return length
        return None


def synchronization_profile(mem, L_max: int) -> SynchronizationProfile:
    """H(R^t | last L symbols) for L = 1..L_max, from the stationary joint.

    One forward pass: the word-state table for L extends the one for L-1.
    """
    machine = mem.machine if isinstance(mem, PrescientMemory) else mem
    machine.check_budget(L_max)
    entries = []
    joint = machine.word_state_vectors(0)
    for L in range(1, L_max + 1):
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
        name=_file_name(data, name), sub_states=subs, rules=tuple(rules)
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
    spec = parse_machine(data["machine"])
    if spec.default_distribution is not None:
        raise KernelError(
            "memory machine may not set 'default_distribution': "
            "costs read the pattern's default"
        )
    machine = validate_machine(spec)
    causal_map = {str(u): str(s) for u, s in data["causal_map"].items()}
    unknown_targets = set(causal_map.values()) - set(base.machine.states)
    if unknown_targets:
        raise KernelError(
            f"causal_map targets unknown causal states {sorted(unknown_targets)!r}"
        )
    _require_prescient(
        machine, causal_map, base, "memory machine deviates from causal morphs"
    )
    return PrescientMemory(
        machine=machine,
        base=base,
        causal_map=causal_map,
        memory_id=_file_name(data, name),
    )


def _file_name(data: dict, default: str) -> str:
    name = data.get("name", default)
    if not isinstance(name, str):
        raise KernelError(f"'name' must be a string, got {name!r}")
    _check_labels([name], "memory name")
    return name


def load_memory_file(path, base: CausalMachine) -> PrescientMemory:
    """Load a memory selector file: a refinement kernel or explicit machine."""
    data = read_json_file(path, KernelError)
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
