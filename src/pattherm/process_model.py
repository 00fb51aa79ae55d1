"""Finite edge-emitting presentations of stationary stochastic processes.

A machine is a set of states with probabilistic symbol-emitting
transitions. Validation enforces the standing assumptions of the cost
calculus: stochastic rows, a single recurrent communicating class
(ergodicity), and a verified unifilarity flag. All exact queries (the
stationary distribution, the next-symbol rows and successor table, word
tables grown one symbol at a time, the dense joint block table) and the
seeded path sampler live here, together with the JSON machine-file
format.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BlockTooLargeError,
    DisconnectedError,
    DistributionError,
    EmptyAlphabetError,
    MachineSpecError,
    RowSumError,
    SingularSolveError,
    UnifilarRequiredError,
)
from .info_measures import FiniteDistribution, JointTable, entropy_bits, uniform_distribution

ROW_TOL = 1e-12
DEFAULT_BLOCK_BUDGET = 1 << 16  # max number of words in any block enumeration


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct symbol labels."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        symbols = tuple(str(s) for s in self.symbols)
        if not symbols:
            raise EmptyAlphabetError("alphabet has no symbols")
        if len(set(symbols)) != len(symbols):
            raise MachineSpecError(f"duplicate symbols in alphabet {symbols!r}")
        object.__setattr__(self, "symbols", symbols)

    def __len__(self):
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise MachineSpecError(f"unknown symbol {symbol!r}") from None


class Transition(NamedTuple):
    frm: str
    symbol: str
    p: float
    to: str


@dataclass(frozen=True)
class MachineSpec:
    """Unvalidated machine description, as parsed from user input.

    `unifilar`, when given, is a declaration checked against the actual
    edge structure during validation.
    """

    alphabet: Alphabet
    states: tuple[str, ...]
    transitions: tuple[Transition, ...]
    unifilar: bool | None = None
    default_distribution: FiniteDistribution | None = None


@dataclass(frozen=True, eq=False)
class ValidatedMachine:
    """A machine that passed validation; the handle all operations accept."""

    alphabet: Alphabet
    states: tuple[str, ...]
    transitions: tuple[Transition, ...]
    unifilar: bool
    transient_states: tuple[str, ...]
    default_distribution: FiniteDistribution
    _symbol_matrices: np.ndarray = field(repr=False)
    _stationary_cache: list = field(default_factory=list, repr=False)
    _step: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # step[i, x * n + j] = T[x, i, j]: one row per state, one column per edge
        T = self._symbol_matrices
        object.__setattr__(self, "_step", T.transpose(1, 0, 2).reshape(T.shape[1], -1))

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise MachineSpecError(f"unknown state {state!r}") from None

    def symbol_matrices(self) -> np.ndarray:
        """T[x, i, j] = P(emit symbol x and move to j | state i)."""
        return self._symbol_matrices

    def emission_matrix(self) -> np.ndarray:
        """E[i, x] = P(emit symbol x | state i)."""
        return self._symbol_matrices.sum(axis=2).T

    def step_matrix(self) -> np.ndarray:
        """S[i, x * n + j] = T[x, i, j], the (n, |A|*n) one-symbol step."""
        return self._step

    def state_matrix(self) -> np.ndarray:
        """Symbol-marginalized state transition matrix."""
        return self._symbol_matrices.sum(axis=0)

    def successors(self) -> np.ndarray:
        """succ[i, x]: the state symbol x leads to from state i, -1 if none."""
        if not self.unifilar:
            raise UnifilarRequiredError("successor lookup needs a unifilar machine")
        T = self._symbol_matrices
        return np.where(T.max(axis=2) > 0.0, T.argmax(axis=2), -1).T

    def successor(self, state: str, symbol: str) -> str | None:
        """Unique positive-probability successor on (state, symbol), if any."""
        j = self.successors()[self.state_index(state), self.alphabet.index(symbol)]
        return self.states[j] if j >= 0 else None

    def stationary(self) -> "StationaryDistribution":
        if not self._stationary_cache:
            self._stationary_cache.append(stationary_distribution(self))
        return self._stationary_cache[0]

    def check_budget(self, length: int, block_budget: int | None = None) -> int:
        budget = DEFAULT_BLOCK_BUDGET if block_budget is None else block_budget
        a = len(self.alphabet)
        # past the budget's bit length a^length exceeds it (a >= 2) and can
        # be too large an integer to build or print
        if a > 1 and length > budget.bit_length():
            raise BlockTooLargeError(f"{a}^{length} words exceeds budget {budget}")
        n_words = a**length
        if n_words > budget:
            raise BlockTooLargeError(
                f"{a}^{length} = {n_words} words exceeds budget {budget}"
            )
        return n_words

    def word_state_vectors(
        self, length: int, block_budget: int | None = None
    ) -> np.ndarray:
        """A[w, j] = P(emit word w from stationarity and land in state j)."""
        self.check_budget(length, block_budget)
        vec = self.stationary().probs[None, :].copy()
        for _ in range(length):
            vec = self.extend_words(vec)
        return vec

    def extend_words(self, vec: np.ndarray) -> np.ndarray:
        """Lengthen every word of a word-state table A[w, j] by one symbol.

        Row w * |A| + x of the result is word w followed by symbol x, so
        word indices stay big-endian.
        """
        return (vec @ self._step).reshape(-1, self.n_states)

    def prepend_symbols(self, cols: np.ndarray) -> np.ndarray:
        """Lengthen every word of a state-word table F[i, c] = P(w_c | i)
        by one leading symbol: column c * |A| + x of the result is symbol x
        followed by word w_c."""
        return (self._symbol_matrices @ cols).transpose(1, 2, 0).reshape(self.n_states, -1)


@dataclass(frozen=True)
class StationaryDistribution:
    """Unique fixed point pi of the symbol-marginalized transition matrix."""

    machine: ValidatedMachine
    probs: np.ndarray

    def entropy(self) -> float:
        return entropy_bits(self.probs)

    def probability(self, state: str) -> float:
        return float(self.probs[self.machine.state_index(state)])


def _recurrent_classes(adjacency: np.ndarray) -> list[list[int]]:
    """Closed communicating classes of a 0/1 transition graph.

    Squares the reflexive adjacency matrix until its reachability stops
    growing. A state is recurrent iff every state it reaches reaches it
    back; its reachable set is then its class.
    """
    reach = (adjacency | np.eye(len(adjacency), dtype=bool)).astype(float)
    while True:
        grown = (reach @ reach > 0.0).astype(float)
        if np.array_equal(grown, reach):
            break
        reach = grown
    reach = reach > 0.0
    recurrent = np.all(reach.T | ~reach, axis=1)
    firsts = set(reach[recurrent].argmax(axis=1).tolist())  # lowest member per class
    return [np.flatnonzero(reach[i]).tolist() for i in sorted(firsts)]


def validate_machine(spec: MachineSpec) -> ValidatedMachine:
    """Check a machine spec and return the validated handle.

    Raises RowSumError if a state's outgoing probabilities do not sum to 1,
    DisconnectedError if the positive-probability graph has more than one
    recurrent class, and MachineSpecError for structural problems.
    """
    alphabet = spec.alphabet
    states = tuple(str(s) for s in spec.states)
    if not states:
        raise MachineSpecError("machine has no states")
    if len(set(states)) != len(states):
        raise MachineSpecError(f"duplicate state labels in {states!r}")
    n, a = len(states), len(alphabet)
    state_ix = {s: i for i, s in enumerate(states)}

    T = np.zeros((a, n, n))
    seen = set()
    transitions = []
    for t in spec.transitions:
        tr = Transition(str(t[0]), str(t[1]), float(t[2]), str(t[3]))
        if tr.frm not in state_ix:
            raise MachineSpecError(f"transition from unknown state {tr.frm!r}")
        if tr.to not in state_ix:
            raise MachineSpecError(f"transition to unknown state {tr.to!r}")
        x = alphabet.index(tr.symbol)
        if not (0.0 <= tr.p <= 1.0 + ROW_TOL):
            raise MachineSpecError(f"probability {tr.p!r} outside [0, 1] in {tr}")
        key = (tr.frm, tr.symbol, tr.to)
        if key in seen:
            raise MachineSpecError(f"duplicate transition {key!r}")
        seen.add(key)
        if tr.p > 0.0:
            T[x, state_ix[tr.frm], state_ix[tr.to]] = tr.p
            transitions.append(tr)

    row_sums = T.sum(axis=(0, 2))
    for i, total in enumerate(row_sums):
        if abs(total - 1.0) > ROW_TOL:
            raise RowSumError(states[i], float(total))

    unifilar = bool(np.all((T > 0.0).sum(axis=2) <= 1))
    if spec.unifilar is not None and spec.unifilar != unifilar:
        raise MachineSpecError(
            f"machine declared unifilar={spec.unifilar} but edge structure "
            f"says {unifilar}"
        )

    adjacency = T.sum(axis=0) > 0.0
    recurrent = _recurrent_classes(adjacency)
    if len(recurrent) != 1:
        names = [sorted(states[i] for i in comp) for comp in recurrent]
        raise DisconnectedError(
            f"{len(recurrent)} recurrent classes under positive transitions: {names}"
        )
    transient = tuple(s for i, s in enumerate(states) if i not in recurrent[0])

    default = spec.default_distribution
    if default is None:
        default = uniform_distribution(alphabet.symbols)
    elif tuple(default.labels) != alphabet.symbols:
        raise MachineSpecError(
            "default distribution labels must match the alphabet exactly"
        )

    return ValidatedMachine(
        alphabet=alphabet,
        states=states,
        transitions=tuple(transitions),
        unifilar=unifilar,
        transient_states=transient,
        default_distribution=default,
        _symbol_matrices=T,
    )


def stationary_distribution(m: ValidatedMachine) -> StationaryDistribution:
    """Solve pi T = pi, sum(pi) = 1 by least squares."""
    n = m.n_states
    T = m.state_matrix()
    A = np.vstack([T.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    if pi.min() < -1e-9:
        raise SingularSolveError(f"stationary solve produced negative mass {pi!r}")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    if np.abs(pi @ T - pi).max() > 1e-9:
        raise SingularSolveError("stationary fixed-point residual too large")
    return StationaryDistribution(m, pi)


@dataclass(frozen=True)
class JointBlockDistribution:
    """Exact table over (initial state, length-k word, final state).

    `table.probs[i, w, j]` is the probability of starting in state i,
    emitting word w and ending in state j; states follow
    `machine.states` and words are indexed big-endian over
    `machine.alphabet` (word x_1..x_k has index sum x_t * |A|^(k-t)).
    """

    machine: ValidatedMachine
    k: int
    table: JointTable


def joint_block_distribution(
    m: ValidatedMachine, k: int, block_budget: int | None = None
) -> JointBlockDistribution:
    """Forward-propagate pi over all length-k words.

    Returns the exact joint distribution of (state before the block, the k
    emitted symbols, state after the block); entries sum to 1 within 1e-12.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m.check_budget(k, block_budget)
    n = m.n_states
    # row r * |A|^k + w: start in state r, then emit word w
    cur = np.diag(m.stationary().probs)
    for _ in range(k):
        cur = m.extend_words(cur)
    return JointBlockDistribution(
        m, k, JointTable(("state_in", "word", "state_out"), cur.reshape(n, -1, n))
    )


def _sampling_rows(matrix: np.ndarray) -> list[tuple[list, list, float]]:
    """Per-row sampling tables (cumulative masses, columns, total mass).

    Only positive entries are kept. A uniform u in [0, 1) draws column
    `nxt[bisect_right(cum, u * total)]`. `nxt` repeats its last column
    because u * total rounds up to total when total is subnormal, and
    bisect_right then returns len(cum). An all-zero row gives empty lists.
    """
    rows = []
    for row in matrix:
        idx = np.flatnonzero(row)
        cum = np.cumsum(row[idx]).tolist()
        nxt = idx.tolist()
        rows.append((cum, nxt + nxt[-1:], cum[-1] if cum else 0.0))
    return rows


def _draws(probs: np.ndarray, uniforms) -> list[int]:
    """Independent draws of an index of `probs`, one per uniform."""
    cum, nxt, total = _sampling_rows(probs[None, :])[0]
    pos = np.searchsorted(cum, np.asarray(uniforms) * total, side="right")
    return np.asarray(nxt)[pos].tolist()


def _walk(rows: list, row: tuple[list, list, float], uniforms: list) -> list[int]:
    """A chain of draws starting from `row`: each drawn target, which the
    walk returns in order, indexes `rows` for the row of the next draw."""
    path = []
    for u in uniforms:
        cum, nxt, total = row
        target = nxt[bisect_right(cum, u * total)]
        path.append(target)
        row = rows[target]
    return path


def sample_path(m: ValidatedMachine, seed: int, n: int):
    """Draw a length-n stationary trajectory, bit-identical per seed.

    Returns (states, symbols): `states` has n+1 labels (state before each
    symbol plus the final state), `symbols` has n labels. Each step draws
    one (symbol, next state) edge of the current state.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n_states = m.n_states
    # edge e = x * n_states + j of row i: emit symbol x and move to state j,
    # whose row draws the next edge
    state_rows = _sampling_rows(m.step_matrix())
    edge_rows = [state_rows[e % n_states] for e in range(len(m.alphabet) * n_states)]
    draws = np.random.default_rng(seed).random(n + 1)
    start = _draws(m.stationary().probs, draws[:1])[0]
    edges = _walk(edge_rows, state_rows[start], draws[1:].tolist())
    states = [m.states[start]] + [m.states[e % n_states] for e in edges]
    symbols = [m.alphabet.symbols[e // n_states] for e in edges]
    return states, symbols


# ---------------------------------------------------------------------------
# machine-file format

_MACHINE_FIELDS = {"alphabet", "states", "transitions", "default_distribution"}
_TRANSITION_FIELDS = {"from", "symbol", "p", "to"}


def _list_field(data: dict, name: str) -> list:
    value = data[name]
    if not isinstance(value, list):
        raise MachineSpecError(f"machine field {name!r} must be a list, got {value!r}")
    return value


def _probability(value, where) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MachineSpecError(f"probability {value!r} in {where} is not a number")
    return float(value)


def parse_machine(data: dict) -> MachineSpec:
    """Build a MachineSpec from the JSON machine-file structure."""
    if not isinstance(data, dict):
        raise MachineSpecError("machine file must hold a JSON object")
    unknown = set(data) - _MACHINE_FIELDS
    if unknown:
        raise MachineSpecError(f"unknown machine fields {sorted(unknown)!r}")
    for required in ("alphabet", "states", "transitions"):
        if required not in data:
            raise MachineSpecError(f"missing machine field {required!r}")
    alphabet = Alphabet(tuple(str(s) for s in _list_field(data, "alphabet")))
    states = tuple(str(s) for s in _list_field(data, "states"))
    transitions = []
    for row in _list_field(data, "transitions"):
        if not isinstance(row, dict):
            raise MachineSpecError(f"transition rows must be objects, got {row!r}")
        unknown = set(row) - _TRANSITION_FIELDS
        if unknown:
            raise MachineSpecError(f"unknown transition fields {sorted(unknown)!r}")
        missing = _TRANSITION_FIELDS - set(row)
        if missing:
            raise MachineSpecError(f"transition missing fields {sorted(missing)!r}")
        transitions.append(
            Transition(
                str(row["from"]),
                str(row["symbol"]),
                _probability(row["p"], row),
                str(row["to"]),
            )
        )
    default = None
    if "default_distribution" in data:
        dd = data["default_distribution"]
        if not isinstance(dd, dict):
            raise MachineSpecError("default_distribution must map symbols to probabilities")
        try:
            default = FiniteDistribution(
                alphabet.symbols,
                np.array(
                    [_probability(dd.get(s, 0.0), "default_distribution")
                     for s in alphabet.symbols]
                ),
            )
        except DistributionError as exc:
            raise MachineSpecError(f"bad default_distribution: {exc}") from exc
        unknown = set(dd) - set(alphabet.symbols)
        if unknown:
            raise MachineSpecError(
                f"default_distribution has non-alphabet symbols {sorted(unknown)!r}"
            )
    return MachineSpec(
        alphabet=alphabet,
        states=states,
        transitions=tuple(transitions),
        default_distribution=default,
    )


def load_machine_file(path) -> MachineSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MachineSpecError(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    return parse_machine(data)


def machine_to_dict(m: ValidatedMachine) -> dict:
    ordered = sorted(
        m.transitions,
        key=lambda t: (
            m.states.index(t.frm),
            m.alphabet.index(t.symbol),
            m.states.index(t.to),
        ),
    )
    out = {
        "alphabet": list(m.alphabet.symbols),
        "states": list(m.states),
        "transitions": [
            {"from": t.frm, "symbol": t.symbol, "p": t.p, "to": t.to}
            for t in ordered
        ],
    }
    uniform = uniform_distribution(m.alphabet.symbols)
    if not np.array_equal(m.default_distribution.probs, uniform.probs):
        out["default_distribution"] = {
            s: float(p)
            for s, p in zip(m.alphabet.symbols, m.default_distribution.probs)
        }
    return out


def save_machine_file(m: ValidatedMachine, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(machine_to_dict(m), fh, indent=2)
        fh.write("\n")
