"""Finite edge-emitting presentations of stationary stochastic processes.

A machine is a set of states with probabilistic symbol-emitting
transitions, held as its symbol tensor T[x, i, j]. Every machine is built
from T by `machine_from_tensor`, which enforces the standing assumptions of
the cost calculus: stochastic rows, a single recurrent communicating class
(ergodicity); unifilarity is read off T. All exact queries (the
stationary distribution, the next-symbol rows and successor table, word
tables grown one symbol at a time, the dense joint block table) and the
sampling tables that `simulate` draws from live here, together with the
JSON machine-file format. Every word table is capped by DEFAULT_BLOCK_BUDGET words.
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
from .info_measures import JointTable, _as_prob_array

ROW_TOL = 1e-12
DEFAULT_BLOCK_BUDGET = 1 << 16  # max words in any word table; read by check_budget alone


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


class Transition(NamedTuple):
    frm: str
    symbol: str
    p: float
    to: str


class MachineSpec(NamedTuple):
    """Unvalidated machine description, as parsed from user input."""

    alphabet: Alphabet
    states: tuple[str, ...]
    transitions: tuple[Transition, ...]
    default_distribution: np.ndarray | None = None  # in alphabet order


@dataclass(frozen=True, eq=False)
class ValidatedMachine:
    """A machine that passed validation; the handle all operations accept."""

    alphabet: Alphabet
    states: tuple[str, ...]
    unifilar: bool
    transient_states: tuple[str, ...]
    default_distribution: np.ndarray  # P(x) of a default tape cell, in alphabet order
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

    def stationary(self) -> np.ndarray:
        """pi[i], the stationary probability of state i."""
        if not self._stationary_cache:
            self._stationary_cache.append(stationary_distribution(self))
        return self._stationary_cache[0]

    def check_budget(self, length: int) -> int:
        """|A|^length, or BlockTooLargeError past DEFAULT_BLOCK_BUDGET words
        or a length over DEFAULT_BLOCK_BUDGET."""
        budget = DEFAULT_BLOCK_BUDGET
        a = len(self.alphabet)
        # past the budget's bit length a^length exceeds it (a >= 2) and can
        # be too large an integer to build or print
        if a > 1 and length > budget.bit_length():
            raise BlockTooLargeError(f"{a}^{length} words exceeds budget {budget}")
        # a one-symbol table has one word, but every symbol is one more
        # step, so no table takes more steps than the budget has words
        if length > budget:
            raise BlockTooLargeError(f"length {length} exceeds budget {budget}")
        n_words = a**length
        if n_words > budget:
            raise BlockTooLargeError(
                f"{a}^{length} = {n_words} words exceeds budget {budget}"
            )
        return n_words

    def word_state_vectors(self, length: int) -> np.ndarray:
        """A[w, j] = P(emit word w from stationarity and land in state j)."""
        self.check_budget(length)
        vec = self.stationary()[None, :].copy()
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


def uniform_distribution(labels) -> np.ndarray:
    """The uniform probability vector over `labels`."""
    return np.full(len(labels), 1.0 / len(labels))


def _check_labels(labels, what: str) -> None:
    """Refuse a label that would break a printed CSV row: `costs` and
    `sweep` print memory ids, `simulate` traces symbols and states."""
    for label in labels:
        if any(c in label for c in ',"\n\r'):
            raise MachineSpecError(f"{what} {label!r} may not hold a comma, quote or line break")


def machine_from_tensor(
    alphabet: Alphabet, states: tuple[str, ...], T: np.ndarray, default=None
) -> ValidatedMachine:
    """The validated handle for T[x, i, j] = P(emit x and move to j | i);
    labels are taken as checked. Raises RowSumError unless every row sums
    to 1 and DisconnectedError unless the positive edges leave one recurrent
    class. `default` is the default tape law, a checked probability array in
    alphabet order; None means uniform."""
    for i, total in enumerate(T.sum(axis=(0, 2))):
        if abs(total - 1.0) > ROW_TOL:
            raise RowSumError(states[i], float(total))
    recurrent = _recurrent_classes(T.sum(axis=0) > 0.0)
    if len(recurrent) != 1:
        names = [sorted(states[i] for i in comp) for comp in recurrent]
        raise DisconnectedError(
            f"{len(recurrent)} recurrent classes under positive transitions: {names}"
        )
    return ValidatedMachine(
        alphabet=alphabet,
        states=states,
        unifilar=bool(np.all((T > 0.0).sum(axis=2) <= 1)),
        transient_states=tuple(s for i, s in enumerate(states) if i not in recurrent[0]),
        default_distribution=(
            uniform_distribution(alphabet.symbols) if default is None else default
        ),
        _symbol_matrices=T,
    )


def validate_machine(spec: MachineSpec) -> ValidatedMachine:
    """Check a machine spec and return the validated handle.

    Raises MachineSpecError for a bad default distribution or structural
    problems, then whatever machine_from_tensor raises.
    """
    alphabet, states, transitions, default = spec
    if default is not None:
        try:
            default = _as_prob_array(default)
            if default.shape != (len(alphabet),):
                raise DistributionError(f"shape {default.shape} for {len(alphabet)} symbols")
        except DistributionError as exc:
            raise MachineSpecError(f"bad default_distribution: {exc}") from exc
    states = tuple(str(s) for s in states)
    if not states:
        raise MachineSpecError("machine has no states")
    if len(set(states)) != len(states):
        raise MachineSpecError(f"duplicate state labels in {states!r}")
    _check_labels(alphabet.symbols, "symbol")
    _check_labels(states, "state label")
    state_ix = {s: i for i, s in enumerate(states)}
    symbol_ix = {x: i for i, x in enumerate(alphabet.symbols)}

    T = np.zeros((len(alphabet), len(states), len(states)))
    seen = set()
    for t in transitions:
        tr = Transition(str(t[0]), str(t[1]), float(t[2]), str(t[3]))
        if tr.frm not in state_ix:
            raise MachineSpecError(f"transition from unknown state {tr.frm!r}")
        if tr.to not in state_ix:
            raise MachineSpecError(f"transition to unknown state {tr.to!r}")
        if tr.symbol not in symbol_ix:
            raise MachineSpecError(f"unknown symbol {tr.symbol!r}")
        if not (0.0 <= tr.p <= 1.0 + ROW_TOL):
            raise MachineSpecError(f"probability {tr.p!r} outside [0, 1] in {tr}")
        key = (tr.frm, tr.symbol, tr.to)
        if key in seen:
            raise MachineSpecError(f"duplicate transition {key!r}")
        seen.add(key)
        if tr.p > 0.0:
            T[symbol_ix[tr.symbol], state_ix[tr.frm], state_ix[tr.to]] = tr.p
    return machine_from_tensor(alphabet, states, T, default)


def stationary_distribution(m: ValidatedMachine) -> np.ndarray:
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
    return pi


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


def joint_block_distribution(m: ValidatedMachine, k: int) -> JointBlockDistribution:
    """Forward-propagate pi over all length-k words.

    Returns the exact joint distribution of (state before the block, the k
    emitted symbols, state after the block); entries sum to 1 within 1e-12.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m.check_budget(k)
    n = m.n_states
    # row r * |A|^k + w: start in state r, then emit word w
    cur = np.diag(m.stationary())
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
        default = np.array(
            [_probability(dd.get(s, 0.0), "default_distribution") for s in alphabet.symbols]
        )
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


def read_json_file(path, error: type[Exception]):
    """The JSON document in the file at `path`. Text that is not UTF-8,
    not JSON or nested too deeply to parse raises `error`, one line naming
    the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise error(f"{path}: {exc}") from exc


def load_machine_file(path) -> MachineSpec:
    return parse_machine(read_json_file(path, MachineSpecError))


def machine_to_dict(m: ValidatedMachine) -> dict:
    T = m.symbol_matrices()
    i, x, j = np.nonzero(T.transpose(1, 0, 2))  # (state, symbol, target) order
    out = {
        "alphabet": list(m.alphabet.symbols),
        "states": list(m.states),
        "transitions": [
            {"from": m.states[a], "symbol": m.alphabet.symbols[b], "p": p, "to": m.states[c]}
            for a, b, c, p in zip(i.tolist(), x.tolist(), j.tolist(), T[x, i, j].tolist())
        ],
    }
    default = m.default_distribution
    if not np.array_equal(default, uniform_distribution(m.alphabet.symbols)):
        out["default_distribution"] = dict(zip(m.alphabet.symbols, default.tolist()))
    return out


def save_machine_file(m: ValidatedMachine, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(machine_to_dict(m), fh, indent=2)
        fh.write("\n")
