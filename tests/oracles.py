"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately dumb: pure-Python dict arithmetic over
explicit edge products, with the stationary distribution found by power
iteration. None of it shares code with the package's numpy pipelines, so
agreement between the two is meaningful evidence. The edge lists are read
back from the symbol tensor by `machine_to_dict`;
`test_tensor_holds_exactly_the_file_edges` checks them against the
machine files' own edges. `moore_partition` is
the Moore refinement that `minimize_to_causal` must reproduce block for
block. The einsum references
at the end are the sum-of-products forms of the package's matmul
kernels, kept to check those kernels' index layout, and the append-chain
excess-entropy scan that the split-block scan must reproduce. The per-draw
samplers at the end are the step-by-step loops that the package's path
and cycle walks must reproduce draw for draw; they book work through the
package's `block_work` and ledger types and share nothing else with it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, deque
from itertools import product

import numpy as np

from pattherm.cycle_sim import SimTrace, WorkLedger
from pattherm.errors import BlockTooLargeError, DesynchronizedError
from pattherm.info_measures import entropy_bits
from pattherm.process_model import Transition, machine_to_dict
from pattherm.thermo_costs import block_work


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    q = 1.0 - p
    return -p * math.log2(p) - q * math.log2(q)


def dict_entropy(table: dict) -> float:
    return -sum(p * math.log2(p) for p in table.values() if p > 0.0)


def edges(machine) -> list:
    """The positive edges of a validated machine as Transition tuples, in
    (state, symbol, target) order."""
    return [
        Transition(t["from"], t["symbol"], t["p"], t["to"])
        for t in machine_to_dict(machine)["transitions"]
    ]


def edges_by_state(machine) -> dict:
    out = {s: [] for s in machine.states}
    for tr in edges(machine):
        out[tr.frm].append(tr)
    return out


def power_stationary(machine, sweeps: int = 20000, tol: float = 1e-14) -> dict:
    """Stationary distribution by plain power iteration over edge lists."""
    edges = edges_by_state(machine)
    pi = {s: 1.0 / len(machine.states) for s in machine.states}
    for _ in range(sweeps):
        nxt = {s: 0.0 for s in machine.states}
        for s, mass in pi.items():
            for tr in edges[s]:
                nxt[tr.to] += mass * tr.p
        delta = max(abs(nxt[s] - pi[s]) for s in machine.states)
        pi = nxt
        if delta < tol:
            break
    total = sum(pi.values())
    return {s: v / total for s, v in pi.items()}


def brute_joint(machine, k: int) -> dict:
    """(state_in, word, state_out) -> probability, by explicit edge products."""
    edges = edges_by_state(machine)
    pi = power_stationary(machine)
    table: dict = {}
    stack = [(s0, "", s0, pi[s0]) for s0 in machine.states if pi[s0] > 0.0]
    while stack:
        s0, word, s, p = stack.pop()
        if len(word) == k:
            key = (s0, word, s)
            table[key] = table.get(key, 0.0) + p
            continue
        for tr in edges[s]:
            stack.append((s0, word + tr.symbol, tr.to, p * tr.p))
    return table


def word_labels(symbols, k: int) -> list[str]:
    """Every length-k word over single-character `symbols`, in the
    big-endian order of a block table's word axis."""
    return ["".join(w) for w in product(symbols, repeat=k)]


def marginal(table: dict, keep: tuple) -> dict:
    out: dict = {}
    for key, p in table.items():
        sub = tuple(key[i] for i in keep)
        out[sub] = out.get(sub, 0.0) + p
    return out


def brute_dissipation(machine, k: int) -> tuple[float, float, float]:
    """The three dissipation routes from the brute-force joint table."""
    joint = brute_joint(machine, k)
    h_all = dict_entropy(joint)
    h_r0w = dict_entropy(marginal(joint, (0, 1)))
    h_wrk = dict_entropy(marginal(joint, (1, 2)))
    h_w = dict_entropy(marginal(joint, (1,)))
    h_r0 = dict_entropy(marginal(joint, (0,)))
    h_rk = dict_entropy(marginal(joint, (2,)))
    eq2 = (h_all - h_wrk) - (h_all - h_r0w)
    eq3 = (h_r0w - h_r0) - (h_wrk - h_rk)
    eq5 = (h_w + h_rk - h_wrk) - (h_w + h_r0 - h_r0w)
    return eq2, eq3, eq5


def dense_report_fields(mem, k: int, excess: float) -> dict:
    """cycle_report's fields, every entropy a marginal of the dense
    (R_in, W, R_out) table from `joint_block_distribution`: the routes and
    the extractor identity as the package read them before it streamed
    two smaller tables instead."""
    from pattherm.process_model import joint_block_distribution

    p = joint_block_distribution(mem.machine, k).table.probs

    def h(q):
        q = q[q > 0.0]
        return float(-(q * np.log2(q)).sum())

    h_all, h_r0w, h_wrk = h(p), h(p.sum(axis=2)), h(p.sum(axis=0))
    h_w, h_r0, h_rk = h(p.sum(axis=(0, 2))), h(p.sum(axis=(1, 2))), h(p.sum(axis=(0, 1)))
    h_default = h(mem.base.machine.default_distribution)
    w_tape = k * (h_default - _symbol_entropy(mem.base.machine))
    w_out = k * (h_default - _symbol_entropy(mem.machine))
    eq3 = (h_r0w - h_r0) - (h_wrk - h_rk)
    return {
        "k": k,
        "w_tape": w_tape,
        "w_diss_eq2": (h_all - h_wrk) - (h_all - h_r0w),
        "w_diss_eq3": eq3,
        "w_diss_eq5": (h_w + h_rk - h_wrk) - (h_w + h_r0 - h_r0w),
        "w_out": w_out,
        "w_diss_limit": h_r0 - excess,
        "net": w_tape + eq3 - w_out,
        # the extractor identity: H(R_in, W | R_out) - k*h - H(R_out | R_in, W)
        "extractor_gap": (h_all - h_rk) - k * _symbol_entropy(mem.machine) - (h_all - h_r0w),
    }


def _symbol_entropy(machine) -> float:
    """H(X | R) at the stationary state the dense table starts from."""
    e = machine.emission_matrix()
    logs = np.log2(np.where(e > 0.0, e, 1.0))
    return float(-(machine.stationary()[:, None] * e * logs).sum())


def brute_word_distribution(machine, state: str, L: int) -> dict:
    """word -> probability of emitting it when started in `state`.

    Paths are pooled by (current state, word so far) after every symbol,
    so the work grows with the number of such pairs, not of paths.
    """
    edges = edges_by_state(machine)
    frontier = {(state, ""): 1.0}
    for _ in range(L):
        nxt: dict = {}
        for (s, word), p in frontier.items():
            for tr in edges[s]:
                key = (tr.to, word + tr.symbol)
                nxt[key] = nxt.get(key, 0.0) + p * tr.p
        frontier = nxt
    out: dict = {}
    for (_, word), p in frontier.items():
        out[word] = out.get(word, 0.0) + p
    return out


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(w, 0.0) - q.get(w, 0.0)) for w in keys)


def bayes_sync_residual(machine, L: int) -> float:
    """Expected posterior state entropy after observing L symbols.

    Explicit Bayes update: start from the stationary prior, multiply in
    each observed symbol's edge probabilities, renormalize; average the
    final posterior entropy over all length-L words.
    """
    pi = power_stationary(machine)
    edges = edges_by_state(machine)
    symbols = machine.alphabet.symbols
    residual = 0.0
    for word in product(symbols, repeat=L):
        belief = dict(pi)
        weight = 1.0
        for x in word:
            nxt = {s: 0.0 for s in machine.states}
            for s, mass in belief.items():
                if mass <= 0.0:
                    continue
                for tr in edges[s]:
                    if tr.symbol == x:
                        nxt[tr.to] += mass * tr.p
            total = sum(nxt.values())
            weight *= total
            if total <= 0.0:
                break
            belief = {s: v / total for s, v in nxt.items()}
        if weight > 0.0:
            residual += weight * dict_entropy(belief)
    return residual


def brute_block_entropy(machine, L: int) -> float:
    pi = power_stationary(machine)
    edges = edges_by_state(machine)
    words: dict = {}
    stack = [(s, "", pi[s]) for s in machine.states if pi[s] > 0.0]
    while stack:
        s, word, p = stack.pop()
        if len(word) == L:
            words[word] = words.get(word, 0.0) + p
            continue
        for tr in edges[s]:
            stack.append((tr.to, word + tr.symbol, p * tr.p))
    return dict_entropy(words)


def moore_partition(machine, tol: float = 1e-9) -> dict:
    """state -> first member of its block under Moore refinement.

    Blocks start as groups of equal next-symbol distributions (within
    `tol`), then split while members send one symbol to different
    blocks: the classical minimization of a unifilar machine. Blocks are
    numbered by first member.
    """
    n = machine.n_states
    a = len(machine.alphabet)
    E = machine.emission_matrix()
    T = machine.symbol_matrices()
    succ = [[-1] * a for _ in range(n)]
    for x in range(a):
        for i in range(n):
            j = int(np.argmax(T[x, i]))
            if T[x, i, j] > 0.0:
                succ[i][x] = j
    block_of = []
    reps: list[int] = []
    for i in range(n):
        for b, rep in enumerate(reps):
            if np.abs(E[i] - E[rep]).max() <= tol:
                block_of.append(b)
                break
        else:
            block_of.append(len(reps))
            reps.append(i)
    while True:
        signatures: dict = {}
        new_block_of = []
        for i in range(n):
            sig = (block_of[i],) + tuple(
                block_of[j] if j >= 0 else -1 for j in succ[i]
            )
            new_block_of.append(signatures.setdefault(sig, len(signatures)))
        if new_block_of == block_of:
            break
        block_of = new_block_of
    first = {}
    for i, b in enumerate(block_of):
        first.setdefault(b, machine.states[i])
    return {machine.states[i]: first[b] for i, b in enumerate(block_of)}


def bfs_recurrent_classes(adjacency) -> tuple[set, set]:
    """(recurrent classes as frozensets, transient states) of a 0/1 graph.

    Breadth-first search from every node; a node is recurrent iff every
    node it reaches reaches it back.
    """
    n = len(adjacency)
    reach = []
    for start in range(n):
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop(0)
            for w in range(n):
                if adjacency[v][w] and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        reach.append(seen)
    recurrent = [s for s in range(n) if all(s in reach[t] for t in reach[s])]
    classes = {frozenset(reach[s]) for s in recurrent}
    return classes, set(range(n)) - set(recurrent)


# ---------------------------------------------------------------------------
# einsum references for the matmul kernels of ValidatedMachine and
# joint_block_distribution; T[x, i, j] is the symbol-matrix stack


def einsum_extend_words(T, vec):
    """A[w, i] -> A'[w * |A| + x, j] = sum_i A[w, i] T[x, i, j]."""
    return np.einsum("wi,xij->wxj", vec, T).reshape(-1, T.shape[1])


def einsum_joint_block(T, pi, k):
    """J[r, w, j] = pi[r] P(emit word w and end in j | start in r)."""
    n = T.shape[1]
    cur = np.zeros((n, 1, n))
    cur[np.arange(n), 0, np.arange(n)] = pi
    for _ in range(k):
        cur = np.einsum("rwi,xij->rwxj", cur, T).reshape(n, -1, n)
    return cur


# ---------------------------------------------------------------------------
# the excess-entropy scan as one append chain: the reference for the
# split-block scan of `excess_entropy`


def append_chain_excess_entropy(m, L_max: int = 12, tol: float = 1e-9):
    """(history, converged, stopped_at) of the 2H(L) - H(2L) scan, each
    H(j + 1) the entropy of P(w x) = sum_i A[w, i] E[i, x] from the
    length-j word-state table A, grown one symbol at a time, and the
    emission matrix E. Stops where `excess_entropy` does."""
    emission = m.emission_matrix()
    blocks = [0.0]  # blocks[j] = H(j)
    words = None  # then the word-state table of length len(blocks) - 2
    history = []
    for L in range(1, L_max + 1):
        try:
            m.check_budget(2 * L)
        except BlockTooLargeError:
            break
        while len(blocks) <= 2 * L:
            words = m.word_state_vectors(0) if words is None else m.extend_words(words)
            blocks.append(entropy_bits(words @ emission))
        e_l = 2.0 * blocks[L] - blocks[2 * L]
        history.append((L, e_l))
        if (abs(e_l - history[-2][1]) if L > 1 else e_l) < tol:
            return tuple(history), True, L
    return tuple(history), False, history[-1][0] if history else 0


# ---------------------------------------------------------------------------
# per-draw reference for run_cycle: one bisect per draw, each draw taking
# the next uniform of its stream


def _cumulative_rows(matrix):
    """Per-row (cumulative masses, column indices) over the positive entries."""
    rows = []
    for row in matrix:
        idx = np.flatnonzero(row)
        rows.append((np.cumsum(row[idx]).tolist(), idx.tolist()))
    return rows


def _draw(row, u):
    cum, idx = row
    return idx[min(bisect_right(cum, u * cum[-1]), len(idx) - 1)]


def per_draw_cycle(cfg):
    """run_cycle, block by block: k generator steps, then k extractor steps."""
    mem = cfg.memory
    machine = mem.machine
    n = machine.n_states
    alphabet = machine.alphabet
    default = mem.base.machine.default_distribution

    a = len(alphabet)
    emit_rows = _cumulative_rows(machine.emission_matrix())
    landing_rows = _cumulative_rows(machine.step_matrix().reshape(-1, n))
    default_row = _cumulative_rows(default[None, :])[0]

    n_draws = cfg.k * cfg.n_blocks + 1
    pattern_u, gen_u, ext_u, reset_u = (
        iter(np.random.default_rng(s).random(n_draws).tolist())
        for s in np.random.SeedSequence(cfg.seed).spawn(4)
    )

    base_pi = mem.base.machine.stationary()
    class0 = _draw(_cumulative_rows(base_pi[None, :])[0], next(pattern_u))
    class_label = mem.base.machine.states[class0]
    in_class = np.array([mem.causal_map[s] == class_label for s in machine.states])
    weights = machine.stationary() * in_class
    if weights.sum() <= 0.0:
        weights = in_class.astype(float)
    member_row = _cumulative_rows(weights[None, :])[0]
    gen_state = _draw(member_row, next(gen_u))
    ext_state = _draw(member_row, next(ext_u))

    # the tallies are Counters, filled in place as the loop draws
    ledger = WorkLedger(*block_work(mem, cfg.k), cfg.n_blocks, Counter(), Counter(), Counter())
    tape = deque()
    states = machine.states
    symbols = alphabet.symbols
    words, gen_labels, ext_labels, battery = [], [states[gen_state]], [states[ext_state]], []

    for block in range(cfg.n_blocks):
        block_symbols = []
        for _ in range(cfg.k):
            x = _draw(emit_rows[gen_state], next(pattern_u))
            ledger.state_symbol_counts[(states[gen_state], symbols[x])] += 1
            ledger.symbol_counts[symbols[x]] += 1
            tape.append(symbols[x])
            block_symbols.append(symbols[x])
            gen_state = _draw(landing_rows[gen_state * a + x], next(gen_u))
        for _ in range(cfg.k):
            reset_sym = symbols[_draw(default_row, next(reset_u))]
            read = tape.popleft()
            ledger.default_counts[reset_sym] += 1
            row = landing_rows[ext_state * a + alphabet.symbols.index(read)]
            if not row[1]:
                raise DesynchronizedError(
                    f"extractor in {states[ext_state]!r} cannot read {read!r}"
                )
            ext_state = _draw(row, next(ext_u))
        if mem.causal_map[states[gen_state]] != mem.causal_map[states[ext_state]]:
            raise DesynchronizedError(
                f"block {block}: generator class "
                f"{mem.causal_map[states[gen_state]]!r} != extractor class "
                f"{mem.causal_map[states[ext_state]]!r}"
            )
        words.append("".join(block_symbols))
        gen_labels.append(states[gen_state])
        ext_labels.append(states[ext_state])
        battery.append(ledger.battery_balance(block + 1))
    return SimTrace(words, gen_labels, ext_labels, battery), ledger
