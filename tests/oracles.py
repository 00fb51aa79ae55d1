"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately dumb: pure-Python dict arithmetic over
explicit edge products, with the stationary distribution found by power
iteration. None of it shares code with the package's numpy pipelines, so
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
from itertools import product


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    q = 1.0 - p
    return -p * math.log2(p) - q * math.log2(q)


def dict_entropy(table: dict) -> float:
    return -sum(p * math.log2(p) for p in table.values() if p > 0.0)


def edges_by_state(machine) -> dict:
    out = {s: [] for s in machine.states}
    for tr in machine.transitions:
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


def brute_word_distribution(machine, state: str, L: int) -> dict:
    """word -> probability of emitting it when started in `state`."""
    edges = edges_by_state(machine)
    out: dict = {}
    stack = [(state, "", 1.0)]
    while stack:
        s, word, p = stack.pop()
        if len(word) == L:
            out[word] = out.get(word, 0.0) + p
            continue
        for tr in edges[s]:
            stack.append((tr.to, word + tr.symbol, p * tr.p))
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
