"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion. Criterion bodies only use public package API plus
the independent oracles in tests/oracles.py.
"""

import time

import numpy as np
import pytest
from scipy.stats import chisquare

from pattherm import (
    SimConfig,
    causal_memory,
    check_determinism,
    cycle_report,
    cycle_reports,
    entropy_rate,
    excess_entropy,
    minimize_to_causal,
    parity_kernel,
    random_kernel,
    refine_memory,
    run_cycle,
    synchronization_profile,
)

FIXTURE_NAMES = ("FC", "PC", "P2", "GM")
MEMORY_NAMES = ("causal", "last-two", "split50")
KS = range(1, 7)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_dissipation_identity_chain(all_fixture_memories):
    """Eq.2 / Eq.3 / Eq.5 agree within 1e-9 everywhere, in under 10 s."""
    t0 = time.monotonic()
    worst = 0.0
    for name in FIXTURE_NAMES:
        for mem_name in MEMORY_NAMES:
            mem = all_fixture_memories[name][mem_name]
            for r in cycle_reports(mem, KS, excess=0.0):
                worst = max(worst, abs(r.w_diss_eq2 - r.w_diss_eq3),
                            abs(r.w_diss_eq3 - r.w_diss_eq5))
    elapsed = time.monotonic() - t0
    report(
        1,
        worst < 1e-9 and elapsed < 10.0,
        f"identity chain max disagreement {worst:.2e} over "
        f"{len(FIXTURE_NAMES) * len(MEMORY_NAMES) * len(KS)} cases in {elapsed:.2f}s",
    )


def test_criterion_02_indeterminism_cancellation(pc_memories, pc_parity):
    """Stochastic and deterministic splits at H(R)=2 dissipate identically."""
    split = pc_memories["split50"]
    h_split = split.memory_entropy()
    h_parity = pc_parity.memory_entropy()
    ok = abs(h_split - 2.0) < 1e-9 and abs(h_split - h_parity) < 1e-9
    worst = 0.0
    residuals = []
    reports = zip(cycle_reports(split, KS), cycle_reports(pc_parity, KS))
    for k, (r_split, r_parity) in zip(KS, reports):
        residuals.append(check_determinism(split, k).residual)
        for a, b in (
            (r_split.w_diss_eq2, r_parity.w_diss_eq2),
            (r_split.w_diss_eq3, r_parity.w_diss_eq3),
            (r_split.w_diss_eq5, r_parity.w_diss_eq5),
        ):
            worst = max(worst, abs(a - b))
    ok = ok and all(abs(r - 1.0) < 1e-9 for r in residuals) and worst < 1e-9
    report(
        2,
        ok,
        f"H(R)={h_split:.6f} both memories, update-noise residual "
        f"{residuals[0]:.6f} bits, max W_diss difference {worst:.2e}",
    )


def test_criterion_03_simpler_is_better(pc_memories, pc_causal, gm_causal):
    """Causal memory dissipates least, exactly and under random refinement."""
    d_causal = cycle_report(pc_memories["causal"], 2).w_diss_eq3
    d_refined = cycle_report(pc_memories["last-two"], 2).w_diss_eq3
    ok = (
        abs(d_causal - 0.468996) < 1e-6
        and abs(d_refined - 0.937992) < 1e-6
        and d_causal < d_refined
    )
    rng = np.random.default_rng(7)
    violations = 0
    for causal in (pc_causal, gm_causal):
        base = causal_memory(causal)
        base_costs = cycle_reports(base, KS, excess=0.0)
        for trial in range(20):
            mem = refine_memory(causal, random_kernel(causal, rng, f"rk{trial}"))
            for r_base, r in zip(base_costs, cycle_reports(mem, KS, excess=0.0)):
                if r_base.w_diss_eq3 > r.w_diss_eq3 + 1e-12:
                    violations += 1
    ok = ok and violations == 0
    report(
        3,
        ok,
        f"PC k=2 causal {d_causal:.6f} < refined {d_refined:.6f}; "
        f"{violations} violations over 40 random kernels x k<=6",
    )


def test_criterion_04_extraction_memory_independence(all_fixture_memories):
    """Extraction work ignores the memory choice to 1e-12."""
    worst = 0.0
    for name in FIXTURE_NAMES:
        memories = all_fixture_memories[name]
        per_memory = [cycle_reports(m, KS, excess=0.0) for m in memories.values()]
        for reports in zip(*per_memory):
            values = [r.w_out for r in reports]
            worst = max(worst, max(values) - min(values))
    report(4, worst < 1e-12, f"max spread across memories {worst:.2e}")


def test_criterion_05_dissipation_limit(all_fixture_memories):
    """W_diss(k) approaches H(R) - E; fast for PC and P2, monotone for GM."""
    pc = all_fixture_memories["PC"]
    p2 = all_fixture_memories["P2"]
    ok = True
    details = []
    for label, mem in (
        ("PC/causal", pc["causal"]),
        ("PC/last-two", pc["last-two"]),
        ("P2/causal", p2["causal"]),
    ):
        r = cycle_report(mem, 4)
        gap = abs(r.w_diss_eq3 - r.w_diss_limit)
        details.append(f"{label} gap(4)={gap:.2e}")
        ok = ok and gap < 1e-6
    gm = all_fixture_memories["GM"]["causal"]
    gaps = [abs(r.w_diss_eq3 - r.w_diss_limit) for r in cycle_reports(gm, range(1, 9))]
    monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    details.append(f"GM gap(8)={gaps[-1]:.2e} monotone={monotone}")
    ok = ok and monotone and gaps[-1] < 1e-3
    report(5, ok, "; ".join(details))


def test_criterion_06_cycle_balance(all_fixture_memories):
    """Net cycle cost equals the dissipation, to 1e-12."""
    worst = 0.0
    for name in FIXTURE_NAMES:
        for mem in all_fixture_memories[name].values():
            excess = excess_entropy(mem.base.machine)
            for k in KS:
                r = cycle_report(mem, k, excess=excess)
                worst = max(worst, abs(r.net - r.w_diss_eq3))
    report(6, worst < 1e-12, f"max |net - W_diss| = {worst:.2e}")


def test_criterion_07_causal_minimization(pc_redundant, gm, fc):
    c_pc = minimize_to_causal(pc_redundant)
    c_gm = minimize_to_causal(gm)
    c_fc = minimize_to_causal(fc)
    e_fc = excess_entropy(fc)
    checks = {
        "PC 4->2 states": c_pc.machine.n_states == 2,
        "PC C=1": abs(c_pc.complexity - 1.0) < 1e-9,
        "GM C": abs(c_gm.complexity - 0.918296) < 1e-6,
        "GM h": abs(entropy_rate(c_gm) - 0.666667) < 1e-6,
        "FC C=0": c_fc.complexity == 0.0,
        "FC E=0": e_fc.value == 0.0,
    }
    report(
        7,
        all(checks.values()),
        ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items()),
    )


def test_criterion_08_monte_carlo_consistency(pc_memories):
    """Sampled cycle statistics agree with the exact values."""
    t0 = time.monotonic()
    cfg = SimConfig(memory=pc_memories["causal"], k=1, n_blocks=100_000, seed=42)
    _, ledger = run_cycle(cfg)
    h_emp, n = ledger.empirical_conditional_entropy()
    counts = np.array([ledger.default_counts.get(s, 0) for s in ("L", "R")], float)
    chi = chisquare(counts, np.full(2, counts.sum() / 2))
    elapsed = time.monotonic() - t0
    ok = abs(h_emp - 0.468996) < 0.01 and chi.pvalue > 1e-3 and elapsed < 30.0
    report(
        8,
        ok,
        f"empirical H(X|R)={h_emp:.6f} over {n} symbols "
        f"(target 0.468996 +- 0.01), default-region chi-square p={chi.pvalue:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_09_synchronization(pc_memories, p2_causal, gm_causal, even, word_budget):
    """Exact synchronizers reach zero at L=1; the even process decays strictly.

    Exact clause: PC, P2 and GM are Markov order 1 (GM's words ending
    "1" land in A, those ending "0" in B), so H(R | last L symbols) is
    zero from L=1 on and sync_at == 1.

    Asymptotic clause: the even process never synchronizes exactly on
    the all-ones past, so its residual is positive at every depth and
    falls strictly, below 1e-3 by L=20. It follows the closed form
    (2/3)*2^-((L-1)/2) for odd L and H_b(1/3)*2^-(L/2) for even L,
    the mass of the all-ones word times its posterior entropy.
    """
    exact = {
        name: synchronization_profile(mem, 6)
        for name, mem in (
            ("GM", causal_memory(gm_causal)),
            ("PC", pc_memories["causal"]),
            ("P2", causal_memory(p2_causal)),
        )
    }
    exact_ok = all(p.residual(1) < 1e-9 and p.sync_at == 1 for p in exact.values())

    depth = 20
    word_budget(2**depth)
    even_profile = synchronization_profile(even, depth)
    residuals = [even_profile.residual(L) for L in range(1, depth + 1)]
    h_third = np.log2(3.0) - 2.0 / 3.0
    closed = [
        (2.0 / 3.0) * 2.0 ** (-(L - 1) / 2) if L % 2 else h_third * 2.0 ** (-L / 2)
        for L in range(1, depth + 1)
    ]
    closed_err = max(abs(r - c) for r, c in zip(residuals, closed))
    strictly_decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    ok = (
        exact_ok
        and strictly_decreasing
        and residuals[-1] < 1e-3
        and closed_err < 1e-12
        and even_profile.sync_at is None
    )
    report(
        9,
        ok,
        ", ".join(f"{n} residual(1)={p.residual(1):.2e}" for n, p in exact.items())
        + f"; even residuals {['%.3e' % r for r in residuals]} "
        f"strictly_decreasing={strictly_decreasing}, "
        f"closed-form error {closed_err:.1e}, sync_at={even_profile.sync_at}",
    )


def test_criterion_10_determinism_check(all_fixture_memories):
    """Causal memories are deterministic; the 50/50 split carries 1.0 bit."""
    ok = True
    details = []
    for name in FIXTURE_NAMES:
        causal = all_fixture_memories[name]["causal"]
        result = check_determinism(causal, 2)
        ok = ok and result.ok
        if not result.ok:
            details.append(f"{name} causal residual {result.residual:.2e}")
    split = all_fixture_memories["PC"]["split50"]
    result = check_determinism(split, 3)
    split_ok = (not result.ok) and abs(result.residual - 1.0) < 1e-9
    ok = ok and split_ok
    details.append(f"split residual {result.residual:.9f}")
    report(10, ok, "; ".join(details) or "all causal fixtures deterministic")
