import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from pattherm import (
    DesynchronizedError,
    InsufficientDataError,
    MachineSpec,
    PrescientMemory,
    SimConfig,
    Transition,
    causal_memory,
    cycle_report,
    empirical_entropy,
    joint_block_distribution,
    minimize_to_causal,
    run_cycle,
    sample_path,
    stochastic_split_kernel,
    refine_memory,
    validate_machine,
)

from .oracles import binary_entropy, per_draw_cycle, word_labels
from .test_process_model import random_machine

HB9 = binary_entropy(0.9)


class TestEmpiricalEntropy:
    def test_constant_sequence(self):
        h, n = empirical_entropy("aaaaaaa", 1)
        assert h == 0.0 and n == 7

    def test_alternating_overlapping_windows(self):
        seq = "01" * 500 + "0"  # 500 windows of each phase
        h, n = empirical_entropy(seq, 2, overlapping=True)
        assert h == pytest.approx(1.0, abs=1e-12)
        assert n == 1000
        h_even, _ = empirical_entropy("01" * 500, 2, overlapping=True)
        assert h_even == pytest.approx(1.0, abs=1e-5)  # one window short of exact

    def test_alternating_non_overlapping_depends_on_phase(self):
        seq = "01" * 500
        h_aligned, _ = empirical_entropy(seq, 2, overlapping=False)
        assert h_aligned == 0.0
        h_shifted, _ = empirical_entropy(seq[1:-1], 2, overlapping=False)
        assert h_shifted == 0.0  # the other phase, still a single block value

    def test_pc_symbol_marginal_near_uniform(self, pc):
        _, symbols = sample_path(pc, seed=4, n=100_000)
        h, n = empirical_entropy(symbols, 1)
        assert n == 100_000
        assert h == pytest.approx(1.0, abs=0.01)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            empirical_entropy("01", 3)


class TestRunCycle:
    def test_period_two_deterministic_tape(self, p2_causal):
        cfg = SimConfig(
            memory=causal_memory(p2_causal), k=1, n_blocks=100, seed=5
        )
        trace, ledger = run_cycle(cfg)
        symbols = "".join(r.symbols for r in trace.records)
        assert symbols in ("01" * 50, "10" * 50)
        h, _ = ledger.empirical_conditional_entropy()
        assert h == 0.0
        assert ledger.battery_balance() == pytest.approx(0.0, abs=1e-9)

    def test_bit_identical_repeat(self, pc_memories):
        cfg = SimConfig(memory=pc_memories["split50"], k=2, n_blocks=500, seed=17)
        trace_a, ledger_a = run_cycle(cfg)
        trace_b, ledger_b = run_cycle(cfg)
        assert trace_a.csv_text() == trace_b.csv_text()
        assert ledger_a.state_symbol_counts == ledger_b.state_symbol_counts

    def test_ledger_cumulative_net_exact(self, pc_memories):
        cfg = SimConfig(memory=pc_memories["causal"], k=3, n_blocks=1000, seed=2)
        _, ledger = run_cycle(cfg)
        report = cycle_report(pc_memories["causal"], 3)
        assert ledger.cumulative_net() == 1000 * report.net

    def test_empirical_conditional_entropy_converges(self, pc_memories):
        cfg = SimConfig(memory=pc_memories["causal"], k=1, n_blocks=20_000, seed=8)
        _, ledger = run_cycle(cfg)
        h, n = ledger.empirical_conditional_entropy()
        assert n == 20_000
        assert h == pytest.approx(HB9, abs=0.02)

    def test_block_frequencies_match_joint(self, gm_causal):
        cfg = SimConfig(memory=causal_memory(gm_causal), k=3, n_blocks=40_000, seed=13)
        _, ledger = run_cycle(cfg)
        joint = joint_block_distribution(gm_causal.machine, 3)
        labels = word_labels(gm_causal.machine.alphabet.symbols, 3)
        expected_p = joint.table.probs.sum(axis=(0, 2))
        counts = np.array([ledger.word_counts.get(w, 0) for w in labels], dtype=float)
        keep = expected_p > 0.0
        assert counts[~keep].sum() == 0
        result = chisquare(counts[keep], expected_p[keep] * counts.sum())
        assert result.pvalue > 1e-3

    def test_default_region_matches_default_distribution(self, pc_memories):
        cfg = SimConfig(memory=pc_memories["causal"], k=2, n_blocks=20_000, seed=21)
        _, ledger = run_cycle(cfg)
        counts = np.array(
            [ledger.default_counts.get(s, 0) for s in ("L", "R")], dtype=float
        )
        result = chisquare(counts, np.full(2, counts.sum() / 2))
        assert result.pvalue > 1e-3

    def test_memories_stay_synchronized(self, pc_memories, gm_causal):
        # stochastic refinement: private noise must not desynchronize classes
        cfg = SimConfig(memory=pc_memories["split50"], k=2, n_blocks=5000, seed=3)
        trace, _ = run_cycle(cfg)
        mem = pc_memories["split50"]
        for r in trace.records:
            assert mem.class_of(r.gen_state_after) == mem.class_of(r.ext_state_after)

    def test_corrupted_causal_map_raises(self, pc_causal):
        # mislabelling private noise as causal class must trip the check
        honest = refine_memory(pc_causal, stochastic_split_kernel(pc_causal))
        broken_map = dict(honest.causal_map)
        broken_map["L~1"] = "R"
        corrupted = PrescientMemory(
            machine=honest.machine,
            base=honest.base,
            causal_map=broken_map,
            memory_id="corrupted",
        )
        cfg = SimConfig(memory=corrupted, k=1, n_blocks=200, seed=1)
        with pytest.raises(DesynchronizedError):
            run_cycle(cfg)

    def test_trace_csv_schema(self, p2_causal):
        cfg = SimConfig(memory=causal_memory(p2_causal), k=2, n_blocks=3, seed=0)
        trace, _ = run_cycle(cfg)
        lines = trace.csv_text().strip().split("\n")
        assert lines[0] == (
            "block_index,symbols,gen_state_before,gen_state_after,"
            "ext_state_before,ext_state_after,battery_balance_bits"
        )
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and len(first[1]) == 2

    def test_battery_balance_is_minus_net(self, pc_memories):
        cfg = SimConfig(memory=pc_memories["last-two"], k=2, n_blocks=50, seed=6)
        trace, ledger = run_cycle(cfg)
        assert trace.records[-1].battery_balance_bits == pytest.approx(
            -ledger.cumulative_net(), abs=1e-9
        )


LEDGER_COUNTS = ("state_symbol_counts", "symbol_counts", "word_counts", "default_counts")


def assert_cycle_matches_oracle(cfg):
    """run_cycle reproduces the per-draw loop: records, tallies in key
    order, block count, or the same DesynchronizedError."""
    try:
        want_trace, want_ledger = per_draw_cycle(cfg)
    except DesynchronizedError as want:
        with pytest.raises(DesynchronizedError) as got:
            run_cycle(cfg)
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)
        return
    trace, ledger = run_cycle(cfg)
    assert trace.records == want_trace.records
    assert trace.csv_text() == want_trace.csv_text()
    for name in LEDGER_COUNTS:
        assert list(getattr(ledger, name).items()) == list(getattr(want_ledger, name).items())
    assert ledger.block_count == want_ledger.block_count == cfg.n_blocks


def one_class_memory(m):
    """A non-unifilar machine as memory, all of it one class of an i.i.d.
    base, so only the extractor's `cannot read` check can fire.

    Its states do not fix the next k symbols' distribution for k > 1, so
    `block_work` refuses it (extractor identity) unless k = 1.
    """
    a = m.alphabet
    iid = validate_machine(MachineSpec(
        a, ("c",), tuple(Transition("c", x, 1.0 / len(a), "c") for x in a.symbols)
    ))
    return PrescientMemory(
        machine=m,
        base=minimize_to_causal(iid),
        causal_map={s: "c" for s in m.states},
        memory_id="one-class",
    )


@st.composite
def cycle_config(draw):
    m = draw(st.one_of(random_machine(), random_machine(sparse=True)))
    if m.unifilar:
        causal = minimize_to_causal(m)
        kind = draw(st.sampled_from(["causal", "split", "presentation"]))
        if kind == "causal":
            mem = causal_memory(causal)
        elif kind == "split":
            mem = refine_memory(causal, stochastic_split_kernel(causal))
        else:
            mem = PrescientMemory(
                machine=m, base=causal, causal_map=dict(causal.projection),
                memory_id="presentation",
            )
        pairs = [(s, t) for s in mem.machine.states for t in mem.machine.states
                 if mem.causal_map[s] < mem.causal_map[t]]
        if pairs and draw(st.booleans()):
            # swap two memory states' classes, as a corrupted map would
            s, t = draw(st.sampled_from(pairs))
            mem = PrescientMemory(
                machine=mem.machine, base=mem.base,
                causal_map={**mem.causal_map, s: mem.causal_map[t], t: mem.causal_map[s]},
                memory_id="corrupted",
            )
    else:
        mem = one_class_memory(m)
    return SimConfig(
        memory=mem,
        k=draw(st.integers(1, 4)) if m.unifilar else 1,
        n_blocks=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@given(cycle_config())
@settings(max_examples=80, deadline=None)
def test_run_cycle_matches_per_draw_oracle(cfg):
    assert_cycle_matches_oracle(cfg)


def test_oracle_match_on_fixture_memories(pc_memories, gm_causal):
    honest = pc_memories["split50"]
    corrupted = PrescientMemory(
        machine=honest.machine,
        base=honest.base,
        causal_map={**honest.causal_map, "L~1": "R"},
        memory_id="corrupted",
    )
    for mem, k, n_blocks, seed in [
        (pc_memories["causal"], 1, 500, 0),
        (pc_memories["last-two"], 2, 300, 6),
        (honest, 4, 200, 3),
        (causal_memory(gm_causal), 3, 300, 7),
        (corrupted, 1, 200, 1),
    ]:
        assert_cycle_matches_oracle(SimConfig(memory=mem, k=k, n_blocks=n_blocks, seed=seed))
