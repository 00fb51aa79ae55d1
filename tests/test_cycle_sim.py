import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from pattherm import (
    Alphabet,
    DesynchronizedError,
    InsufficientDataError,
    MachineSpec,
    PrescientMemory,
    SimConfig,
    Transition,
    causal_memory,
    cycle_report,
    joint_block_distribution,
    minimize_to_causal,
    run_cycle,
    stochastic_split_kernel,
    refine_memory,
    validate_machine,
)
from pattherm.cycle_sim import _plugin_entropy
from pattherm.process_model import DEFAULT_BLOCK_BUDGET
from pattherm.thermo_costs import block_work

from .oracles import binary_entropy, per_draw_cycle, word_labels
from .test_process_model import random_machine

HB9 = binary_entropy(0.9)


class TestEmpiricalEntropy:
    def test_constant_sequence(self):
        assert _plugin_entropy(Counter("aaaaaaa")) == (0.0, 7)

    def test_pc_symbol_marginal_near_uniform(self, pc_memories):
        cfg = SimConfig(memory=pc_memories["causal"], k=1, n_blocks=100_000, seed=4)
        _, ledger = run_cycle(cfg)
        h, n = ledger.empirical_symbol_entropy()
        assert n == 100_000
        assert h == pytest.approx(1.0, abs=0.01)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            _plugin_entropy(Counter(""))


class TestRunCycle:
    def test_period_two_deterministic_tape(self, p2_causal):
        cfg = SimConfig(
            memory=causal_memory(p2_causal), k=1, n_blocks=100, seed=5
        )
        trace, ledger = run_cycle(cfg)
        symbols = "".join(trace.words)
        assert symbols in ("01" * 50, "10" * 50)
        h, _ = ledger.empirical_conditional_entropy()
        assert h == 0.0
        assert ledger.battery_balance() == pytest.approx(0.0, abs=1e-9)

    def test_bit_identical_repeat(self, pc_memories):
        cfg = SimConfig(memory=pc_memories["split50"], k=2, n_blocks=500, seed=17)
        trace_a, ledger_a = run_cycle(cfg)
        trace_b, ledger_b = run_cycle(cfg)
        assert trace_a == trace_b
        assert ledger_a.state_symbol_counts == ledger_b.state_symbol_counts

    def test_ledger_cumulative_net_exact(self, pc_memories):
        cfg = SimConfig(memory=pc_memories["causal"], k=3, n_blocks=1000, seed=2)
        _, ledger = run_cycle(cfg)
        # the ledger books block_work's W_diss, which can miss cycle_report's
        # streamed one in the last bit
        w_tape, w_diss, w_out = block_work(pc_memories["causal"], 3)
        assert ledger.cumulative_net() == 1000 * (w_tape + w_diss - w_out)
        report = cycle_report(pc_memories["causal"], 3)
        assert ledger.cumulative_net() == pytest.approx(1000 * report.net, abs=1e-12)

    def test_states_align_with_symbols(self, gm_causal):
        cfg = SimConfig(memory=causal_memory(gm_causal), k=1, n_blocks=200, seed=5)
        trace, _ = run_cycle(cfg)
        m = gm_causal.machine
        succ = m.successors()
        assert len(trace.gen_labels) == 201 and len(trace.words) == 200
        for s, x, t in zip(trace.gen_labels, trace.words, trace.gen_labels[1:]):
            assert m.states[succ[m.states.index(s), m.alphabet.symbols.index(x)]] == t

    def test_empirical_conditional_entropy_converges(self, pc_memories):
        cfg = SimConfig(memory=pc_memories["causal"], k=1, n_blocks=20_000, seed=8)
        _, ledger = run_cycle(cfg)
        h, n = ledger.empirical_conditional_entropy()
        assert n == 20_000
        assert h == pytest.approx(HB9, abs=0.02)

    def test_block_frequencies_match_joint(self, gm_causal):
        cfg = SimConfig(memory=causal_memory(gm_causal), k=3, n_blocks=40_000, seed=13)
        trace, _ = run_cycle(cfg)
        joint = joint_block_distribution(gm_causal.machine, 3)
        labels = word_labels(gm_causal.machine.alphabet.symbols, 3)
        expected_p = joint.table.probs.sum(axis=(0, 2))
        words = Counter(trace.words)
        counts = np.array([words[w] for w in labels], dtype=float)
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
        classes = pc_memories["split50"].causal_map
        for g, e in zip(trace.gen_labels, trace.ext_labels, strict=True):
            assert classes[g] == classes[e]

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
        out = io.StringIO()
        trace.to_csv(out)
        lines = out.getvalue().strip().split("\n")
        assert lines[0] == (
            "block_index,symbols,gen_state_before,gen_state_after,"
            "ext_state_before,ext_state_after,battery_balance_bits"
        )
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and len(first[1]) == 2

    def test_csv_chunks_join_to_the_whole_trace(self, pc_memories, monkeypatch):
        trace, _ = run_cycle(SimConfig(memory=pc_memories["causal"], k=1, n_blocks=7, seed=0))
        whole = io.StringIO()
        trace.to_csv(whole)
        monkeypatch.setattr("pattherm.cycle_sim.CSV_CHUNK_ROWS", 3)
        writes = []
        trace.to_csv(type("Sink", (), {"write": staticmethod(writes.append)}))
        assert len(writes) == 4  # the header, then rows 0-2, 3-5 and 6
        assert "".join(writes) == whole.getvalue()
        assert len(whole.getvalue().splitlines()) == 8

    def test_battery_balance_is_minus_net(self, pc_memories):
        cfg = SimConfig(memory=pc_memories["last-two"], k=2, n_blocks=50, seed=6)
        trace, ledger = run_cycle(cfg)
        assert trace.battery[-1] == pytest.approx(
            -ledger.cumulative_net(), abs=1e-9
        )


LEDGER_COUNTS = ("state_symbol_counts", "symbol_counts", "default_counts")


def assert_cycle_matches_oracle(cfg):
    """run_cycle reproduces the per-draw loop: trace columns, tallies in key
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
    assert trace == want_trace
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


@pytest.mark.parametrize("seed, first_error", [
    # block 2 ends in a class mismatch; read on, the extractor could not
    # read the second symbol of block 6
    (4, "block 2: generator class 'A' != extractor class 'B'"),
    # the extractor cannot read the second symbol of block 0, whose end
    # finds the generator in class A and the stuck extractor in class B
    (96, "extractor in 'B~1' cannot read '0'"),
])
def test_first_error_in_block_order_matches_oracle(even, seed, first_error):
    causal = minimize_to_causal(even)
    honest = refine_memory(causal, stochastic_split_kernel(causal))
    # a split A state labelled B lets the two memories start in different
    # even-process states; they stay apart through runs of 1s, and a 0
    # strands an extractor in B
    corrupted = PrescientMemory(
        machine=honest.machine,
        base=honest.base,
        causal_map={**honest.causal_map, "A~1": "B"},
        memory_id="corrupted",
    )
    cfg = SimConfig(memory=corrupted, k=3, n_blocks=20, seed=seed)
    with pytest.raises(DesynchronizedError) as want:
        per_draw_cycle(cfg)
    assert str(want.value) == first_error
    assert_cycle_matches_oracle(cfg)


def test_word_codes_at_the_budget_edge(pc_memories):
    # 2^16 and 3^10 words: the largest block codes the word budget admits
    ternary = validate_machine(MachineSpec(
        Alphabet(("a", "b", "c")),
        ("X", "Y"),
        (
            Transition("X", "a", 0.5, "X"),
            Transition("X", "b", 0.3, "Y"),
            Transition("X", "c", 0.2, "X"),
            Transition("Y", "a", 0.6, "Y"),
            Transition("Y", "c", 0.4, "X"),
        ),
    ))
    for mem, k in [
        (pc_memories["causal"], 16),
        (causal_memory(minimize_to_causal(ternary)), 10),
    ]:
        assert len(mem.machine.alphabet) ** k <= DEFAULT_BLOCK_BUDGET
        assert_cycle_matches_oracle(SimConfig(memory=mem, k=k, n_blocks=40, seed=11))
