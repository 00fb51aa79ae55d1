import numpy as np
import pytest
from scipy.stats import chisquare

from pattherm import (
    DesynchronizedError,
    InsufficientDataError,
    PrescientMemory,
    SimConfig,
    causal_memory,
    cycle_report,
    empirical_entropy,
    joint_block_distribution,
    run_cycle,
    sample_path,
    stochastic_split_kernel,
    refine_memory,
)

from .oracles import binary_entropy

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
        labels = [joint.word(w) for w in range(joint.table.probs.shape[1])]
        expected_p = joint.word_probabilities()
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
