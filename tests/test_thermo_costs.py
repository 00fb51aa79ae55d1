import math

import numpy as np
import pytest

from pattherm import (
    Units,
    causal_memory,
    convergence_gaps,
    cycle_report,
    dissipation_cost,
    dissipation_limit,
    excess_entropy,
    extraction_work,
    generation_tape_cost,
    memory_entropy,
    random_kernel,
    refine_memory,
    uniform_distribution,
)
from pattherm.thermo_costs import CSV_COLUMNS, K_BOLTZMANN

from .oracles import binary_entropy, brute_dissipation, dense_report_fields

HB9 = binary_entropy(0.9)


class TestUnits:
    def test_bits_is_identity(self):
        assert Units().convert(1.5) == 1.5
        assert Units().label == "bits"

    def test_physical_landauer_factor(self):
        u = Units(mode="physical", temperature=300.0)
        assert u.factor == pytest.approx(K_BOLTZMANN * 300.0 * math.log(2.0))
        assert u.convert(1.0) == pytest.approx(2.8708e-21, rel=1e-3)
        assert u.label == "J"

    def test_physical_requires_temperature(self):
        with pytest.raises(ValueError):
            Units(mode="physical")
        with pytest.raises(ValueError):
            Units(mode="physical", temperature=-10.0)


class TestGenerationTapeCost:
    def test_pc_one_symbol(self, pc_causal):
        cost = generation_tape_cost(pc_causal, 1)
        assert cost == pytest.approx(1.0 - HB9, abs=1e-12)

    def test_fair_coin_costs_nothing(self, fc_causal):
        for k in (1, 3, 6):
            assert generation_tape_cost(fc_causal, k) == pytest.approx(0.0, abs=1e-12)

    def test_period_two_pays_full_default_entropy(self, p2_causal):
        # h = 0, so writing k symbols costs k * H(uniform) = k bits
        assert generation_tape_cost(p2_causal, 3) == pytest.approx(3.0, abs=1e-12)

    def test_scales_linearly_in_k(self, gm_causal):
        c1 = generation_tape_cost(gm_causal, 1)
        c5 = generation_tape_cost(gm_causal, 5)
        assert c5 == pytest.approx(5 * c1, abs=1e-12)

    def test_non_uniform_default(self):
        from dataclasses import replace

        from pattherm import FiniteDistribution, minimize_to_causal, validate_machine
        from pattherm.machines import perturbed_coin

        biased = FiniteDistribution(("L", "R"), np.array([0.9, 0.1]))
        spec = replace(perturbed_coin(0.9), default_distribution=biased)
        causal = minimize_to_causal(validate_machine(spec))
        # default entropy H_b(0.9) equals the pattern's entropy rate: no cost
        cost = generation_tape_cost(causal, 1)
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_physical_units(self, pc_causal):
        u = Units(mode="physical", temperature=300.0)
        report = cycle_report(pc_causal, 2)
        bits = (report.w_tape, report.w_diss_eq2, report.w_diss_eq3,
                report.w_diss_eq5, report.w_out, report.w_diss_limit)
        row = report.csv_row(u)
        assert row[-2] == "J"
        for value, text in zip(bits, row[1:7], strict=True):
            assert float(text) == pytest.approx(value * u.factor, rel=1e-9)


class TestDissipationCost:
    def test_pc_causal_hand_value(self, pc_memories):
        d = dissipation_cost(pc_memories["causal"], 1)
        # H(X|R^t) = H_b(0.9); the new state reveals the symbol exactly
        assert d.eq3 == pytest.approx(HB9, abs=1e-12)

    def test_pc_last_two_k2_doubles(self, pc_memories):
        d = dissipation_cost(pc_memories["last-two"], 2)
        assert d.eq3 == pytest.approx(2 * HB9, abs=1e-12)
        causal = dissipation_cost(pc_memories["causal"], 2)
        assert causal.eq3 < d.eq3

    def test_fair_coin_zero(self, fc_causal):
        for k in (1, 4):
            d = dissipation_cost(causal_memory(fc_causal), k)
            assert d.eq3 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["causal", "last-two", "split50"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force(self, name, k, pc_memories):
        mem = pc_memories[name]
        d = dissipation_cost(mem, k)
        oracle = brute_dissipation(mem.machine, k)
        assert d.eq2 == pytest.approx(oracle[0], abs=1e-9)
        assert d.eq3 == pytest.approx(oracle[1], abs=1e-9)
        assert d.eq5 == pytest.approx(oracle[2], abs=1e-9)

    def test_identity_chain_all_fixtures(self, all_fixture_memories):
        for memories in all_fixture_memories.values():
            for mem in memories.values():
                for k in range(1, 7):
                    d = dissipation_cost(mem, k)
                    assert abs(d.eq2 - d.eq3) < 1e-9
                    assert abs(d.eq3 - d.eq5) < 1e-9

    def test_non_negative(self, all_fixture_memories):
        for memories in all_fixture_memories.values():
            for mem in memories.values():
                for k in (1, 3, 6):
                    assert dissipation_cost(mem, k).eq3 >= -1e-9

    def test_units_conversion(self, pc_memories):
        u = Units(mode="physical", temperature=250.0)
        d = dissipation_cost(pc_memories["causal"], 2)
        phys = cycle_report(pc_memories["causal"], 2).csv_row(u)[2:5]
        for bits, text in zip((d.eq2, d.eq3, d.eq5), phys, strict=True):
            assert float(text) == pytest.approx(bits * u.factor, rel=1e-9)


class TestDissipationLimit:
    def test_pc_causal(self, pc, pc_memories):
        e = excess_entropy(pc)
        limit = dissipation_limit(pc_memories["causal"], e)
        assert limit == pytest.approx(1.0 - (1.0 - HB9), abs=1e-9)
        assert limit == pytest.approx(HB9, abs=1e-9)

    def test_pc_last_two(self, pc, pc_memories):
        e = excess_entropy(pc)
        limit = dissipation_limit(pc_memories["last-two"], e)
        assert limit == pytest.approx((1.0 + HB9) - (1.0 - HB9), abs=1e-9)
        # reached exactly from k=2 on
        assert dissipation_cost(pc_memories["last-two"], 2).eq3 == pytest.approx(
            limit, abs=1e-9
        )

    def test_p2_zero(self, p2, p2_causal):
        e = excess_entropy(p2)
        assert dissipation_limit(causal_memory(p2_causal), e) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_limit_at_least_complexity_minus_excess(self, all_fixture_memories, request):
        for name, memories in all_fixture_memories.items():
            base = memories["causal"].base
            e = excess_entropy(base.machine)
            floor = base.complexity - e.value
            assert floor >= -1e-9
            for mem in memories.values():
                assert dissipation_limit(mem, e) >= floor - 1e-9

    def test_convergence_gaps_monotone_for_deterministic_memories(
        self, all_fixture_memories
    ):
        ks = range(1, 9)
        for memories in all_fixture_memories.values():
            for name in ("causal", "last-two"):
                gaps = convergence_gaps(memories[name], ks)
                assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
                assert gaps[-1] < 1e-6


class TestExtractionWork:
    def test_pc_one_symbol(self, pc_memories):
        w = extraction_work(pc_memories["causal"], 1)
        assert w.value == pytest.approx(1.0 - HB9, abs=1e-12)

    def test_memory_independent(self, pc_memories):
        values = [extraction_work(m, 1).value for m in pc_memories.values()]
        assert max(values) - min(values) < 1e-12

    def test_fair_coin_releases_nothing(self, fc_causal):
        for k in (1, 5):
            assert extraction_work(causal_memory(fc_causal), k).value == pytest.approx(
                0.0, abs=1e-12
            )

    @pytest.mark.parametrize("name", ["causal", "last-two", "split50"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_bookkeeping_identity(self, name, k, pc_memories):
        w = extraction_work(pc_memories[name], k)
        assert w.intermediate == pytest.approx(w.intermediate_identity, abs=1e-9)

    def test_stochastic_intermediate_carries_noise_bit(self, pc_memories):
        w = extraction_work(pc_memories["split50"], 1)
        # H(R^t, X | R^{t+1}) = H_b(0.9) + 1 injected bit
        assert w.intermediate == pytest.approx(HB9 + 1.0, abs=1e-9)


class TestCycleReport:
    def test_net_equals_dissipation(self, pc_memories):
        report = cycle_report(pc_memories["causal"], 4)
        assert report.net == pytest.approx(report.w_diss_eq3, abs=1e-12)
        assert report.net == pytest.approx(HB9, abs=1e-9)
        assert report.minimal

    def test_fair_coin_net_zero(self, fc_causal):
        report = cycle_report(causal_memory(fc_causal), 3)
        assert report.net == pytest.approx(0.0, abs=1e-12)

    def test_refined_memory_flagged_non_minimal(self, pc_memories):
        report = cycle_report(pc_memories["last-two"], 4)
        assert report.net == pytest.approx(2 * HB9, abs=1e-9)
        assert not report.minimal

    def test_csv_row_layout(self, pc_memories):
        report = cycle_report(pc_memories["causal"], 1)
        row = report.csv_row()
        assert len(row) == len(CSV_COLUMNS)
        assert row[0] == "1"
        assert row[1] == f"{report.w_tape:.9f}"
        assert row[7] == "bits"
        assert row[8] == "causal"

    def test_tape_and_extraction_balance(self, all_fixture_memories):
        for memories in all_fixture_memories.values():
            for mem in memories.values():
                r = cycle_report(mem, 3)
                assert r.w_tape == pytest.approx(r.w_out, abs=1e-12)


class TestRandomMachineIdentities:
    """The bookkeeping identities are structural, not fixture accidents."""

    def test_identity_chain_and_extraction_identity(self):
        from hypothesis import given, settings

        from pattherm import DisconnectedError, minimize_to_causal, validate_machine
        from .test_process_model import random_unifilar_machine

        @given(random_unifilar_machine())
        @settings(max_examples=25, deadline=None)
        def run(spec):
            try:
                machine = validate_machine(spec)
            except DisconnectedError:
                return
            causal = minimize_to_causal(machine)
            rng = np.random.default_rng(machine.n_states * 1000 + 1)
            memories = [
                causal_memory(causal),
                refine_memory(causal, random_kernel(causal, rng)),
            ]
            for mem in memories:
                for k in (1, 3):
                    d = dissipation_cost(mem, k)
                    assert d.max_disagreement < 1e-9
                    assert d.eq3 >= -1e-9
                    w = extraction_work(mem, k)
                    assert abs(w.intermediate - w.intermediate_identity) < 1e-9

        run()

    def test_causal_never_beaten_on_random_machines(self):
        from hypothesis import given, settings

        from pattherm import DisconnectedError, minimize_to_causal, validate_machine
        from .test_process_model import random_unifilar_machine

        @given(random_unifilar_machine())
        @settings(max_examples=25, deadline=None)
        def run(spec):
            try:
                machine = validate_machine(spec)
            except DisconnectedError:
                return
            causal = minimize_to_causal(machine)
            rng = np.random.default_rng(machine.n_states * 77 + 5)
            mem = refine_memory(causal, random_kernel(causal, rng))
            base = causal_memory(causal)
            for k in (1, 2, 4):
                assert (
                    dissipation_cost(base, k).eq3
                    <= dissipation_cost(mem, k).eq3 + 1e-12
                )

        run()


class TestCausalMinimality:
    def test_causal_beats_random_refinements(self, pc_causal, gm_causal):
        rng = np.random.default_rng(2024)
        for causal in (pc_causal, gm_causal):
            base = causal_memory(causal)
            for trial in range(8):
                mem = refine_memory(causal, random_kernel(causal, rng, f"t{trial}"))
                for k in (1, 3, 6):
                    d_causal = dissipation_cost(base, k).eq3
                    d_refined = dissipation_cost(mem, k).eq3
                    assert d_causal <= d_refined + 1e-12

    def test_memory_entropy_helper(self, pc_memories):
        assert memory_entropy(pc_memories["split50"]) == pytest.approx(2.0, abs=1e-12)


class TestStreamedEntropies:
    """cycle_report reads two |A|^k x n tables, never the (R_in, W, R_out) one."""

    def test_report_matches_dense_oracle(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from pattherm import (
            DisconnectedError,
            minimize_to_causal,
            stochastic_split_kernel,
            validate_machine,
        )
        from .test_process_model import random_unifilar_machine

        @given(
            random_unifilar_machine(),
            st.sampled_from(["causal", "split", "random"]),
            st.integers(1, 6),
        )
        @settings(max_examples=60, deadline=None)
        def run(spec, kind, k):
            try:
                machine = validate_machine(spec)
            except DisconnectedError:
                return
            causal = minimize_to_causal(machine)
            if kind == "causal":
                mem = causal_memory(causal)
            elif kind == "split":
                mem = refine_memory(causal, stochastic_split_kernel(causal, 3, [0.5, 0.3, 0.2]))
            else:
                rng = np.random.default_rng(machine.n_states * 31 + k)
                mem = refine_memory(causal, random_kernel(causal, rng))
            report = cycle_report(mem, k, excess=0.25)
            want = dense_report_fields(mem, k, 0.25)
            assert abs(want.pop("extractor_gap")) < 1e-12
            for name, value in want.items():
                assert getattr(report, name) == pytest.approx(value, abs=1e-12), name

        run()

    def test_cost_paths_run_without_the_dense_table(self, monkeypatch, pc_memories, capsys):
        import pattherm.info_measures as im
        import pattherm.process_model as pm
        import pattherm.thermo_costs as tc
        from pattherm.cli import main

        from .test_cli import MACHINES

        def refuse(*args, **kwargs):
            raise AssertionError("built the (R_in, W, R_out) table")

        monkeypatch.setattr(pm, "joint_block_distribution", refuse)
        monkeypatch.setattr(tc, "joint_block_distribution", refuse)
        monkeypatch.setattr(im.JointTable, "__post_init__", refuse)
        for mem in pc_memories.values():
            cycle_report(mem, 5)
            dissipation_cost(mem, 5)
            extraction_work(mem, 5)
            convergence_gaps(mem, [1, 2, 3])
        argv = ["sweep", str(MACHINES / "pc09.json"), "--k-range", "1:8",
                "--memory", str(MACHINES / "kernels" / "pc_split50.json")]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 10

    def test_peak_memory_stays_below_the_dense_table(self):
        import tracemalloc
        from pathlib import Path

        from pattherm import load_machine_file, minimize_to_causal, validate_machine

        path = Path(__file__).resolve().parent.parent / "perfbench/inputs/exact/r40x3_0.json"
        causal = minimize_to_causal(validate_machine(load_machine_file(path)))
        mem = causal_memory(causal)
        n, k = mem.machine.n_states, 6
        dense_bytes = n * 3**k * n * 8
        mem.machine.stationary()
        tracemalloc.start()
        try:
            cycle_report(mem, k, excess=0.0)
            dissipation_cost(mem, k)
            extraction_work(mem, k)
            convergence_gaps(mem, range(1, k + 1), excess=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4, (peak, dense_bytes)
