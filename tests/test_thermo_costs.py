import math

import numpy as np
import pytest

from pattherm import (
    Units,
    causal_memory,
    check_determinism,
    cycle_report,
    cycle_reports,
    excess_entropy,
    generation_tape_cost,
    random_kernel,
    refine_memory,
    uniform_distribution,
)
from pattherm.thermo_costs import CSV_COLUMNS, K_BOLTZMANN, block_entropies

from .oracles import binary_entropy, brute_dissipation, dense_report_fields, edges

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
        for bad in (-10.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Units(mode="physical", temperature=bad)


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

    def test_non_uniform_default(self, pc):
        from pattherm import FiniteDistribution, MachineSpec, minimize_to_causal, validate_machine

        biased = FiniteDistribution(("L", "R"), np.array([0.9, 0.1]))
        spec = MachineSpec(pc.alphabet, pc.states, tuple(edges(pc)), biased)
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


def _routes(r) -> tuple[float, float, float]:
    return r.w_diss_eq2, r.w_diss_eq3, r.w_diss_eq5


class TestDissipationCost:
    def test_pc_causal_hand_value(self, pc_memories):
        r = cycle_report(pc_memories["causal"], 1)
        # H(X|R^t) = H_b(0.9); the new state reveals the symbol exactly
        assert r.w_diss_eq3 == pytest.approx(HB9, abs=1e-12)

    def test_pc_last_two_k2_doubles(self, pc_memories):
        r = cycle_report(pc_memories["last-two"], 2)
        assert r.w_diss_eq3 == pytest.approx(2 * HB9, abs=1e-12)
        causal = cycle_report(pc_memories["causal"], 2)
        assert causal.w_diss_eq3 < r.w_diss_eq3

    def test_fair_coin_zero(self, fc_causal):
        for r in cycle_reports(causal_memory(fc_causal), (1, 4)):
            assert r.w_diss_eq3 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["causal", "last-two", "split50"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force(self, name, k, pc_memories):
        mem = pc_memories[name]
        routes = _routes(cycle_report(mem, k))
        oracle = brute_dissipation(mem.machine, k)
        for got, want in zip(routes, oracle, strict=True):
            assert got == pytest.approx(want, abs=1e-9)

    def test_identity_chain_all_fixtures(self, all_fixture_memories):
        for memories in all_fixture_memories.values():
            for mem in memories.values():
                for r in cycle_reports(mem, range(1, 7)):
                    eq2, eq3, eq5 = _routes(r)
                    assert abs(eq2 - eq3) < 1e-9
                    assert abs(eq3 - eq5) < 1e-9

    def test_non_negative(self, all_fixture_memories):
        for memories in all_fixture_memories.values():
            for mem in memories.values():
                for r in cycle_reports(mem, (1, 3, 6)):
                    assert r.w_diss_eq3 >= -1e-9


class TestDissipationLimit:
    def test_pc_causal(self, pc, pc_memories):
        limit = cycle_report(pc_memories["causal"], 1, excess_entropy(pc)).w_diss_limit
        assert limit == pytest.approx(1.0 - (1.0 - HB9), abs=1e-9)
        assert limit == pytest.approx(HB9, abs=1e-9)

    def test_pc_last_two(self, pc, pc_memories):
        # reached exactly from k=2 on
        r = cycle_report(pc_memories["last-two"], 2, excess_entropy(pc))
        assert r.w_diss_limit == pytest.approx((1.0 + HB9) - (1.0 - HB9), abs=1e-9)
        assert r.w_diss_eq3 == pytest.approx(r.w_diss_limit, abs=1e-9)

    def test_p2_zero(self, p2, p2_causal):
        r = cycle_report(causal_memory(p2_causal), 1, excess_entropy(p2))
        assert r.w_diss_limit == pytest.approx(0.0, abs=1e-9)

    def test_limit_at_least_complexity_minus_excess(self, all_fixture_memories, request):
        for name, memories in all_fixture_memories.items():
            base = memories["causal"].base
            e = excess_entropy(base.machine)
            floor = base.complexity - e.value
            assert floor >= -1e-9
            for mem in memories.values():
                assert cycle_report(mem, 1, e).w_diss_limit >= floor - 1e-9

    def test_convergence_gaps_monotone_for_deterministic_memories(
        self, all_fixture_memories
    ):
        for memories in all_fixture_memories.values():
            for name in ("causal", "last-two"):
                reports = cycle_reports(memories[name], range(1, 9))
                gaps = [abs(r.w_diss_eq3 - r.w_diss_limit) for r in reports]
                assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
                assert gaps[-1] < 1e-6


class TestExtractionWork:
    def test_pc_one_symbol(self, pc_memories):
        w_out = cycle_report(pc_memories["causal"], 1).w_out
        assert w_out == pytest.approx(1.0 - HB9, abs=1e-12)

    def test_memory_independent(self, pc_memories):
        values = [cycle_report(m, 1).w_out for m in pc_memories.values()]
        assert max(values) - min(values) < 1e-12

    def test_fair_coin_releases_nothing(self, fc_causal):
        for r in cycle_reports(causal_memory(fc_causal), (1, 5)):
            assert r.w_out == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["causal", "last-two", "split50"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_bookkeeping_identity(self, name, k, pc_memories):
        # H(R^t, block | R^{t+k}) = k*h + H(R^{t+k} | R^t, block): the update
        # noise is on both sides, leaving H(R_in, W) - H(R_out) = k*h
        e = block_entropies(pc_memories[name], [k])[0]
        assert e.state_word - e.state_out == pytest.approx(k * e.h, abs=1e-9)

    def test_stochastic_intermediate_carries_noise_bit(self, pc_memories):
        mem = pc_memories["split50"]
        e = block_entropies(mem, [1])[0]
        noise = check_determinism(mem, 1).residual
        # H(R^t, X | R^{t+1}) = H_b(0.9) + 1 injected bit
        assert e.state_word + noise - e.state_out == pytest.approx(HB9 + 1.0, abs=1e-9)


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
                reports = cycle_reports(mem, (1, 3), excess=0.0)
                for r, e in zip(reports, block_entropies(mem, (1, 3))):
                    eq2, eq3, eq5 = _routes(r)
                    assert max(abs(eq2 - eq3), abs(eq3 - eq5)) < 1e-9
                    assert eq3 >= -1e-9
                    assert abs(e.state_word - e.state_out - e.k * e.h) < 1e-9

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
            pairs = zip(*(cycle_reports(m, (1, 2, 4), excess=0.0) for m in (base, mem)))
            for r_base, r_mem in pairs:
                assert r_base.w_diss_eq3 <= r_mem.w_diss_eq3 + 1e-12

        run()


class TestCausalMinimality:
    def test_causal_beats_random_refinements(self, pc_causal, gm_causal):
        rng = np.random.default_rng(2024)
        for causal in (pc_causal, gm_causal):
            base = causal_memory(causal)
            for trial in range(8):
                mem = refine_memory(causal, random_kernel(causal, rng, f"t{trial}"))
                ks = (1, 3, 6)
                for r_causal, r_refined in zip(cycle_reports(base, ks), cycle_reports(mem, ks)):
                    assert r_causal.w_diss_eq3 <= r_refined.w_diss_eq3 + 1e-12


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
            cycle_reports(mem, [1, 2, 3])
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
            cycle_reports(mem, range(1, k + 1), excess=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4, (peak, dense_bytes)
