import json

import numpy as np
import pytest

from pattherm import (
    Alphabet,
    BlockTooLargeError,
    KernelError,
    MachineSpec,
    PrescienceViolationError,
    Transition,
    UnifilarRequiredError,
    causal_memory,
    check_determinism,
    check_prescience,
    conditional_entropy,
    identity_kernel,
    joint_block_distribution,
    minimize_to_causal,
    parity_kernel,
    previous_state_kernel,
    random_kernel,
    refine_memory,
    statistical_complexity,
    stochastic_split_kernel,
    synchronization_profile,
    validate_machine,
)
from pattherm.causal_structure import load_memory_file, parse_kernel
from pattherm.info_measures import entropy_bits
from pattherm.process_model import machine_to_dict

from .oracles import (
    bayes_sync_residual,
    binary_entropy,
    brute_word_distribution,
    total_variation,
)

HB9 = binary_entropy(0.9)


class TestMinimization:
    def test_redundant_fair_coin_collapses(self, fc_redundant):
        c = minimize_to_causal(fc_redundant)
        assert c.machine.n_states == 1
        assert statistical_complexity(c) == pytest.approx(0.0, abs=1e-12)
        assert set(c.projection.values()) == {"S0"}

    def test_redundant_perturbed_coin_two_states(self, pc_redundant):
        # by hand: {LL, RL} and {LR, RR} agree on emissions and successors
        c = minimize_to_causal(pc_redundant)
        assert c.machine.n_states == 2
        assert statistical_complexity(c) == pytest.approx(1.0, abs=1e-9)
        assert c.projection["LL"] == c.projection["RL"]
        assert c.projection["LR"] == c.projection["RR"]
        assert c.projection["LL"] != c.projection["LR"]

    def test_golden_mean_already_minimal(self, gm):
        c = minimize_to_causal(gm)
        assert c.machine.n_states == 2
        assert statistical_complexity(c) == pytest.approx(
            binary_entropy(1.0 / 3.0), abs=1e-12
        )
        assert machine_to_dict(c.machine) == machine_to_dict(gm)

    def test_idempotent(self, pc_redundant):
        c1 = minimize_to_causal(pc_redundant)
        c2 = minimize_to_causal(c1.machine)
        assert machine_to_dict(c1.machine) == machine_to_dict(c2.machine)

    def test_rejects_non_unifilar(self):
        spec = MachineSpec(
            alphabet=Alphabet(("a",)),
            states=("s", "t"),
            transitions=(
                Transition("s", "a", 0.5, "s"),
                Transition("s", "a", 0.5, "t"),
                Transition("t", "a", 1.0, "s"),
            ),
        )
        m = validate_machine(spec)
        with pytest.raises(UnifilarRequiredError):
            minimize_to_causal(m)

    def test_complexity_no_larger_than_any_presentation(self, pc_redundant):
        c = minimize_to_causal(pc_redundant)
        h_pres = pc_redundant.stationary().entropy()
        assert statistical_complexity(c) <= h_pres + 1e-12


class TestRefinement:
    def test_identity_kernel_is_noop(self, pc_causal):
        mem = refine_memory(pc_causal, identity_kernel(pc_causal))
        assert mem.memory_entropy() == pytest.approx(pc_causal.complexity, abs=1e-12)
        assert machine_to_dict(mem.machine) == machine_to_dict(pc_causal.machine)
        assert mem.is_minimal

    def test_last_two_symbol_memory(self, pc_memories):
        mem = pc_memories["last-two"]
        assert mem.machine.n_states == 4
        # joint entropy of two consecutive symbols
        assert mem.memory_entropy() == pytest.approx(1.0 + HB9, abs=1e-12)
        assert not mem.is_minimal

    def test_stochastic_split_adds_one_bit(self, pc_memories):
        mem = pc_memories["split50"]
        assert mem.machine.unifilar is False
        assert mem.memory_entropy() == pytest.approx(2.0, abs=1e-12)

    def test_marginalizing_subs_recovers_base(self, pc_memories, pc_causal):
        mem = pc_memories["split50"]
        base = pc_causal.machine
        T = mem.machine.symbol_matrices()
        for u in mem.machine.states:
            i = mem.machine.state_index(u)
            s = mem.causal_map[u]
            for x, sym in enumerate(mem.machine.alphabet.symbols):
                folded = 0.0
                for v in mem.machine.states:
                    folded += T[x, i, mem.machine.state_index(v)]
                want = base.emission_matrix()[base.state_index(s), x]
                assert folded == pytest.approx(want, abs=1e-12)

    def test_kernel_row_not_normalized(self, pc_causal):
        kernel = stochastic_split_kernel(pc_causal, probs=[0.6, 0.6])
        with pytest.raises(KernelError, match="summing"):
            refine_memory(pc_causal, kernel)

    def test_kernel_must_cover_all_states(self, pc_causal):
        kernel = identity_kernel(pc_causal)
        broken = type(kernel)(
            name="broken",
            sub_states={"L": ("L",)},
            rules=kernel.rules,
        )
        with pytest.raises(KernelError, match="covers"):
            refine_memory(pc_causal, broken)

    def test_kernel_rules_must_cover_edges(self, pc_causal):
        kernel = previous_state_kernel(pc_causal)
        partial = type(kernel)(
            name="partial",
            sub_states=kernel.sub_states,
            rules=kernel.rules[:-1],
        )
        with pytest.raises(KernelError, match="no rule covers"):
            refine_memory(pc_causal, partial)

    def test_duplicate_sub_labels_rejected(self, pc_causal):
        kernel = identity_kernel(pc_causal)
        clash = type(kernel)(
            name="clash",
            sub_states={"L": ("u",), "R": ("u",)},
            rules=kernel.rules,
        )
        with pytest.raises(KernelError, match="more than once"):
            refine_memory(pc_causal, clash)

    def test_frozen_bit_kernel_is_reducible(self, pc_causal):
        # a sub-state bit that never changes splits the chain in two
        kernel = parity_kernel(pc_causal)
        frozen_rules = tuple(
            type(r)(
                target=r.target,
                source_sub=r.source_sub,
                symbol=r.symbol,
                probs={f"{r.target}%{r.source_sub[-1]}": 1.0},
            )
            for r in kernel.rules
        )
        frozen = type(kernel)(
            name="frozen", sub_states=kernel.sub_states, rules=frozen_rules
        )
        with pytest.raises(KernelError, match="reducible"):
            refine_memory(pc_causal, frozen)

    def test_random_kernels_are_prescient(self, pc_causal, gm_causal):
        rng = np.random.default_rng(123)
        for causal in (pc_causal, gm_causal):
            for trial in range(10):
                mem = refine_memory(causal, random_kernel(causal, rng, f"r{trial}"))
                report = check_prescience(
                    mem.machine, mem.causal_map, causal, L=5
                )
                assert report.ok, report


class TestPrescienceCheck:
    def test_identity_map_exact(self, gm_causal):
        mem = causal_memory(gm_causal)
        report = check_prescience(mem.machine, mem.causal_map, gm_causal, L=4)
        assert report.ok and report.max_deviation == 0.0

    def test_last_two_memory_by_enumeration(self, pc_memories, pc_causal):
        mem = pc_memories["last-two"]
        report = check_prescience(mem.machine, mem.causal_map, pc_causal, L=3)
        assert report.ok
        # oracle: explicit depth-3 word enumeration per sub-state
        for u in mem.machine.states:
            got = brute_word_distribution(mem.machine, u, 3)
            want = brute_word_distribution(pc_causal.machine, mem.causal_map[u], 3)
            assert total_variation(got, want) < 1e-12

    def test_merged_golden_mean_fails(self, gm_causal):
        merged = validate_machine(
            MachineSpec(
                alphabet=Alphabet(("0", "1")),
                states=("M",),
                transitions=(
                    Transition("M", "1", 2.0 / 3.0, "M"),
                    Transition("M", "0", 1.0 / 3.0, "M"),
                ),
            )
        )
        report = check_prescience(merged, {"M": "B"}, gm_causal, L=1)
        assert not report.ok
        # B forbids "0"; the merged state emits it with probability 1/3
        assert report.max_deviation >= 1.0 / 3.0 - 1e-12


class TestDeterminismCheck:
    @pytest.mark.parametrize("fixture", ["pc_causal", "gm_causal", "p2_causal", "fc_causal"])
    def test_causal_machines_deterministic(self, fixture, request):
        mem = causal_memory(request.getfixturevalue(fixture))
        for k in (1, 2, 3):
            assert check_determinism(mem, k)

    def test_stochastic_split_residual_is_one_bit(self, pc_memories):
        for k in (1, 2, 3):
            result = check_determinism(pc_memories["split50"], k)
            assert not result.ok
            assert result.residual == pytest.approx(1.0, abs=1e-9)

    def test_last_two_memory_deterministic(self, pc_memories):
        assert check_determinism(pc_memories["last-two"], 2)


class TestSynchronization:
    def test_pc_synchronizes_immediately(self, pc_memories):
        profile = synchronization_profile(pc_memories["causal"], 4)
        assert profile.residual(1) < 1e-9
        assert profile.sync_at == 1

    def test_p2_synchronizes_immediately(self, p2_causal):
        profile = synchronization_profile(causal_memory(p2_causal), 4)
        assert profile.residual(1) < 1e-9

    def test_matches_bayes_oracle(self, gm_causal, even):
        profile = synchronization_profile(causal_memory(gm_causal), 4)
        for L, residual in profile.entries:
            assert residual == pytest.approx(
                bayes_sync_residual(gm_causal.machine, L), abs=1e-10
            )
        # the even process synchronizes only asymptotically: the all-ones
        # past never pins the state exactly, so every residual is positive
        profile = synchronization_profile(even, 6)
        for L, residual in profile.entries:
            assert residual == pytest.approx(bayes_sync_residual(even, L), abs=1e-10)
            assert residual > 0.0

    def test_non_increasing(self, even, pc_memories):
        for target in (even, pc_memories["split50"]):
            profile = synchronization_profile(target, 6)
            values = [v for _, v in profile.entries]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_single_pass_equals_per_length_tables(self, even):
        # a non-unifilar 3-symbol machine: positive residuals at every depth
        rng = np.random.default_rng(5)
        states, symbols = ("a", "b", "c", "d"), ("0", "1", "2")
        transitions = [
            Transition(s, x, float(p), t)
            for s in states
            for (x, t), p in zip(
                [(x, t) for x in symbols for t in states], rng.dirichlet(np.ones(12))
            )
        ]
        random3 = validate_machine(MachineSpec(Alphabet(symbols), states, tuple(transitions)))
        for machine, depth in ((even, 16), (random3, 10)):
            profile = synchronization_profile(machine, depth)
            assert len(profile.entries) == depth
            for L, residual in profile.entries:
                joint = machine.word_state_vectors(L)
                per_length = entropy_bits(joint) - entropy_bits(joint.sum(axis=1))
                assert residual == max(per_length, 0.0)

    def test_budget_refusal_at_same_depth(self, even):
        assert len(synchronization_profile(even, 5, block_budget=2**5).entries) == 5
        with pytest.raises(BlockTooLargeError, match=r"2\^6 = 64 words"):
            synchronization_profile(even, 6, block_budget=2**5)

    def test_unsynchronized_memory_reported(self, pc_memories):
        # the injected split bit is invisible to the past
        profile = synchronization_profile(pc_memories["split50"], 5)
        assert profile.sync_at is None
        assert all(v >= 1.0 - 1e-9 for _, v in profile.entries)


class TestRefinementInvariants:
    @pytest.mark.parametrize("name", ["causal", "last-two", "split50"])
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_prediction_identical_across_memories(
        self, name, k, pc_memories, pc_causal
    ):
        mem = pc_memories[name]
        joint = joint_block_distribution(mem.machine, k)
        h_mem = conditional_entropy(joint, "word", "state_in")
        base_joint = joint_block_distribution(pc_causal.machine, k)
        h_causal = conditional_entropy(base_joint, "word", "state_in")
        assert abs(h_mem - h_causal) < 1e-12

    @pytest.mark.parametrize("name", ["last-two", "split50"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_retrodiction_bound(self, name, k, pc_memories, pc_causal):
        mem = pc_memories[name]
        joint = joint_block_distribution(mem.machine, k)
        h_mem = conditional_entropy(joint, "word", "state_out")
        base_joint = joint_block_distribution(pc_causal.machine, k)
        h_causal = conditional_entropy(base_joint, "word", "state_out")
        assert h_mem <= h_causal + 1e-12

    def test_memory_entropy_at_least_complexity(self, pc_memories, pc_causal):
        for mem in pc_memories.values():
            assert mem.memory_entropy() >= pc_causal.complexity - 1e-12


KERNEL_JSON = {
    "kind": "kernel",
    "name": "last-two",
    "sub_states": {"L": ["LL", "RL"], "R": ["LR", "RR"]},
    "rules": [
        {"target": "L", "source_class": "L", "p": {"LL": 1.0}},
        {"target": "L", "source_class": "R", "p": {"RL": 1.0}},
        {"target": "R", "source_class": "L", "p": {"LR": 1.0}},
        {"target": "R", "source_class": "R", "p": {"RR": 1.0}},
    ],
}


class TestMemoryFiles:
    def test_kernel_file_round_trip(self, tmp_path, pc_causal):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(KERNEL_JSON))
        mem = load_memory_file(path, pc_causal)
        assert mem.memory_id == "last-two"
        assert mem.memory_entropy() == pytest.approx(1.0 + HB9, abs=1e-12)

    def test_kernel_unknown_field_rejected(self, pc_causal):
        with pytest.raises(KernelError, match="mystery"):
            parse_kernel(dict(KERNEL_JSON, mystery=1))

    def test_explicit_memory_machine_accepted(self, tmp_path, pc_causal, pc_memories):
        data = {
            "kind": "machine",
            "name": "explicit-last-two",
            "machine": machine_to_dict(pc_memories["last-two"].machine),
            "causal_map": dict(pc_memories["last-two"].causal_map),
        }
        path = tmp_path / "mem.json"
        path.write_text(json.dumps(data))
        mem = load_memory_file(path, pc_causal)
        assert mem.memory_id == "explicit-last-two"
        assert mem.memory_entropy() == pytest.approx(1.0 + HB9, abs=1e-12)

    def test_non_prescient_memory_machine_rejected(self, tmp_path, pc_causal):
        data = {
            "kind": "machine",
            "machine": {
                "alphabet": ["L", "R"],
                "states": ["M"],
                "transitions": [
                    {"from": "M", "symbol": "L", "p": 0.5, "to": "M"},
                    {"from": "M", "symbol": "R", "p": 0.5, "to": "M"},
                ],
            },
            "causal_map": {"M": "L"},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(PrescienceViolationError):
            load_memory_file(path, pc_causal)
