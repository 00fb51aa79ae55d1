import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pattherm import (
    Alphabet,
    BlockTooLargeError,
    DisconnectedError,
    EmptyAlphabetError,
    MachineSpec,
    MachineSpecError,
    RowSumError,
    Transition,
    joint_block_distribution,
    load_machine_file,
    machine_to_dict,
    parse_machine,
    sample_path,
    save_machine_file,
    stationary_distribution,
    validate_machine,
)
from pattherm.machines import golden_mean, perturbed_coin
from pattherm.process_model import _recurrent_classes

from .oracles import bfs_recurrent_classes, power_stationary


class TestValidation:
    def test_perturbed_coin_fixture_is_valid_and_unifilar(self, pc):
        assert pc.unifilar is True
        assert pc.states == ("L", "R")
        assert pc.transient_states == ()

    def test_row_sum_error_names_state(self):
        spec = MachineSpec(
            alphabet=Alphabet(("a", "b")),
            states=("s",),
            transitions=(
                Transition("s", "a", 0.9, "s"),
                Transition("s", "b", 0.05, "s"),
            ),
        )
        with pytest.raises(RowSumError, match="'s'"):
            validate_machine(spec)

    def test_two_edges_same_symbol_is_non_unifilar(self):
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
        assert m.unifilar is False

    def test_declared_unifilar_flag_is_verified(self):
        spec = MachineSpec(
            alphabet=Alphabet(("a", "b")),
            states=("s",),
            transitions=(
                Transition("s", "a", 0.5, "s"),
                Transition("s", "b", 0.5, "s"),
            ),
            unifilar=False,
        )
        with pytest.raises(MachineSpecError, match="unifilar"):
            validate_machine(spec)

    def test_empty_alphabet(self):
        with pytest.raises(EmptyAlphabetError):
            Alphabet(())

    def test_disconnected_chains_rejected(self):
        spec = MachineSpec(
            alphabet=Alphabet(("a",)),
            states=("s", "t"),
            transitions=(
                Transition("s", "a", 1.0, "s"),
                Transition("t", "a", 1.0, "t"),
            ),
        )
        with pytest.raises(DisconnectedError):
            validate_machine(spec)

    def test_transient_state_allowed_with_single_recurrent_class(self):
        spec = MachineSpec(
            alphabet=Alphabet(("a",)),
            states=("in", "loop"),
            transitions=(
                Transition("in", "a", 1.0, "loop"),
                Transition("loop", "a", 1.0, "loop"),
            ),
        )
        m = validate_machine(spec)
        assert m.transient_states == ("in",)
        pi = stationary_distribution(m)
        assert pi.probability("in") == 0.0

    def test_unknown_state_reference(self):
        spec = MachineSpec(
            alphabet=Alphabet(("a",)),
            states=("s",),
            transitions=(Transition("s", "a", 1.0, "ghost"),),
        )
        with pytest.raises(MachineSpecError, match="ghost"):
            validate_machine(spec)


class TestStationaryDistribution:
    def test_perturbed_coin_symmetric(self, pc):
        pi = stationary_distribution(pc)
        assert pi.probs == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_golden_mean_hand_solved(self, gm):
        # pi_A = pi_A/2 + pi_B, pi_B = pi_A/2, sum 1  =>  (2/3, 1/3)
        pi = stationary_distribution(gm)
        assert pi.probability("A") == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert pi.probability("B") == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_period_two_symmetric(self, p2):
        pi = stationary_distribution(p2)
        assert pi.probs == pytest.approx([0.5, 0.5], abs=1e-12)

    @pytest.mark.parametrize("fixture", ["pc", "gm", "p2", "even", "pc_redundant"])
    def test_matches_power_iteration(self, fixture, request):
        m = request.getfixturevalue(fixture)
        pi = stationary_distribution(m)
        oracle = power_stationary(m)
        for s in m.states:
            assert pi.probability(s) == pytest.approx(oracle[s], abs=1e-10)

    def test_fixed_point_identity(self, gm):
        pi = stationary_distribution(gm)
        assert pi.probs @ gm.state_matrix() == pytest.approx(pi.probs, abs=1e-12)


class TestJointBlockDistribution:
    def test_pc_k1_entry(self, pc):
        joint = joint_block_distribution(pc, 1)
        # stationary 0.5 into L times the 0.9 self-loop
        assert joint.probability("L", "L", "L") == pytest.approx(0.45, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_entries_sum_to_one(self, gm, k):
        joint = joint_block_distribution(gm, k)
        assert joint.table.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gm_forbidden_word(self, gm):
        joint = joint_block_distribution(gm, 2)
        idx = joint._word_index("00")
        assert joint.table.probs[:, idx, :].sum() == 0.0

    def test_marginals_equal_stationary(self, gm):
        joint = joint_block_distribution(gm, 3)
        pi = stationary_distribution(gm).probs
        assert joint.table.probs.sum(axis=(1, 2)) == pytest.approx(pi, abs=1e-12)
        assert joint.table.probs.sum(axis=(0, 1)) == pytest.approx(pi, abs=1e-12)

    def test_marginalizing_suffix_recovers_shorter_block(self, gm):
        k, j = 4, 2
        long = joint_block_distribution(gm, k)
        short = joint_block_distribution(gm, k - j)
        a = len(gm.alphabet)
        folded = long.table.probs.reshape(
            gm.n_states, a ** (k - j), a**j, gm.n_states
        ).sum(axis=(2, 3))
        assert folded == pytest.approx(short.table.probs.sum(axis=2), abs=1e-12)

    def test_unifilar_pair_determines_final_state(self, gm):
        joint = joint_block_distribution(gm, 3)
        support = joint.table.probs > 0.0  # (state_in, word, state_out)
        assert (support.sum(axis=2) <= 1).all()

    def test_block_budget_enforced(self, pc):
        with pytest.raises(BlockTooLargeError):
            joint_block_distribution(pc, 10, block_budget=2**9)

    def test_matches_brute_force_enumeration(self, gm):
        from .oracles import brute_joint

        joint = joint_block_distribution(gm, 3)
        oracle = brute_joint(gm, 3)
        for key, p in joint.entries():
            assert p == pytest.approx(oracle.get(key, 0.0), abs=1e-12)
        total = sum(oracle.values())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_stationarity_of_symbol_marginal(self, gm):
        # symbol distribution from pi equals the one after one propagation step
        j1 = joint_block_distribution(gm, 1)
        p_now = j1.word_probabilities()
        j2 = joint_block_distribution(gm, 2)
        a = len(gm.alphabet)
        p_shifted = j2.table.probs.sum(axis=(0, 2)).reshape(a, a).sum(axis=0)
        assert p_now == pytest.approx(p_shifted, abs=1e-12)


class TestSamplePath:
    def test_period_two_alternates(self, p2):
        _, symbols = sample_path(p2, seed=3, n=6)
        assert "".join(symbols) in ("010101", "101010")

    def test_seed_reproducibility(self, pc):
        a = sample_path(pc, seed=11, n=500)
        b = sample_path(pc, seed=11, n=500)
        assert a == b

    def test_states_align_with_symbols(self, gm):
        states, symbols = sample_path(gm, seed=5, n=200)
        assert len(states) == 201 and len(symbols) == 200
        for s, x, t in zip(states, symbols, states[1:]):
            assert gm.successor(s, x) == t

    def test_pc_repeat_frequency(self, pc):
        _, symbols = sample_path(pc, seed=1, n=100_000)
        repeats = sum(a == b for a, b in zip(symbols, symbols[1:]))
        assert repeats / (len(symbols) - 1) == pytest.approx(0.9, abs=0.01)

    def test_block_frequencies_match_joint_marginal(self, gm):
        from scipy.stats import chisquare

        _, symbols = sample_path(gm, seed=9, n=100_000)
        joint = joint_block_distribution(gm, 3)
        expected_p = joint.word_probabilities()
        words = ["".join(symbols[i : i + 3]) for i in range(0, len(symbols) - 2, 3)]
        labels = [joint.word(w) for w in range(joint.table.probs.shape[1])]
        counts = np.array([words.count(w) for w in labels], dtype=float)
        keep = expected_p > 0.0
        assert counts[~keep].sum() == 0
        result = chisquare(counts[keep], expected_p[keep] * counts.sum())
        assert result.pvalue > 1e-3


MACHINE_JSON = {
    "alphabet": ["0", "1"],
    "states": ["A", "B"],
    "transitions": [
        {"from": "A", "symbol": "1", "p": 0.5, "to": "A"},
        {"from": "A", "symbol": "0", "p": 0.5, "to": "B"},
        {"from": "B", "symbol": "1", "p": 1.0, "to": "A"},
    ],
}


class TestMachineFiles:
    def test_parse_golden_mean(self):
        spec = parse_machine(MACHINE_JSON)
        m = validate_machine(spec)
        assert m.states == ("A", "B")

    def test_unknown_top_level_field_rejected(self):
        bad = dict(MACHINE_JSON, comment="hi")
        with pytest.raises(MachineSpecError, match="comment"):
            parse_machine(bad)

    def test_unknown_transition_field_rejected(self):
        bad = json.loads(json.dumps(MACHINE_JSON))
        bad["transitions"][0]["weight"] = 2
        with pytest.raises(MachineSpecError, match="weight"):
            parse_machine(bad)

    def test_default_distribution_parsed_and_validated(self):
        data = dict(MACHINE_JSON, default_distribution={"0": 0.25, "1": 0.75})
        m = validate_machine(parse_machine(data))
        assert m.default_distribution.probability("1") == 0.75
        bad = dict(MACHINE_JSON, default_distribution={"0": 0.5, "1": 0.75})
        with pytest.raises(MachineSpecError):
            parse_machine(bad)

    def test_round_trip(self, tmp_path, gm):
        path = tmp_path / "gm.json"
        save_machine_file(gm, path)
        again = validate_machine(load_machine_file(path))
        assert again.states == gm.states
        assert machine_to_dict(again) == machine_to_dict(gm)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "alphabet": [,\n}')
        with pytest.raises(MachineSpecError, match="line 2"):
            load_machine_file(path)


@st.composite
def random_unifilar_machine(draw):
    n = draw(st.integers(1, 4))
    a = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    states = tuple(f"s{i}" for i in range(n))
    symbols = tuple(str(x) for x in range(a))
    transitions = []
    for i in range(n):
        emitted = rng.dirichlet(np.ones(a))
        targets = rng.integers(0, n, size=a)
        # force a cycle through all states so one recurrent class is likely
        targets[0] = (i + 1) % n
        for x in range(a):
            if emitted[x] > 0.0:
                transitions.append(
                    Transition(states[i], symbols[x], float(emitted[x]), states[int(targets[x])])
                )
    return MachineSpec(Alphabet(symbols), states, tuple(transitions))


class TestRandomMachineProperties:
    @given(random_unifilar_machine())
    @settings(max_examples=40, deadline=None)
    def test_joint_block_marginals(self, spec):
        try:
            m = validate_machine(spec)
        except DisconnectedError:
            return
        joint = joint_block_distribution(m, 2)
        pi = stationary_distribution(m).probs
        assert joint.table.probs.sum() == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(joint.table.probs.sum(axis=(1, 2)), pi, atol=1e-10)
        np.testing.assert_allclose(joint.table.probs.sum(axis=(0, 1)), pi, atol=1e-10)


@st.composite
def random_graph(draw):
    n = draw(st.integers(1, 30))
    density = draw(st.sampled_from([0.02, 0.05, 0.1, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((n, n)) < density


# two closed 2-cycles fed by a source state with no in-edges
TWO_CLASSES_AND_A_SOURCE = np.array(
    [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [1, 0, 1, 0, 0]],
    dtype=bool,
)


@given(random_graph())
@example(TWO_CLASSES_AND_A_SOURCE)
@settings(max_examples=150, deadline=None)
def test_recurrent_classes_match_bfs_oracle(adjacency):
    classes = _recurrent_classes(adjacency)
    expected_classes, expected_transient = bfs_recurrent_classes(adjacency.tolist())
    assert {frozenset(c) for c in classes} == expected_classes
    assert len(classes) == len(expected_classes)
    recurrent = set().union(*classes)
    assert set(range(len(adjacency))) - recurrent == expected_transient


def test_builders_match_documented_parameters():
    pc = validate_machine(perturbed_coin(0.8))
    assert pc.emission_matrix()[0] == pytest.approx([0.8, 0.2])
    gm = validate_machine(golden_mean())
    assert gm.successor("B", "1") == "A"
