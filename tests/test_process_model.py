import json
from pathlib import Path

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
    save_machine_file,
    stationary_distribution,
    validate_machine,
)
from pattherm.process_model import _draws, _recurrent_classes, _sampling_rows, _walk

from .oracles import (
    bfs_recurrent_classes,
    einsum_extend_words,
    einsum_joint_block,
    power_stationary,
    word_labels,
)


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
        assert pi[m.state_index("in")] == 0.0

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
        assert pi == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_golden_mean_hand_solved(self, gm):
        # pi_A = pi_A/2 + pi_B, pi_B = pi_A/2, sum 1  =>  (2/3, 1/3)
        pi = stationary_distribution(gm)
        assert pi[gm.state_index("A")] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert pi[gm.state_index("B")] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_period_two_symmetric(self, p2):
        pi = stationary_distribution(p2)
        assert pi == pytest.approx([0.5, 0.5], abs=1e-12)

    @pytest.mark.parametrize("fixture", ["pc", "gm", "p2", "even", "pc_redundant"])
    def test_matches_power_iteration(self, fixture, request):
        m = request.getfixturevalue(fixture)
        pi = stationary_distribution(m)
        oracle = power_stationary(m)
        for i, s in enumerate(m.states):
            assert pi[i] == pytest.approx(oracle[s], abs=1e-10)

    def test_fixed_point_identity(self, gm):
        pi = stationary_distribution(gm)
        assert pi @ gm.state_matrix() == pytest.approx(pi, abs=1e-12)


class TestJointBlockDistribution:
    def test_pc_k1_entry(self, pc):
        joint = joint_block_distribution(pc, 1)
        L, x = pc.state_index("L"), pc.alphabet.index("L")
        # stationary 0.5 into L times the 0.9 self-loop
        assert joint.table.probs[L, x, L] == pytest.approx(0.45, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_entries_sum_to_one(self, gm, k):
        joint = joint_block_distribution(gm, k)
        assert joint.table.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gm_forbidden_word(self, gm):
        joint = joint_block_distribution(gm, 2)
        idx = word_labels(gm.alphabet.symbols, 2).index("00")
        assert joint.table.probs[:, idx, :].sum() == 0.0

    def test_marginals_equal_stationary(self, gm):
        joint = joint_block_distribution(gm, 3)
        pi = stationary_distribution(gm)
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

    def test_block_budget_enforced(self, pc, word_budget):
        word_budget(2**9)
        with pytest.raises(BlockTooLargeError):
            joint_block_distribution(pc, 10)

    def test_matches_brute_force_enumeration(self, gm):
        from .oracles import brute_joint

        probs = joint_block_distribution(gm, 3).table.probs
        oracle = brute_joint(gm, 3)
        words = word_labels(gm.alphabet.symbols, 3)
        for i, w, j in np.ndindex(probs.shape):
            key = (gm.states[i], words[w], gm.states[j])
            assert probs[i, w, j] == pytest.approx(oracle.get(key, 0.0), abs=1e-12)
        total = sum(oracle.values())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_stationarity_of_symbol_marginal(self, gm):
        # symbol distribution from pi equals the one after one propagation step
        j1 = joint_block_distribution(gm, 1)
        p_now = j1.table.probs.sum(axis=(0, 2))
        j2 = joint_block_distribution(gm, 2)
        a = len(gm.alphabet)
        p_shifted = j2.table.probs.sum(axis=(0, 2)).reshape(a, a).sum(axis=0)
        assert p_now == pytest.approx(p_shifted, abs=1e-12)


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
        assert m.default_distribution.probs.tolist() == [0.25, 0.75]
        bad = dict(MACHINE_JSON, default_distribution={"0": 0.5, "1": 0.75})
        with pytest.raises(MachineSpecError):
            parse_machine(bad)

    def test_tensor_holds_exactly_the_file_edges(self):
        """Every shipped and benchmark pattern file: the edges machine_to_dict
        reads back from the symbol tensor are the file's positive edges."""
        root = Path(__file__).resolve().parent.parent
        paths = sorted([*(root / "machines").rglob("*.json"),
                        *(root / "perfbench" / "inputs").rglob("*.json")])
        checked = 0
        for path in paths:
            data = json.loads(path.read_text())
            if "transitions" not in data:
                continue  # a kernel or memory file
            m = validate_machine(parse_machine(data))
            got = {(t["from"], t["symbol"], t["p"], t["to"])
                   for t in machine_to_dict(m)["transitions"]}
            want = {(t["from"], t["symbol"], t["p"], t["to"])
                    for t in data["transitions"] if t["p"] > 0.0}
            assert got == want, path
            checked += 1
        assert checked > 0

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
        pi = stationary_distribution(m)
        assert joint.table.probs.sum() == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(joint.table.probs.sum(axis=(1, 2)), pi, atol=1e-10)
        np.testing.assert_allclose(joint.table.probs.sum(axis=(0, 1)), pi, atol=1e-10)


@st.composite
def random_machine(draw, sparse=False, min_symbols=2):
    """Up to 12 states and `min_symbols`-4 symbols, unifilar or not,
    strongly connected.

    With `sparse`, each state emits a random nonempty subset of the
    alphabet, so rows have zero columns and some symbols are forbidden.
    """
    n = draw(st.integers(1, 12))
    a = draw(st.integers(min_symbols, 4))
    unifilar = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.zeros((n, a, n))
    for i in range(n):
        emitted = rng.permutation(a)[: rng.integers(1, a + 1)] if sparse else np.arange(a)
        targets = rng.integers(0, n, size=len(emitted))
        targets[0] = (i + 1) % n  # a cycle through every state
        if not unifilar:
            weights[i, emitted] = rng.random((len(emitted), n)) < rng.uniform(0.1, 0.6)
        weights[i, emitted, targets] = 1.0
        weights[i] *= rng.dirichlet(np.ones(a * n)).reshape(a, n)
        weights[i] /= weights[i].sum()
    states = tuple(f"s{i}" for i in range(n))
    symbols = tuple(str(x) for x in range(a))
    transitions = tuple(
        Transition(states[i], symbols[x], float(weights[i, x, j]), states[j])
        for i, x, j in zip(*np.nonzero(weights))
    )
    return validate_machine(MachineSpec(Alphabet(symbols), states, transitions))


@given(random_machine(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_matmul_kernels_match_einsum_oracles(m, length):
    T = m.symbol_matrices()
    vec = np.random.default_rng(length).random((5, m.n_states))
    np.testing.assert_allclose(
        m.extend_words(vec), einsum_extend_words(T, vec), rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(
        joint_block_distribution(m, length).table.probs,
        einsum_joint_block(T, m.stationary(), length),
        rtol=0,
        atol=1e-14,
    )


@pytest.mark.parametrize("scale", [1.0, 1e-320])
def test_draw_at_top_of_unit_interval_takes_last_positive_column(scale):
    # u * total rounds up to total when total is subnormal, and bisect_right
    # then points one past the last positive column
    row = np.array([0.25, 0.0, 0.75, 0.0]) * scale
    rows = _sampling_rows(np.tile(row, (4, 1)))
    u = float(np.nextafter(1.0, 0.0))
    assert _walk(rows, rows[0], [u, u]) == [2, 2]
    assert _draws(row, [u]) == [2]


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


def test_machine_files_match_documented_parameters(pc, gm):
    # pc09.json repeats its last symbol with probability 0.9; gm.json
    # forbids 00, so B (just read a 0) must read a 1 and return to A
    assert pc.emission_matrix().tolist() == [[0.9, 0.1], [0.1, 0.9]]
    assert gm.successors()[gm.state_index("B")].tolist() == [-1, gm.state_index("A")]
