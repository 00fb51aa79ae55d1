import math
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pattherm import (
    Alphabet,
    BlockTooLargeError,
    DistributionError,
    JointTable,
    MachineSpec,
    NonConvergedWarning,
    Transition,
    entropy_rate,
    excess_entropy,
    joint_block_distribution,
    validate_machine,
)
from pattherm.info_measures import _as_prob_array, entropy_bits

from .oracles import append_chain_excess_entropy, binary_entropy, brute_block_entropy
from .test_process_model import random_machine

HB9 = binary_entropy(0.9)  # 0.46899559358928117


class TestEntropy:
    def test_uniform_two_outcomes(self):
        assert entropy_bits(np.array([0.5, 0.5])) == 1.0

    def test_point_mass(self):
        assert entropy_bits(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_biased_coin_matches_closed_form(self):
        assert entropy_bits(np.array([0.9, 0.1])) == pytest.approx(HB9, abs=1e-12)
        assert round(HB9, 6) == 0.468996

    def test_bounded_by_log_of_support(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 8):
            p = rng.dirichlet(np.ones(n))
            h = entropy_bits(p)
            assert 0.0 <= h <= math.log2(n) + 1e-9

    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(DistributionError):
            _as_prob_array([0.7, -0.3, 0.6])
        with pytest.raises(DistributionError):
            _as_prob_array([0.7, 0.2])


def pair_table(probs):
    return JointTable(("x", "y"), np.asarray(probs))


class TestConditionalEntropy:
    """H(target | given) = H(target, given) - H(given)."""

    def test_independent_pair(self):
        # X uniform-2 independent of Y
        t = pair_table([[0.35, 0.15], [0.35, 0.15]])
        assert t.entropy() - t.entropy("y") == pytest.approx(1.0, abs=1e-12)

    def test_perfectly_correlated(self):
        t = pair_table([[0.5, 0.0], [0.0, 0.5]])
        assert t.entropy() - t.entropy("y") == pytest.approx(0.0, abs=1e-12)

    def test_pc_next_symbol_given_state(self, pc):
        t = joint_block_distribution(pc, 1).table
        h = t.entropy(("state_in", "word")) - t.entropy("state_in")
        assert h == pytest.approx(HB9, abs=1e-12)

    def test_unknown_axis(self):
        t = pair_table([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError):
            t.entropy(("z", "y"))


def mutual_information(t, a, b):
    """I(A;B) = H(A) + H(B) - H(A,B) for two disjoint axis groups."""
    return t.entropy(a) + t.entropy(b) - t.entropy(a + b)


class TestMutualInformation:
    def test_independent_groups(self):
        t = pair_table([[0.35, 0.15], [0.35, 0.15]])
        assert mutual_information(t, ("x",), ("y",)) == pytest.approx(0.0, abs=1e-12)

    def test_identical_binary(self):
        t = pair_table([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(t, ("x",), ("y",)) == pytest.approx(1.0, abs=1e-12)

    def test_pc_symbol_state_information(self, pc):
        t = joint_block_distribution(pc, 1).table
        i = mutual_information(t, ("word",), ("state_in",))
        assert i == pytest.approx(1.0 - HB9, abs=1e-12)
        assert round(1.0 - HB9, 6) == 0.531004

    def test_symmetry(self, gm):
        # a group's entropy does not depend on the order its axes are named in
        t = joint_block_distribution(gm, 2).table
        ab = mutual_information(t, ("word",), ("state_out",))
        ba = mutual_information(t, ("state_out",), ("word",))
        assert ab == ba

    def test_overlapping_groups_rejected(self):
        t = pair_table([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError):
            t.entropy(("x", "y", "y"))


@st.composite
def random_joint_3(draw):
    shape = draw(
        st.tuples(
            st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    return JointTable(("a", "b", "c"), p)


class TestMarginalEntropyMemo:
    def test_same_float_whatever_the_axis_order(self, gm):
        t = joint_block_distribution(gm, 3).table
        for size in (1, 2, 3):
            for names in permutations(t.axes, size):
                dropped = tuple(i for i, a in enumerate(t.axes) if a not in names)
                probs = t.probs.sum(axis=dropped) if dropped else t.probs
                assert t.entropy(names) == entropy_bits(probs)
        assert "_entropies" not in repr(t)


class TestEntropyCalculusProperties:
    @given(random_joint_3())
    @settings(max_examples=60, deadline=None)
    def test_chain_rule(self, t):
        # H(a, b) = H(a) + sum_a p(a) H(b | a), the conditional summed row by row
        pab = t.probs.sum(axis=2)
        pa = pab.sum(axis=1)
        h_b_given_a = sum(p * entropy_bits(row / p) for p, row in zip(pa, pab))
        assert abs(t.entropy(("a", "b")) - (t.entropy("a") + h_b_given_a)) < 1e-12

    @given(random_joint_3())
    @settings(max_examples=60, deadline=None)
    def test_mutual_information_bounds(self, t):
        i = mutual_information(t, ("a",), ("b",))
        assert i >= -1e-12
        assert i <= min(t.entropy("a"), t.entropy("b")) + 1e-12

    @given(random_joint_3())
    @settings(max_examples=60, deadline=None)
    def test_conditioning_never_increases_entropy(self, t):
        # H(a | b, c) <= H(a | b)
        assert (
            t.entropy() - t.entropy(("b", "c"))
            <= t.entropy(("a", "b")) - t.entropy("b") + 1e-12
        )


class TestEntropyRate:
    def test_perturbed_coin(self, pc):
        assert entropy_rate(pc) == pytest.approx(HB9, abs=1e-12)

    def test_period_two(self, p2):
        assert entropy_rate(p2) == 0.0

    def test_golden_mean(self, gm):
        # pi = (2/3, 1/3); only state A is uncertain, one bit at weight 2/3
        assert entropy_rate(gm) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_computed_on_minimized_presentation(self, pc_redundant, pc):
        assert entropy_rate(pc_redundant) == pytest.approx(entropy_rate(pc), abs=1e-12)

    @pytest.mark.parametrize("fixture", ["pc", "gm", "p2"])
    def test_matches_block_entropy_slope(self, fixture, request):
        m = request.getfixturevalue(fixture)
        h = entropy_rate(m)
        slope = brute_block_entropy(m, 8) - brute_block_entropy(m, 7)
        assert abs(slope - h) < 1e-9

    def test_requires_unifilar_presentation(self, pc_memories):
        from pattherm import UnifilarRequiredError

        stochastic = pc_memories["split50"].machine
        with pytest.raises(UnifilarRequiredError):
            entropy_rate(stochastic)


class TestExcessEntropy:
    def test_fair_coin_is_zero(self, fc):
        e = excess_entropy(fc)
        assert e.value == pytest.approx(0.0, abs=1e-12)
        assert e.converged

    def test_perturbed_coin(self, pc):
        e = excess_entropy(pc)
        assert e.value == pytest.approx(1.0 - HB9, abs=1e-12)
        assert e.converged and e.converged_at == 1

    def test_period_two_one_bit_of_phase(self, p2):
        e = excess_entropy(p2)
        assert e.value == pytest.approx(1.0, abs=1e-12)

    def test_golden_mean_against_brute_blocks(self, gm):
        expected = 2 * brute_block_entropy(gm, 3) - brute_block_entropy(gm, 6)
        e = excess_entropy(gm)
        assert e.value == pytest.approx(expected, abs=1e-9)

    def test_non_decreasing_in_L(self, gm, even):
        for m in (gm, even):
            with pytest.warns(NonConvergedWarning) if m is even else _nullcontext():
                e = excess_entropy(m, L_max=6, tol=1e-15)
            values = [v for _, v in e.history]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_budget_stops_with_warning(self, even, word_budget):
        word_budget(2**8)
        with pytest.warns(NonConvergedWarning):
            e = excess_entropy(even, L_max=12, tol=1e-15)
        assert not e.converged
        assert e.stopped_at == 4  # 2L = 8 is the last affordable block

    @pytest.mark.parametrize("case", ["gm", "even", "random20x2"])
    def test_history_is_the_block_entropy_scan(self, case, request, word_budget):
        # the incremental pass must give 2H(L) - H(2L) to the last bit and
        # stop where the per-L computation would be refused
        if case == "even":
            word_budget(2**8)
        m = request.getfixturevalue(case) if case != "random20x2" else _random_binary(20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergedWarning)
            e = excess_entropy(m)
        expected = tuple(
            (L, 2.0 * _block_entropy(m, L) - _block_entropy(m, 2 * L))
            for L in range(1, e.stopped_at + 1)
        )
        assert e.history == expected
        if not e.converged:
            with pytest.raises(BlockTooLargeError):
                m.check_budget(2 * (e.stopped_at + 1))

    def test_even_process_against_brute_blocks(self, even):
        with pytest.warns(NonConvergedWarning):
            e = excess_entropy(even, L_max=4, tol=1e-15)
        for L, value in e.history:
            expected = 2 * brute_block_entropy(even, L) - brute_block_entropy(even, 2 * L)
            assert value == pytest.approx(expected, abs=1e-12)
        assert e.stopped_at == 4

    @given(
        st.one_of(
            random_machine(), random_machine(sparse=True), random_machine(min_symbols=1)
        ),
        st.sampled_from([2**4, 2**7, 2**10, 2**16]),
        st.sampled_from([1e-9, 1e-6, 1e-3]),
    )
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_the_append_chain_oracle(self, word_budget, m, budget, tol):
        word_budget(budget)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergedWarning)
            e = excess_entropy(m, tol=tol)
        history, converged, stopped_at = append_chain_excess_entropy(m, tol=tol)
        for (L, value), (L_ref, ref) in zip(e.history, history):
            assert L == L_ref
            assert value == pytest.approx(ref, abs=1e-12)
        # a step within rounding of tol may stop one scan and not the other
        steps = [history[0][1]] + [abs(b - a) for (_, a), (_, b) in zip(history, history[1:])]
        if all(abs(step - tol) > 1e-12 for step in steps):
            assert (e.converged, e.stopped_at) == (converged, stopped_at)

    def test_peak_memory_stays_below_the_append_chain_table(self):
        import tracemalloc

        m = _random_binary(60)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonConvergedWarning)
                excess_entropy(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the append chain's last word-state table: 2^15 words x 60 states
        assert peak < 2**15 * 60 * 8 / 4, peak


def _block_entropy(m, L: int) -> float:
    """H(L) computed on its own, split at the middle: the length ceil(L/2)
    word-state table times the length floor(L/2) state-word table."""
    future = np.ones((m.n_states, 1))
    for _ in range(L // 2):
        future = m.prepend_symbols(future)
    return entropy_bits(m.word_state_vectors((L + 1) // 2) @ future)


def _random_binary(n: int):
    """A seeded n-state binary unifilar machine with a cycle through every state."""
    rng = np.random.default_rng(20151001)
    states = [f"s{i}" for i in range(n)]
    transitions = []
    for i in range(n):
        probs = rng.dirichlet(np.ones(2))
        targets = rng.integers(0, n, size=2)
        targets[0] = (i + 1) % n
        transitions += [
            Transition(states[i], str(x), float(probs[x]), states[int(targets[x])])
            for x in range(2)
        ]
    return validate_machine(
        MachineSpec(Alphabet(("0", "1")), tuple(states), tuple(transitions))
    )


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False
