import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    identity_kernel,
    joint_block_distribution,
    minimize_to_causal,
    parity_kernel,
    prescience_gap,
    previous_state_kernel,
    random_kernel,
    refine_memory,
    stochastic_split_kernel,
    synchronization_profile,
    validate_machine,
)
from pattherm.causal_structure import (
    FUTURE_TOL,
    _require_prescient,
    load_memory_file,
    parse_kernel,
    parse_memory_machine,
)
from pattherm.cli import main
from pattherm.info_measures import entropy_bits
from pattherm.process_model import machine_to_dict

from .oracles import (
    bayes_sync_residual,
    binary_entropy,
    brute_word_distribution,
    edges,
    moore_partition,
    total_variation,
)
from .test_cli import MACHINES

HB9 = binary_entropy(0.9)


def cycle_machine(pattern: str, prefix: str = "Q"):
    """The period-len(pattern) cycle: state i emits pattern[i] and moves on."""
    states = tuple(f"{prefix}{i}" for i in range(len(pattern)))
    transitions = tuple(
        Transition(s, x, 1.0, states[(i + 1) % len(states)])
        for i, (s, x) in enumerate(zip(states, pattern))
    )
    return validate_machine(MachineSpec(Alphabet(("0", "1")), states, transitions))


def machine(states, transitions, symbols=("0", "1")):
    """A machine from (from, symbol, p, to) tuples."""
    return validate_machine(MachineSpec(
        Alphabet(symbols), tuple(states), tuple(Transition(*t) for t in transitions)
    ))


def rare_turn_machine(eps=1e-10):
    """X and X' both mostly emit 0, and after a rare 1 their futures part:
    X's goes on with 0, X''s with 1. Every word is about as likely (within
    eps) from X as from X'."""
    return machine(("X", "Y", "X'", "Y'"), [
        ("X", "0", 1 - eps, "X"), ("X", "1", eps, "Y"), ("Y", "0", 1.0, "X'"),
        ("X'", "0", 1 - eps, "X'"), ("X'", "1", eps, "Y'"), ("Y'", "1", 1.0, "X"),
    ])


def countdown_machine(n=40):
    """s_i emits 0 and moves to s_(i+1), or 1 and resets to s_0, each with
    probability 1/2; only s_(n-1) emits 1 with 1/3. s_i and s_j (i < j)
    first differ after n - 1 - j zeros, a word of probability
    2^-(n-1-j): at n = 40 the states before about s_12 differ only on
    words rarer than FUTURE_TOL."""
    return machine([f"s{i}" for i in range(n)], [
        t for i in range(n) for p in [1 / 3 if i == n - 1 else 1 / 2] for t in (
            (f"s{i}", "0", 1 - p, f"s{(i + 1) % n}"), (f"s{i}", "1", p, "s0"),
        )
    ])


@st.composite
def coarse_unifilar(draw, max_states=6, rare=False):
    """Unifilar and strongly connected, with transition probabilities from
    a coarse grid, so that states with equal emissions but different
    futures are common. With `rare`, some edges get weight 1e-10 instead,
    so that futures can differ only on words rarer than FUTURE_TOL."""
    n = draw(st.integers(1, max_states))
    a = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transitions = []
    for i in range(n):
        emitted = rng.permutation(a)[: rng.integers(1, a + 1)]
        weights = rng.choice([1.0, 2.0, 1e-10] if rare else [1.0, 2.0], size=len(emitted))
        targets = rng.integers(0, n, size=len(emitted))
        targets[0] = (i + 1) % n  # a cycle through every state
        for x, w, j in zip(emitted, weights, targets):
            transitions.append(Transition(f"s{i}", str(x), w / weights.sum(), f"s{j}"))
    symbols = tuple(str(x) for x in range(a))
    states = tuple(f"s{i}" for i in range(n))
    return validate_machine(MachineSpec(Alphabet(symbols), states, tuple(transitions)))


cycles = st.text(alphabet="01", min_size=1, max_size=9).map(cycle_machine)


@st.composite
def with_redundant_copies(draw, machines):
    """Copies of random states: each copy has its original's out-edges and
    takes over some of its in-edges. The states are then shuffled."""
    m = draw(machines)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = list(m.states)
    transitions = edges(m)
    for _ in range(draw(st.integers(0, 3))):
        s = states[rng.integers(len(states))]
        copy = f"c{len(states)}"
        transitions = [
            tr._replace(to=copy) if tr.to == s and rng.random() < 0.5 else tr
            for tr in transitions
        ] + [tr._replace(frm=copy) for tr in transitions if tr.frm == s]
        states.append(copy)
    shuffled = tuple(states[i] for i in rng.permutation(len(states)))
    return validate_machine(MachineSpec(m.alphabet, shuffled, tuple(transitions)))


def period_seven_witness():
    """(memory, causal map, base): the period-7 cycle read as the period-6
    one, P0, P1, P2 -> Q0, then P3..P6 -> Q2..Q5. Every word up to
    length 4 gets its class's probability."""
    causal_map = {"P0": "Q0", "P1": "Q0", "P2": "Q0", "P3": "Q2", "P4": "Q3", "P5": "Q4",
                  "P6": "Q5"}
    base = minimize_to_causal(cycle_machine("000001"))
    return cycle_machine("0000001", prefix="P"), causal_map, base


class TestMinimization:
    def test_redundant_fair_coin_collapses(self, fc_redundant):
        c = minimize_to_causal(fc_redundant)
        assert c.machine.n_states == 1
        assert c.complexity == pytest.approx(0.0, abs=1e-12)
        assert set(c.projection.values()) == {"S0"}

    def test_redundant_perturbed_coin_two_states(self, pc_redundant):
        # by hand: {LL, RL} and {LR, RR} agree on emissions and successors
        c = minimize_to_causal(pc_redundant)
        assert c.machine.n_states == 2
        assert c.complexity == pytest.approx(1.0, abs=1e-9)
        assert c.projection["LL"] == c.projection["RL"]
        assert c.projection["LR"] == c.projection["RR"]
        assert c.projection["LL"] != c.projection["LR"]

    def test_golden_mean_already_minimal(self, gm):
        c = minimize_to_causal(gm)
        assert c.machine.n_states == 2
        assert c.complexity == pytest.approx(
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
        h_pres = entropy_bits(pc_redundant.stationary())
        assert c.complexity <= h_pres + 1e-12

    @given(with_redundant_copies(
        st.one_of(coarse_unifilar(), coarse_unifilar(rare=True), cycles)
    ))
    @example(cycle_machine("0000001"))
    @example(rare_turn_machine())
    @example(countdown_machine())
    # Y and Z differ only in Y's 1e-12 chance of emitting 1
    @example(machine("XYZW", [
        ("X", "0", 0.5, "Y"), ("X", "1", 0.5, "Z"), ("Y", "0", 1 - 1e-12, "X"),
        ("Y", "1", 1e-12, "W"), ("Z", "0", 1.0, "X"), ("W", "1", 1.0, "X"),
    ]))
    @settings(max_examples=120, deadline=None)
    def test_projection_matches_moore_oracle(self, m):
        assert minimize_to_causal(m).projection == moore_partition(m)


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

    def test_previous_state_kernel_on_state_without_in_edges(self):
        # S is entered from nowhere; A and B form the recurrent chain
        spec = MachineSpec(
            Alphabet(("0", "1")),
            ("S", "A", "B"),
            (
                Transition("S", "0", 0.5, "A"),
                Transition("S", "1", 0.5, "B"),
                Transition("A", "0", 1.0, "B"),
                Transition("B", "1", 1.0, "A"),
            ),
        )
        c = minimize_to_causal(validate_machine(spec))
        assert c.machine.transient_states == ("S",)
        kernel = previous_state_kernel(c)
        assert kernel.sub_states["S"] == ("S",)
        mem = refine_memory(c, kernel)
        assert prescience_gap(mem.machine, mem.causal_map, c) <= FUTURE_TOL

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
                gap = prescience_gap(mem.machine, mem.causal_map, causal)
                assert gap <= FUTURE_TOL, gap


class TestPrescienceCheck:
    def test_identity_map_exact(self, gm_causal):
        mem = causal_memory(gm_causal)
        assert prescience_gap(mem.machine, mem.causal_map, gm_causal) == 0.0

    def test_last_two_memory_by_enumeration(self, pc_memories, pc_causal):
        mem = pc_memories["last-two"]
        assert prescience_gap(mem.machine, mem.causal_map, pc_causal) <= FUTURE_TOL
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
        gap = prescience_gap(merged, {"M": "B"}, gm_causal)
        # B forbids "0"; the merged state emits it with probability 1/3
        assert gap >= 1.0 / 3.0 - 1e-12

    def test_period_seven_witness_rejected(self):
        # every state emits what its class emits, so the gap is 0; it agrees
        # with its classes on every word up to length 4, not on "00001", and
        # the edge check sees that at once
        memory, causal_map, base = period_seven_witness()
        assert prescience_gap(memory, causal_map, base) == 0.0
        data = {"machine": machine_to_dict(memory), "causal_map": causal_map}
        with pytest.raises(PrescienceViolationError, match="edge 'P0' --'0'--> 'P1'"):
            parse_memory_machine(data, base, "p7_as_p6")

    def test_period_seven_witness_exits_3(self, tmp_path, capsys):
        memory, causal_map, base = period_seven_witness()
        base_path = tmp_path / "p6.json"
        base_path.write_text(json.dumps(machine_to_dict(base.machine)))
        memory_path = tmp_path / "p7_as_p6.json"
        memory_path.write_text(json.dumps(
            {"kind": "machine", "machine": machine_to_dict(memory), "causal_map": causal_map}
        ))
        assert main(["costs", str(base_path), "--memory", str(memory_path), "-k", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_rare_turn_swap_exits_3(self, tmp_path, capsys):
        # swapping X and X' moves every word's probability by at most 1e-10,
        # under FUTURE_TOL, yet the edge Y -0-> X' lands in class X where
        # the base's 0-edge from Y goes to X'
        base = rare_turn_machine()
        swap = {"X": "X'", "X'": "X", "Y": "Y", "Y'": "Y'"}
        assert prescience_gap(base, swap, minimize_to_causal(base)) <= FUTURE_TOL
        base_path = tmp_path / "rare_turn.json"
        base_path.write_text(json.dumps(machine_to_dict(base)))
        memory_path = tmp_path / "swapped.json"
        memory_path.write_text(json.dumps(
            {"kind": "machine", "machine": machine_to_dict(base), "causal_map": swap}
        ))
        assert main(["costs", str(base_path), "--memory", str(memory_path), "-k", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: memory machine deviates from causal morphs: edge 'Y' --'0'--> \"X'\" "
            "lands in class 'X', not \"X'\"\n"
        )

    @given(
        st.one_of(coarse_unifilar(max_states=2), cycles),
        st.integers(0, 2**32 - 1),
        st.none() | st.tuples(st.integers(0, 8), st.integers(0, 8)),
    )
    # Q0 and Q1 emit alike and first differ on words of length 7; only
    # the edge check tells them apart
    @example(cycle_machine("00000001"), 0, (0, 1))
    @settings(max_examples=80, deadline=None)
    def test_gap_zero_iff_words_agree_to_tzeng_bound(self, m, seed, swap):
        """A random-kernel memory, and the same memory with two classes
        swapped in its causal map. Tzeng's bound: if every word up to
        length n_mem + n_base - 1 agrees, every word agrees. The library
        checks memories only against a causal base, so the base is
        minimized, and the full check (edges, then the gap) must accept
        exactly the maps under which those words agree."""
        base = minimize_to_causal(m)
        mem = refine_memory(base, random_kernel(base, np.random.default_rng(seed)))
        causal_map = dict(mem.causal_map)
        if swap is not None:
            states = base.machine.states
            a, b = (states[i % len(states)] for i in swap)
            causal_map = {u: {a: b, b: a}.get(s, s) for u, s in causal_map.items()}
        length = mem.machine.n_states + base.machine.n_states - 1
        deviation = 0.0
        for u in mem.machine.states:
            got = brute_word_distribution(mem.machine, u, length)
            want = brute_word_distribution(base.machine, causal_map[u], length)
            for w in set(got) | set(want):
                deviation = max(deviation, abs(got.get(w, 0.0) - want.get(w, 0.0)))
        try:
            _require_prescient(mem.machine, causal_map, base, "swapped memory")
            accepted = True
        except PrescienceViolationError:
            accepted = False
        assert accepted == (deviation <= FUTURE_TOL), deviation

    def test_rows_off_by_1e6_exit_3(self, pc_memories, tmp_path, capsys):
        # every edge of the split memory lands in the right class, but L~0
        # moves 1e-6 of its mass from R to L
        mem = pc_memories["split50"]
        data = machine_to_dict(mem.machine)
        for t in data["transitions"]:
            if (t["from"], t["symbol"], t["to"]) == ("L~0", "R", "R~0"):
                t["p"] -= 1e-6
            if (t["from"], t["symbol"], t["to"]) == ("L~0", "L", "L~0"):
                t["p"] += 1e-6
        memory_path = tmp_path / "split50_off.json"
        memory_path.write_text(json.dumps(
            {"kind": "machine", "machine": data, "causal_map": mem.causal_map}
        ))
        argv = ["costs", str(MACHINES / "pc09.json"), "--memory", str(memory_path), "-k", "1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: memory machine deviates from causal morphs by 1.000e-06\n"

    @given(
        coarse_unifilar(max_states=4),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 0.05),
    )
    @settings(max_examples=60, deadline=None)
    def test_word_deviation_within_length_times_gap(self, m, seed, eps):
        """A random-kernel memory whose next-symbol rows are moved off their
        classes' by up to eps, keeping every edge in its class: every word w
        deviates by at most |w| times the prescience gap."""
        base = minimize_to_causal(m)
        rng = np.random.default_rng(seed)
        mem = refine_memory(base, random_kernel(base, rng))
        E = mem.machine.emission_matrix()
        support = E > 0.0
        shift = np.where(support, rng.uniform(-eps, eps, E.shape), 0.0)
        shift -= support * shift.sum(axis=1, keepdims=True) / support.sum(axis=1, keepdims=True)
        scale = (E + shift) / np.where(support, E, 1.0)
        symbols, states = mem.machine.alphabet.symbols, mem.machine.states
        moved = validate_machine(MachineSpec(mem.machine.alphabet, states, tuple(
            tr._replace(p=tr.p * scale[states.index(tr.frm), symbols.index(tr.symbol)])
            for tr in edges(mem.machine)
        )))
        gap = prescience_gap(moved, mem.causal_map, base)
        for u in states:
            want = {w: p for L in range(1, 7) for w, p in brute_word_distribution(
                base.machine, mem.causal_map[u], L).items()}
            got = {w: p for L in range(1, 7) for w, p in brute_word_distribution(
                moved, u, L).items()}
            for w in set(got) | set(want):
                deviation = abs(got.get(w, 0.0) - want.get(w, 0.0))
                assert deviation <= len(w) * gap + 1e-12, (w, deviation, gap)


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

    def test_budget_refusal_at_same_depth(self, even, word_budget):
        word_budget(2**5)
        assert len(synchronization_profile(even, 5).entries) == 5
        with pytest.raises(BlockTooLargeError, match=r"2\^6 = 64 words"):
            synchronization_profile(even, 6)

    def test_unsynchronized_memory_reported(self, pc_memories):
        # the injected split bit is invisible to the past
        profile = synchronization_profile(pc_memories["split50"], 5)
        assert profile.sync_at is None
        assert all(v >= 1.0 - 1e-9 for _, v in profile.entries)


def word_given_state(joint, state: str) -> float:
    """H(W | state) = H(W, state) - H(state) of a block table."""
    return joint.table.entropy(("word", state)) - joint.table.entropy(state)


class TestRefinementInvariants:
    @pytest.mark.parametrize("name", ["causal", "last-two", "split50"])
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_prediction_identical_across_memories(
        self, name, k, pc_memories, pc_causal
    ):
        mem = pc_memories[name]
        h_mem = word_given_state(joint_block_distribution(mem.machine, k), "state_in")
        h_causal = word_given_state(joint_block_distribution(pc_causal.machine, k), "state_in")
        assert abs(h_mem - h_causal) < 1e-12

    @pytest.mark.parametrize("name", ["last-two", "split50"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_retrodiction_bound(self, name, k, pc_memories, pc_causal):
        mem = pc_memories[name]
        h_mem = word_given_state(joint_block_distribution(mem.machine, k), "state_out")
        h_causal = word_given_state(joint_block_distribution(pc_causal.machine, k), "state_out")
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
