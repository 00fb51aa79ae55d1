"""Builders for the reference processes used throughout the test suite.

Each function returns an unvalidated MachineSpec; pass it through
validate_machine to obtain a handle.
"""

from __future__ import annotations

from .process_model import Alphabet, MachineSpec, Transition


def fair_coin() -> MachineSpec:
    """Single-state i.i.d. uniform binary process."""
    return MachineSpec(
        alphabet=Alphabet(("0", "1")),
        states=("S",),
        transitions=(
            Transition("S", "0", 0.5, "S"),
            Transition("S", "1", 0.5, "S"),
        ),
    )


def perturbed_coin(p: float = 0.9) -> MachineSpec:
    """Binary process that repeats its previous symbol with probability p."""
    return MachineSpec(
        alphabet=Alphabet(("L", "R")),
        states=("L", "R"),
        transitions=(
            Transition("L", "L", p, "L"),
            Transition("L", "R", 1.0 - p, "R"),
            Transition("R", "R", p, "R"),
            Transition("R", "L", 1.0 - p, "L"),
        ),
    )


def period_two() -> MachineSpec:
    """Deterministic alternation 0101... with a random phase."""
    return MachineSpec(
        alphabet=Alphabet(("0", "1")),
        states=("E", "O"),
        transitions=(
            Transition("E", "0", 1.0, "O"),
            Transition("O", "1", 1.0, "E"),
        ),
    )


def golden_mean() -> MachineSpec:
    """Binary process with no two consecutive 0s."""
    return MachineSpec(
        alphabet=Alphabet(("0", "1")),
        states=("A", "B"),
        transitions=(
            Transition("A", "1", 0.5, "A"),
            Transition("A", "0", 0.5, "B"),
            Transition("B", "1", 1.0, "A"),
        ),
    )


def even_process() -> MachineSpec:
    """Binary process whose blocks of 1s all have even length."""
    return MachineSpec(
        alphabet=Alphabet(("0", "1")),
        states=("A", "B"),
        transitions=(
            Transition("A", "0", 0.5, "A"),
            Transition("A", "1", 0.5, "B"),
            Transition("B", "1", 1.0, "A"),
        ),
    )


def redundant_perturbed_coin(p: float = 0.9) -> MachineSpec:
    """Four-state presentation of the perturbed coin remembering two symbols.

    States are labelled prev+last; only the last symbol affects the future,
    so this minimizes to the two-state perturbed coin.
    """
    repeat = {"L": {"L": p, "R": 1.0 - p}, "R": {"R": p, "L": 1.0 - p}}
    states = ("LL", "RL", "LR", "RR")
    transitions = []
    for prev in "LR":
        for last in "LR":
            for sym, prob in repeat[last].items():
                transitions.append(Transition(prev + last, sym, prob, last + sym))
    return MachineSpec(
        alphabet=Alphabet(("L", "R")),
        states=states,
        transitions=tuple(transitions),
    )


def redundant_fair_coin() -> MachineSpec:
    """Two-state presentation of the fair coin (states track the last bit)."""
    transitions = []
    for s in ("S0", "S1"):
        transitions.append(Transition(s, "0", 0.5, "S0"))
        transitions.append(Transition(s, "1", 0.5, "S1"))
    return MachineSpec(
        alphabet=Alphabet(("0", "1")),
        states=("S0", "S1"),
        transitions=tuple(transitions),
    )

