from pathlib import Path

import pytest

from pattherm import (
    causal_memory,
    load_machine_file,
    minimize_to_causal,
    parity_kernel,
    parse_machine,
    previous_state_kernel,
    refine_memory,
    stochastic_split_kernel,
    validate_machine,
)

MACHINES = Path(__file__).resolve().parent.parent / "machines"


def load(name):
    """The validated machine of machines/<name>.json."""
    return validate_machine(load_machine_file(MACHINES / f"{name}.json"))


@pytest.fixture(scope="session")
def fc():
    return load("fc")


@pytest.fixture(scope="session")
def pc():
    return load("pc09")


@pytest.fixture(scope="session")
def p2():
    return load("p2")


@pytest.fixture(scope="session")
def gm():
    return load("gm")


@pytest.fixture(scope="session")
def even():
    return load("even")


@pytest.fixture(scope="session")
def pc_redundant():
    return load("pc09_redundant")


@pytest.fixture(scope="session")
def fc_redundant():
    """The fair coin presented with two states that track the last bit."""
    return validate_machine(parse_machine({
        "alphabet": ["0", "1"],
        "states": ["S0", "S1"],
        "transitions": [
            {"from": s, "symbol": x, "p": 0.5, "to": f"S{x}"}
            for s in ("S0", "S1") for x in ("0", "1")
        ],
    }))


@pytest.fixture(scope="session")
def pc_causal(pc):
    return minimize_to_causal(pc)


@pytest.fixture(scope="session")
def gm_causal(gm):
    return minimize_to_causal(gm)


@pytest.fixture(scope="session")
def p2_causal(p2):
    return minimize_to_causal(p2)


@pytest.fixture(scope="session")
def fc_causal(fc):
    return minimize_to_causal(fc)


@pytest.fixture(scope="session")
def pc_memories(pc_causal):
    """Causal, deterministic last-two, and stochastic 50/50 memories for PC."""
    return {
        "causal": causal_memory(pc_causal),
        "last-two": refine_memory(pc_causal, previous_state_kernel(pc_causal)),
        "split50": refine_memory(pc_causal, stochastic_split_kernel(pc_causal)),
    }


@pytest.fixture(scope="session")
def pc_parity(pc_causal):
    return refine_memory(pc_causal, parity_kernel(pc_causal))


def memory_suite(causal):
    """The three standard memories for a causal machine."""
    return {
        "causal": causal_memory(causal),
        "last-two": refine_memory(causal, previous_state_kernel(causal)),
        "split50": refine_memory(causal, stochastic_split_kernel(causal)),
    }


@pytest.fixture(scope="session")
def all_fixture_memories(fc_causal, pc_causal, p2_causal, gm_causal):
    return {
        "FC": memory_suite(fc_causal),
        "PC": memory_suite(pc_causal),
        "P2": memory_suite(p2_causal),
        "GM": memory_suite(gm_causal),
    }


@pytest.fixture()
def word_budget(monkeypatch):
    """Call with a word count to set the one word budget for this test."""
    return lambda words: monkeypatch.setattr(
        "pattherm.process_model.DEFAULT_BLOCK_BUDGET", words
    )
