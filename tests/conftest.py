import pytest

from pattherm import (
    causal_memory,
    minimize_to_causal,
    parity_kernel,
    previous_state_kernel,
    refine_memory,
    stochastic_split_kernel,
    validate_machine,
)
from pattherm.machines import (
    even_process,
    fair_coin,
    golden_mean,
    period_two,
    perturbed_coin,
    redundant_fair_coin,
    redundant_perturbed_coin,
)


@pytest.fixture(scope="session")
def fc():
    return validate_machine(fair_coin())


@pytest.fixture(scope="session")
def pc():
    return validate_machine(perturbed_coin(0.9))


@pytest.fixture(scope="session")
def p2():
    return validate_machine(period_two())


@pytest.fixture(scope="session")
def gm():
    return validate_machine(golden_mean())


@pytest.fixture(scope="session")
def even():
    return validate_machine(even_process())


@pytest.fixture(scope="session")
def pc_redundant():
    return validate_machine(redundant_perturbed_coin(0.9))


@pytest.fixture(scope="session")
def fc_redundant():
    return validate_machine(redundant_fair_coin())


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
