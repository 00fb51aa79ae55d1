"""Exception hierarchy for pattherm.

All library errors derive from PatthermError so callers can catch the
package's failures with one handler; the CLI maps subclasses to stable
exit codes.
"""


class PatthermError(Exception):
    """Base class for all pattherm errors."""


class MachineSpecError(PatthermError):
    """Machine specification is malformed (bad labels, references, fields)."""


class EmptyAlphabetError(MachineSpecError):
    """Alphabet has no symbols."""


class RowSumError(MachineSpecError):
    """A state's outgoing transition probabilities do not sum to 1."""

    def __init__(self, state, total):
        self.state = state
        self.total = total
        super().__init__(
            f"outgoing probabilities of state {state!r} sum to {total!r}, expected 1"
        )


class DisconnectedError(MachineSpecError):
    """Positive-probability transitions admit more than one recurrent class."""


class DistributionError(PatthermError):
    """A probability table is not a valid distribution."""


class SingularSolveError(PatthermError):
    """Stationary-distribution linear system is numerically degenerate."""


class BlockTooLargeError(PatthermError):
    """Requested word table exceeds the word budget, DEFAULT_BLOCK_BUDGET."""


class UnifilarRequiredError(PatthermError):
    """Operation requires a unifilar presentation."""


class KernelError(PatthermError):
    """Refinement kernel is malformed or does not cover the machine."""


class PrescienceViolationError(PatthermError):
    """Candidate memory fails the prescience check."""

    def __init__(self, message, deviation=None):
        self.deviation = deviation
        super().__init__(message)


class DesynchronizedError(PatthermError):
    """Generator and extractor memories disagree at a block boundary."""


class InsufficientDataError(PatthermError):
    """Sequence too short for the requested empirical estimate."""


class NonConvergedWarning(UserWarning):
    """Iterative estimate hit its depth limit before meeting tolerance."""
