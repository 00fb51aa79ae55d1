"""Thermodynamic work costs of pattern generation and extraction.

Exact cost calculus over finite-state presentations of stationary
processes: causal-state minimization, prescient memory refinements,
tape/dissipation/extraction work, and a Monte Carlo cycle simulator.
"""

from .causal_structure import (
    CausalMachine,
    KernelRule,
    PrescientMemory,
    RefinementKernel,
    SynchronizationProfile,
    as_causal,
    causal_memory,
    check_determinism,
    identity_kernel,
    load_memory_file,
    minimize_to_causal,
    parity_kernel,
    parse_kernel,
    prescience_gap,
    previous_state_kernel,
    random_kernel,
    refine_memory,
    stochastic_split_kernel,
    synchronization_profile,
)
from .cycle_sim import SimConfig, WorkLedger, run_cycle
from .errors import (
    BlockTooLargeError,
    DesynchronizedError,
    DisconnectedError,
    DistributionError,
    EmptyAlphabetError,
    InsufficientDataError,
    KernelError,
    MachineSpecError,
    NonConvergedWarning,
    PatthermError,
    PrescienceViolationError,
    RowSumError,
    SingularSolveError,
    UnifilarRequiredError,
)
from .info_measures import JointTable, entropy_rate, excess_entropy
from .process_model import (
    Alphabet,
    JointBlockDistribution,
    MachineSpec,
    Transition,
    ValidatedMachine,
    joint_block_distribution,
    load_machine_file,
    machine_to_dict,
    parse_machine,
    save_machine_file,
    stationary_distribution,
    uniform_distribution,
    validate_machine,
)
from .thermo_costs import (
    BITS,
    CostReport,
    Units,
    cycle_report,
    cycle_reports,
    generation_tape_cost,
)

__version__ = "0.1.0"
