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
    statistical_complexity,
    stochastic_split_kernel,
    synchronization_profile,
)
from .cycle_sim import SimConfig, WorkLedger, empirical_entropy, run_cycle
from .errors import (
    AxisError,
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
from .info_measures import (
    FiniteDistribution,
    JointTable,
    block_entropy,
    conditional_entropy,
    entropy,
    entropy_rate,
    excess_entropy,
    mutual_information,
    uniform_distribution,
)
from .process_model import (
    Alphabet,
    JointBlockDistribution,
    MachineSpec,
    StationaryDistribution,
    Transition,
    ValidatedMachine,
    joint_block_distribution,
    load_machine_file,
    machine_to_dict,
    parse_machine,
    sample_path,
    save_machine_file,
    stationary_distribution,
    validate_machine,
)
from .thermo_costs import (
    BITS,
    CostReport,
    DissipationCost,
    ExtractionWork,
    Units,
    convergence_gaps,
    cycle_report,
    cycle_reports,
    dissipation_cost,
    dissipation_limit,
    extraction_work,
    generation_tape_cost,
    memory_entropy,
)

__version__ = "0.1.0"
