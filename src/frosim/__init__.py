"""Grid frequency-dynamics simulation and false-relay-operation attack studies.

The package is organized in four layers: static configuration
(:mod:`frosim.config`), the discrete-time dynamics and relay engine
(:mod:`frosim.dynamics`), attack synthesis over the simulator
(:mod:`frosim.synth`), and the parameter-sweep harness
(:mod:`frosim.sweep`).  :mod:`frosim.cli` provides the command-line
front end.
"""

from .config import (
    AttackerCapability,
    GeneratorRelay,
    GridConfig,
    GridParams,
    LoadRelay,
    capability_bound,
    config_from_dict,
    load_config,
    validate_config,
    with_capability,
    with_dynamics,
)
from .dynamics import (
    AttackSignal,
    EventKind,
    NO_ATTACK,
    RelayEvent,
    SimOptions,
    SimTrace,
    SystemState,
    initial_state,
    simulate,
    simulate_step,
    write_trace_csv,
)
from .errors import (
    CapabilityExceeded,
    FrosimError,
    HorizonTooShort,
    InvalidParameter,
    NonMonotoneFeasibility,
    StabilityViolation,
)
from .sweep import (
    AttackType,
    Combo,
    SweepMode,
    SweepRecord,
    SweepSpec,
    TrendReport,
    classify_attack,
    generate_combinations,
    run_sweep,
    trend_report,
    write_records_csv,
)
from .synth import (
    AttackGoal,
    AttackOutcome,
    AttackVector,
    FeasibilityOutcome,
    FeasibilityStatus,
    MonotonicityReport,
    Sign,
    TargetKind,
    exhaustive_min_attack,
    feasibility,
    probe_monotonicity,
    synthesize_min_attack,
)

__version__ = "0.1.0"
