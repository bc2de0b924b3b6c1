"""fluxline: exotic-spacetime light propagation on a SQUID-array line.

The package turns 1+1-D sections of curved spacetimes into external
magnetic-flux programs for a flux-tunable transmission line, checks every
feasibility constraint the inversion imposes, and verifies the synthesized
program dynamically against a null-characteristic oracle.
"""

from .metrics import (
    AlcubierreParams,
    GodelParams,
    KerrExtremeParams,
    ProfileDomainError,
    ProfileEvaluationError,
    SpeedProfile,
    alcubierre_profile,
    flat_profile,
    godel_profile,
    kerr_extreme_profile,
    ricci_scalar,
    tabulated_profile,
)
from .synthesis import (
    ArccosInfeasible,
    ArrayConfig,
    FeasibilityReport,
    FluxProgram,
    HotCellBudgetExceeded,
    NegativeSpeedSquared,
    Status,
    SynthesisError,
    SynthesisFailed,
    WindowViolation,
    cell_midpoints,
    dc_feasibility_boundary,
    feasibility_scan,
    godel_max_radius,
    kerr_forbidden_band,
    speed_sq_from_flux,
    synthesize_flux,
    synthesize_program,
)
from .wavelab import (
    CflViolation,
    ContinuumGrid,
    ContinuumSolver,
    FrontNotFound,
    GaussianPulse,
    LadderSim,
    RayPath,
    SimulationSpec,
    SingularInductance,
    Snapshots,
    StabilityViolation,
    VerificationReport,
    front_position,
    front_trajectory,
    ladder_step,
    measure_front_speed,
    trace_null_geodesic,
    verify_program,
)

__version__ = "0.1.0"
