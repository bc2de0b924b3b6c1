"""Dynamic verification of flux programs.

Three independent views of the same propagation problem:

  rays       null-characteristic integration, the oracle everything else is
             checked against
  continuum  leapfrog solver for the variable-speed wave equation
  ladder     discrete LC ladder with flux-tunable inductors

fronts extracts pulse-front trajectories from the Snapshots record either
simulator's run returns; verify ties the pieces together into a pass/fail
report.
"""

from .fronts import FrontNotFound, FrontSpeeds, Snapshots, front_position, front_trajectory, measure_front_speed
from .rays import RAY_COMPLETED, RAY_LEFT_DOMAIN, RAY_NEGATIVE_SPEED_SQ, RayPath, trace_null_geodesic
from .continuum import CflViolation, ContinuumGrid, ContinuumSolver, GaussianPulse, fdtd_step
from .ladder import LadderSim, SingularInductance, StabilityViolation, ladder_step
from .verify import SimulationSpec, SolverResult, VerificationReport, compare_front_to_ray, verify_program

__all__ = [
    "Snapshots",
    "FrontNotFound",
    "FrontSpeeds",
    "front_position",
    "front_trajectory",
    "measure_front_speed",
    "RayPath",
    "trace_null_geodesic",
    "RAY_COMPLETED",
    "RAY_LEFT_DOMAIN",
    "RAY_NEGATIVE_SPEED_SQ",
    "ContinuumGrid",
    "ContinuumSolver",
    "GaussianPulse",
    "CflViolation",
    "fdtd_step",
    "LadderSim",
    "StabilityViolation",
    "SingularInductance",
    "ladder_step",
    "SimulationSpec",
    "SolverResult",
    "VerificationReport",
    "compare_front_to_ray",
    "verify_program",
]
