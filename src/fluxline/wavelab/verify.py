"""End-to-end check that a flux program carries light like its section.

The program's window is simulated with the continuum solver and/or the
discrete ladder, at step ratio 0.5 (continuum.CFL_FACTOR and the ladder's
default stability factor), from a unit-peak pulse. The leading front is
extracted from the snapshots at fronts.FRONT_THRESHOLD of each one's peak,
and its trajectory is compared against the null-characteristic oracle
launched from the measured initial front: the exact ray on flat, godel,
top-hat alcubierre and kerr_extreme sections, every preset among them, and
an RK4 trace on smooth-wall alcubierre and tabulated ones
(rays.oracle_positions). The relative
deviation is normalized by the oracle's distance traveled; samples before
MIN_TRAVEL_FRAC (15%) of the total travel are skipped so the ratio is well
conditioned.

The report keeps both lab-frame speed bookkeepings for moving-bubble
programs (the flux-pattern speed vs_over_c * c and the interior light speed
(1 + vs_over_c) * c) without adjudicating which one a given experiment
quotes.

verification.json holds the report's dataclass fields, every solver's
among them, with arrays written as lists; the snapshots go to their own CSVs
through on_snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..metrics import MAX_GRID_POINTS, ParamError, SpeedProfile
from ..synthesis import FluxProgram, invert_speed_sq
from .continuum import BOUNDARIES, ContinuumGrid, ContinuumSolver, GaussianPulse, snapshot_count
from .fronts import FrontNotFound, Snapshots, front_trajectory
from .ladder import LadderSim
from .rays import oracle_positions

__all__ = [
    "MAX_CELL_STEPS",
    "MAX_SNAPSHOT_VALUES",
    "MAX_SOLVER_STEPS",
    "SimulationSpec",
    "SolverResult",
    "VerificationReport",
    "WorkLimitExceeded",
    "compare_front_to_ray",
    "verify_program",
]

SOLVERS = ("continuum", "ladder", "both")
# Most time steps one solver may take (t_end / dt), most cell-steps (steps x
# grid points: n_points, or the ladder's n_cells + 1), and most snapshot
# values (snapshots x grid points) one solver may keep in memory. Presets
# take at most 3,068 steps and 2.45e6 cell-steps (kerr_theta0: 3,068 x 800)
# and keep at most 144,000 values; the bounds keep a validated run finite in
# work and memory (2**29 cell-steps is 8-18 s of stepping on one 2-core host).
MAX_SOLVER_STEPS = 2**20
MAX_CELL_STEPS = 2**29
MAX_SNAPSHOT_VALUES = 2**23
MIN_TRAVEL_FRAC = 0.15
# About how many levels a run records: every max(1, round(steps / SNAPSHOTS))-th
# step, plus the first and the last
SNAPSHOTS = 160


class WorkLimitExceeded(ValueError):
    """A run would step or keep more than the bounds above; the message starts with the field to change."""


@dataclass(frozen=True)
class SimulationSpec:
    """How to drive one verification run; the step ratios, pulse peak and front threshold are fixed, not settable."""

    pulse_center: float
    pulse_width: float
    t_end: float
    solver: str = "continuum"
    n_points: int = 800
    boundary: str = "absorbing_sponge"
    tolerance: float = 0.05
    direction: int = 1

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ParamError("solver", f"must be one of {SOLVERS}")
        self.pulse  # GaussianPulse checks the width
        if not 16 <= self.n_points <= MAX_GRID_POINTS:
            raise ParamError("n_points", f"must lie in [16, {MAX_GRID_POINTS}]")
        if self.boundary not in BOUNDARIES:
            raise ParamError("boundary", f"must be one of {BOUNDARIES}")
        if self.t_end <= 0:
            raise ParamError("t_end", "must be > 0")
        if self.tolerance <= 0:
            raise ParamError("tolerance", "must be > 0")
        if self.direction not in (-1, 1):
            raise ParamError("direction", "must be +1 or -1")

    @property
    def pulse(self) -> GaussianPulse:
        return GaussianPulse(self.pulse_center, self.pulse_width)


@dataclass(frozen=True)
class SolverResult:
    solver: str
    passed: bool
    max_rel_deviation: float
    n_compared: int
    grid: dict
    front_times: np.ndarray
    front_positions: np.ndarray
    ray_positions: np.ndarray


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    tolerance: float
    background_c: float
    solvers: dict
    speeds: dict


def compare_front_to_ray(
    front_t,
    front_r,
    profile: SpeedProfile,
    background_c: float,
    direction: int = 1,
):
    """Worst |front - ray| / |ray travel| over the usable samples.

    The oracle (rays.oracle_positions) is launched from the first measured
    front sample, so constant pulse-shape offsets do not count against the
    simulator; samples after it leaves the profile's valid range are dropped.
    """
    ts = np.asarray(front_t, dtype=float)
    rs = np.asarray(front_r, dtype=float)
    if len(ts) < 3:
        raise FrontNotFound("need at least 3 front samples to compare")
    ray_at = oracle_positions(profile, background_c, ts, float(rs[0]), direction)
    ts, rs = ts[: len(ray_at)], rs[: len(ray_at)]
    travel = np.abs(ray_at - ray_at[0])
    total = travel[-1]
    if total <= 0:
        raise FrontNotFound("ray oracle did not travel; nothing to compare")
    mask = travel >= MIN_TRAVEL_FRAC * total
    rel = np.abs(rs - ray_at)[mask] / travel[mask]
    return float(np.max(rel)), ts, rs, ray_at


def _check_work(spec: SimulationSpec, solver, points: int, grid: str) -> tuple[int, int]:
    """The (steps, stride) of a solver's run, refused before it steps if it would exceed a bound above.

    grid names the field whose grid sets dt and the points. Both solvers take
    ceil((t_end - solver.time) / dt) steps; the step and cell-step bounds are
    checked on t_end / dt first, as an infinite ratio does not round, and the
    snapshot bound on the snapshot_count that the run allocates. The stride
    follows from the steps, so no recording setting decides which front
    samples the comparison sees.
    """
    ratio = spec.t_end / solver.dt
    if not ratio <= MAX_SOLVER_STEPS:
        raise WorkLimitExceeded(
            f"simulation.t_end: t_end / dt = {ratio:.6g} steps (dt = {solver.dt:.6g}, set by {grid})"
            f" exceeds the limit of {MAX_SOLVER_STEPS}"
        )
    if ratio * points > MAX_CELL_STEPS:
        raise WorkLimitExceeded(
            f"{grid}: {ratio:.6g} steps x {points} points = {ratio * points:.6g} cell-steps"
            f" exceed the limit of {MAX_CELL_STEPS}"
        )
    steps = max(0, math.ceil((spec.t_end - solver.time) / solver.dt))
    stride = max(1, round(steps / SNAPSHOTS))
    snapshots = snapshot_count(steps, stride)
    if snapshots * points > MAX_SNAPSHOT_VALUES:
        raise WorkLimitExceeded(
            f"{grid}: {snapshots} snapshots of {points} values exceed the limit of {MAX_SNAPSHOT_VALUES} values"
        )
    return steps, stride


def _run_continuum(program: FluxProgram, profile: SpeedProfile, spec: SimulationSpec):
    lo, hi = program.coord_window
    dx = (hi - lo) / (spec.n_points - 1)
    grid = ContinuumGrid(
        n_points=spec.n_points,
        dx=dx,
        r_start=lo,
        boundary=spec.boundary,
    )
    solver = ContinuumSolver(profile, grid, program.background_c)
    solver.initialize_pulse(spec.pulse, spec.direction)
    snaps = solver.run(*_check_work(spec, solver, spec.n_points, "simulation.n_points"))
    guard = solver.sponge_width + 2.0 * spec.pulse_width
    meta = {"n_points": spec.n_points, "dx": dx, "dt": solver.dt, "snapshots": len(snaps)}
    return snaps, guard, meta


def _run_ladder(program: FluxProgram, profile: SpeedProfile, spec: SimulationSpec):
    lo, hi = program.coord_window
    pitch = (hi - lo) / program.n_cells
    sim = LadderSim(
        n_cells=program.n_cells,
        pitch=pitch,
        r_start=lo,
        boundary="absorbing" if spec.boundary == "absorbing_sponge" else "reflecting",
    )
    schedule = None
    if profile.time_dependent:

        def schedule(t):
            """Total flux angle per cell at the (k, 1) half-step times t, a row per time, from the same inversion."""
            s = np.asarray(profile.speed_sq(sim.cell_r, t, background_c=program.background_c), dtype=float)
            return invert_speed_sq(s, program.theta_dc)[1]

        sim.set_flux(schedule(0.0))
    else:
        sim.set_flux(program.theta_total[:, 0])
    sim.initialize_pulse(spec.pulse, spec.direction)
    snaps = sim.run(*_check_work(spec, sim, program.n_cells + 1, "synthesis.n_cells"), flux_schedule=schedule)
    guard = 2.0 * spec.pulse_width + 2.0 * pitch
    meta = {"n_cells": program.n_cells, "pitch": pitch, "dt": sim.dt, "snapshots": len(snaps)}
    return snaps, guard, meta


def verify_program(
    program: FluxProgram,
    profile: SpeedProfile,
    spec: SimulationSpec,
    on_snapshots: Callable[[str, Snapshots], None] = lambda solver, snapshots: None,
) -> VerificationReport:
    """Simulate the program and compare fronts against the ray oracle.

    on_snapshots(solver, snapshots) is called as soon as each solver has run,
    before its front is compared with the ray.
    """
    lo, hi = program.coord_window
    bg = program.background_c
    results = {}
    for name, run in (("continuum", _run_continuum), ("ladder", _run_ladder)):
        if spec.solver not in (name, "both"):
            continue
        snaps, guard, meta = run(program, profile, spec)
        on_snapshots(name, snaps)
        r_stop = hi - guard if spec.direction >= 0 else lo + guard
        ts, rs = front_trajectory(snaps, direction=spec.direction, r_stop=r_stop)
        if len(ts) < 3:
            raise FrontNotFound(f"{name}: fewer than 3 front samples inside the window")
        max_rel, ts_used, rs_used, ray_at = compare_front_to_ray(ts, rs, profile, bg, spec.direction)
        results[name] = SolverResult(
            solver=name,
            passed=max_rel <= spec.tolerance,
            max_rel_deviation=max_rel,
            n_compared=len(ts_used),
            grid=meta,
            front_times=ts_used,
            front_positions=rs_used,
            ray_positions=ray_at,
        )

    # c0 is the unit, so c/c0 is background_c; the key stays so that no artifact byte moves
    speeds = {"c_over_c0": bg}
    if profile.kind == "alcubierre":
        v = profile.params.vs_over_c
        speeds["pattern_speed_lab"] = v * bg
        speeds["interior_light_speed_lab"] = (1.0 + v) * bg
    return VerificationReport(
        passed=all(res.passed for res in results.values()),
        tolerance=spec.tolerance,
        background_c=bg,
        solvers=results,
        speeds=speeds,
    )
