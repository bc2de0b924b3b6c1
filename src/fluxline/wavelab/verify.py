"""End-to-end check that a flux program carries light like its section.

The program's window is simulated with the continuum solver and/or the
discrete ladder, the leading pulse front is extracted from the snapshots,
and its trajectory is compared against the null-characteristic oracle
launched from the measured initial front. The relative deviation is
normalized by the oracle's distance traveled; samples before
MIN_TRAVEL_FRAC (15%) of the total travel are skipped so the ratio is well
conditioned.

The report keeps both lab-frame speed bookkeepings for moving-bubble
programs (the flux-pattern speed vs_over_c * c and the interior light speed
(1 + vs_over_c) * c) without adjudicating which one a given experiment
quotes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..metrics import MAX_GRID_POINTS, ParamError, SpeedProfile
from ..synthesis import FluxProgram, invert_speed_sq
from .continuum import BOUNDARIES, ContinuumGrid, ContinuumSolver, GaussianPulse
from .fronts import FrontNotFound, Snapshots, front_trajectory
from .ladder import LadderSim
from .rays import trace_null_geodesic

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
# take at most 3,068 steps and 2.45e6 cell-steps (alcubierre: 3,068 x 800)
# and keep at most 144,000 values; the bounds keep a validated run finite in
# work and memory (2**29 cell-steps is 8-18 s of stepping on one 2-core host).
MAX_SOLVER_STEPS = 2**20
MAX_CELL_STEPS = 2**29
MAX_SNAPSHOT_VALUES = 2**23
MIN_TRAVEL_FRAC = 0.15


class WorkLimitExceeded(ValueError):
    """A run would step or keep more than the bounds above; the message starts with the knob."""


@dataclass(frozen=True)
class SimulationSpec:
    """How to drive one verification run."""

    pulse_center: float
    pulse_width: float
    t_end: float
    solver: str = "continuum"
    n_points: int = 800
    cfl_factor: float = 0.5
    boundary: str = "absorbing_sponge"
    pulse_amplitude: float = 1.0
    snapshot_stride: Optional[int] = None
    front_threshold: float = 0.05
    tolerance: float = 0.05
    stability_factor: float = 0.5
    direction: int = 1

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ParamError("solver", f"must be one of {SOLVERS}")
        self.pulse  # GaussianPulse checks the width
        if not 16 <= self.n_points <= MAX_GRID_POINTS:
            raise ParamError("n_points", f"must lie in [16, {MAX_GRID_POINTS}]")
        if not 0.0 < self.cfl_factor <= 1.0:
            raise ParamError("cfl_factor", "must lie in (0, 1]")
        if self.boundary not in BOUNDARIES:
            raise ParamError("boundary", f"must be one of {BOUNDARIES}")
        if not 0.0 < self.stability_factor < 1.0:
            raise ParamError("stability_factor", "must lie in (0, 1)")
        if self.t_end <= 0:
            raise ParamError("t_end", "must be > 0")
        if self.snapshot_stride is not None and self.snapshot_stride < 1:
            raise ParamError("snapshot_stride", "must be >= 1")
        if not 0.0 < self.front_threshold < 1.0:
            raise ParamError("front_threshold", "must lie in (0, 1)")
        if self.tolerance <= 0:
            raise ParamError("tolerance", "must be > 0")
        if self.direction not in (-1, 1):
            raise ParamError("direction", "must be +1 or -1")

    @property
    def pulse(self) -> GaussianPulse:
        return GaussianPulse(self.pulse_center, self.pulse_width, self.pulse_amplitude)


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

    def to_dict(self) -> dict:
        return {
            "solver": self.solver,
            "passed": self.passed,
            "max_rel_deviation": self.max_rel_deviation,
            "n_compared": self.n_compared,
            "grid": dict(self.grid),
            "front_times": self.front_times.tolist(),
            "front_positions": self.front_positions.tolist(),
            "ray_positions": self.ray_positions.tolist(),
        }


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    tolerance: float
    background_c: float
    solvers: dict
    speeds: dict
    snapshots: dict = field(repr=False, default_factory=dict)

    def to_dict(self) -> dict:
        # snapshots are bulky raw data; they are emitted separately as CSV
        return {
            "passed": self.passed,
            "tolerance": self.tolerance,
            "background_c": self.background_c,
            "speeds": dict(self.speeds),
            "solvers": {name: res.to_dict() for name, res in self.solvers.items()},
        }


def compare_front_to_ray(
    front_t,
    front_r,
    profile: SpeedProfile,
    background_c: float,
    direction: int = 1,
):
    """Worst |front - ray| / |ray travel| over the usable samples.

    The oracle is launched from the first measured front sample, so constant
    pulse-shape offsets do not count against the simulator.
    """
    ts = np.asarray(front_t, dtype=float)
    rs = np.asarray(front_r, dtype=float)
    if len(ts) < 3:
        raise FrontNotFound("need at least 3 front samples to compare")
    ray = trace_null_geodesic(
        profile,
        background_c,
        r0=float(rs[0]),
        t0=float(ts[0]),
        direction=direction,
        t_end=float(ts[-1]) + 1e-12,
        dt=(float(ts[-1]) - float(ts[0])) / 8192.0,
    )
    usable = ts <= ray.t[-1] + 1e-12
    ts, rs = ts[usable], rs[usable]
    ray_at = np.interp(ts, ray.t, ray.r)
    travel = np.abs(ray_at - ray_at[0])
    total = travel[-1]
    if total <= 0:
        raise FrontNotFound("ray oracle did not travel; nothing to compare")
    mask = travel >= MIN_TRAVEL_FRAC * total
    rel = np.abs(rs - ray_at)[mask] / travel[mask]
    return float(np.max(rel)), ts, rs, ray_at


def _check_steps(t_end: float, dt: float, points: int, grid: str):
    """Refuse a run of more than MAX_SOLVER_STEPS steps or MAX_CELL_STEPS cell-steps, before it steps.

    grid names the field whose grid sets dt and the points.
    """
    steps = t_end / dt
    if not steps <= MAX_SOLVER_STEPS:
        raise WorkLimitExceeded(
            f"simulation.t_end: t_end / dt = {steps:.6g} steps (dt = {dt:.6g}, set by {grid})"
            f" exceeds the limit of {MAX_SOLVER_STEPS}"
        )
    if steps * points > MAX_CELL_STEPS:
        raise WorkLimitExceeded(
            f"{grid}: {steps:.6g} steps x {points} points = {steps * points:.6g} cell-steps"
            f" exceed the limit of {MAX_CELL_STEPS}"
        )


def _check_snapshots(steps: float, stride: int, points: int, grid: str):
    """Refuse a run that would keep more than MAX_SNAPSHOT_VALUES snapshot values."""
    # the pre-run state, one snapshot per stride steps, and the final state
    snapshots = steps // stride + 2
    if snapshots * points > MAX_SNAPSHOT_VALUES:
        raise WorkLimitExceeded(
            f"simulation.snapshot_stride: {snapshots:.0f} snapshots of {points} values (set by {grid})"
            f" exceed the limit of {MAX_SNAPSHOT_VALUES} values"
        )


def _run_continuum(profile, spec: SimulationSpec, window, background_c):
    lo, hi = window
    dx = (hi - lo) / (spec.n_points - 1)
    grid = ContinuumGrid(
        n_points=spec.n_points,
        dx=dx,
        r_start=lo,
        cfl_factor=spec.cfl_factor,
        boundary=spec.boundary,
    )
    solver = ContinuumSolver(profile, grid, background_c)
    solver.initialize_pulse(spec.pulse, spec.direction)
    _check_steps(spec.t_end, solver.dt, spec.n_points, "simulation.n_points")
    stride = spec.snapshot_stride or max(1, int(round(spec.t_end / solver.dt / 160)))
    _check_snapshots(spec.t_end / solver.dt, stride, spec.n_points, "simulation.n_points")
    snaps = solver.run(spec.t_end, stride)
    guard = solver.sponge_width + 2.0 * spec.pulse_width
    meta = {"n_points": spec.n_points, "dx": dx, "dt": solver.dt, "snapshots": len(snaps)}
    return snaps, guard, meta


def _run_ladder(profile, program: FluxProgram, spec: SimulationSpec):
    lo, hi = program.coord_window
    pitch = (hi - lo) / program.n_cells
    sim = LadderSim(
        n_cells=program.n_cells,
        pitch=pitch,
        r_start=lo,
        c0=program.c0,
        boundary="absorbing" if spec.boundary == "absorbing_sponge" else "reflecting",
        stability_factor=spec.stability_factor,
    )
    schedule = None
    if profile.time_dependent:

        def schedule(t):
            """Total flux angle per cell at time t, from the same inversion."""
            s = np.asarray(profile.speed_sq(sim.cell_r, t, background_c=program.background_c), dtype=float)
            return invert_speed_sq(s, program.theta_dc)[1]

        sim.set_flux(schedule(0.0))
    else:
        sim.set_flux(program.theta_total[:, 0])
    sim.initialize_pulse(spec.pulse, spec.direction)
    _check_steps(spec.t_end, sim.dt, program.n_cells + 1, "synthesis.n_cells")
    n_steps = int(math.ceil(spec.t_end / sim.dt))
    stride = spec.snapshot_stride or max(1, int(round(n_steps / 160)))
    _check_snapshots(n_steps, stride, program.n_cells + 1, "synthesis.n_cells")
    snaps = sim.run(n_steps, stride, flux_schedule=schedule)
    guard = 2.0 * spec.pulse_width + 2.0 * pitch
    meta = {"n_cells": program.n_cells, "pitch": pitch, "dt": sim.dt, "snapshots": len(snaps)}
    return snaps, guard, meta


def _evaluate(snaps, guard, meta, profile, background_c, spec: SimulationSpec, window, name):
    lo, hi = window
    r_stop = hi - guard if spec.direction >= 0 else lo + guard
    ts, rs = front_trajectory(snaps, spec.front_threshold, spec.direction, r_stop=r_stop)
    if len(ts) < 3:
        raise FrontNotFound(f"{name}: fewer than 3 front samples inside the window")
    max_rel, ts_used, rs_used, ray_at = compare_front_to_ray(
        ts, rs, profile, background_c, spec.direction
    )
    return SolverResult(
        solver=name,
        passed=max_rel <= spec.tolerance,
        max_rel_deviation=max_rel,
        n_compared=len(ts_used),
        grid=meta,
        front_times=ts_used,
        front_positions=rs_used,
        ray_positions=ray_at,
    )


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
    window = program.coord_window
    bg = program.background_c
    results = {}
    all_snaps = {}
    if spec.solver in ("continuum", "both"):
        snaps, guard, meta = _run_continuum(profile, spec, window, bg)
        on_snapshots("continuum", snaps)
        results["continuum"] = _evaluate(snaps, guard, meta, profile, bg, spec, window, "continuum")
        all_snaps["continuum"] = snaps
    if spec.solver in ("ladder", "both"):
        snaps, guard, meta = _run_ladder(profile, program, spec)
        on_snapshots("ladder", snaps)
        results["ladder"] = _evaluate(snaps, guard, meta, profile, bg, spec, window, "ladder")
        all_snaps["ladder"] = snaps

    speeds = {"c_over_c0": bg / program.c0}
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
        snapshots=all_snaps,
    )
