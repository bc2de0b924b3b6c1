"""Flux <-> speed algebra for the SQUID-array transmission line.

Angles are flux angles theta = pi * phi_external / phi_quantum, in radians,
everywhere in this package, and speeds are in units of the bare line speed
c0, which is 1 and not a setting. A cell biased at total angle theta has
speed squared |cos theta|. A spatially uniform DC bias sets the simulated
flat background, c^2 = cos(theta_dc); the AC angle on top of it shapes the
dimensionless profile through

    speed_sq(r, t) * cos(theta_dc) = cos(theta_dc + theta_ac(r, t)).

Synthesis inverts this with the principal arccos branch in [0, pi]. The
admissible window keeps both the DC part and the total inside [-pi/2, pi/2].
Cells whose total sits within WINDOW_GUARD of pi/2 are "hot", e.g. the
horizon cell of the extreme rotating hole at exactly pi/2. Synthesis warns
and budgets them per time sample, since one hot SQUID is the physically
interesting case; the ladder refuses them as singular.

Feasibility statuses, in order of precedence (highest wins) and with their
CSV status codes:

    4  negative_speed_sq   speed_sq < 0, no real flux exists (ergoregion)
    3  arccos_infeasible   speed_sq * cos(theta_dc) > 1, DC bias too weak
    2  window_violation    the DC bias itself sits at/outside +-pi/2, or the
                           total would leave the admissible window
    1  impedance_warning   |total| above the impedance margin (includes the
                           hot cells pinned at pi/2)
    0  feasible
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np

from .csvio import grid_lines
from .metrics import MAX_GRID_POINTS, ParamError, ProfileEvaluationError, SpeedProfile

__all__ = [
    "WINDOW_GUARD",
    "Status",
    "SynthesisError",
    "NegativeSpeedSquared",
    "ArccosInfeasible",
    "WindowViolation",
    "SynthesisFailed",
    "HotCellBudgetExceeded",
    "ArrayConfig",
    "FluxProgram",
    "FeasibilityReport",
    "speed_sq_from_flux",
    "invert_speed_sq",
    "synthesize_flux",
    "dc_feasibility_boundary",
    "godel_max_radius",
    "kerr_forbidden_band",
    "cell_midpoints",
    "synthesize_program",
    "feasibility_scan",
]

HALF_PI = math.pi / 2.0

# A total within WINDOW_GUARD of pi/2 has |cos theta| below it and so an
# effectively infinite inductance: a hot cell here, a singular one in the ladder.
WINDOW_GUARD = 1e-9

# One-ulp slack for the arccos argument: products like 2 * cos(pi/3) land a
# rounding error above 1 even though the exact value is feasible.
ARCCOS_SLACK = 1e-12


class Status(IntEnum):
    FEASIBLE = 0
    IMPEDANCE_WARNING = 1
    WINDOW_VIOLATION = 2
    ARCCOS_INFEASIBLE = 3
    NEGATIVE_SPEED_SQ = 4


class SynthesisError(Exception):
    """Base class for synthesis failures."""


class NegativeSpeedSquared(SynthesisError):
    """Requested speed_sq < 0: no real flux angle exists."""


class ArccosInfeasible(SynthesisError):
    """speed_sq * cos(theta_dc) > 1: the DC bias leaves no headroom."""


class WindowViolation(SynthesisError):
    """The total flux angle falls at/outside the admissible +-pi/2 window."""

    def __init__(self, msg: str, theta_total: float):
        super().__init__(msg)
        self.theta_total = theta_total


class SynthesisFailed(SynthesisError):
    """A program entry is infeasible; carries the first offending entry."""

    def __init__(self, cell: int, time_index: int, status: Status):
        super().__init__(
            f"synthesis failed at cell {cell}, time index {time_index}: {status.name}"
        )
        self.cell = cell
        self.time_index = time_index
        self.status = status


class HotCellBudgetExceeded(SynthesisError):
    """More cells pinned at the pi/2 window than the configuration allows."""

    def __init__(self, time_index: int, count: int, budget: int):
        super().__init__(
            f"{count} hot cells at time index {time_index}, budget {budget}"
        )
        self.time_index = time_index
        self.count = count
        self.budget = budget


@dataclass(frozen=True)
class ArrayConfig:
    """Hardware abstraction of the SQUID array.

    impedance_margin is the |total| angle beyond which the low-impedance
    approximation is considered strained (warning, not failure).
    max_hot_cells caps how many hot cells (within WINDOW_GUARD of pi/2) may
    occur per time sample.
    """

    n_cells: int = 64
    impedance_margin: float = 0.44 * math.pi
    max_hot_cells: int = 1

    def __post_init__(self):
        if not 2 <= self.n_cells <= MAX_GRID_POINTS:
            raise ParamError("n_cells", f"must lie in [2, {MAX_GRID_POINTS}]")
        if not 0.0 < self.impedance_margin < HALF_PI:
            raise ParamError("impedance_margin", "must lie in (0, pi/2)")
        if self.max_hot_cells < 0:
            raise ParamError("max_hot_cells", "must be >= 0")


def speed_sq_from_flux(theta_total):
    """Line speed squared |cos theta| at total flux angle theta."""
    out = np.abs(np.cos(theta_total))
    return float(out) if np.ndim(theta_total) == 0 else out


def invert_speed_sq(speed_sq, theta_dc):
    """The one flux inversion: (arg, theta_total) for speed_sq at theta_dc.

    arg = speed_sq * cos(theta_dc) and theta_total = arccos(arg) on the
    principal branch, with arg clipped to [-1, 1] first; callers judge the
    unclipped arg (see _classify_grid). Broadcasting rules are numpy's; an
    array's arccos is taken in place on its clipped copy.
    """
    arg = speed_sq * np.cos(theta_dc)
    theta = np.clip(arg, -1.0, 1.0)
    return arg, np.arccos(theta, out=theta if np.ndim(theta) else None)


def synthesize_flux(speed_sq: float, theta_dc: float) -> tuple[float, float]:
    """Invert speed_sq -> (theta_ac, theta_total) for one cell.

    theta_total = arccos(speed_sq * cos(theta_dc)) on the principal branch,
    theta_ac = theta_total - theta_dc. The request is classified by
    _classify_grid, as a program's cells and a scan's points are: it raises
    NegativeSpeedSquared, ArccosInfeasible, or WindowViolation for a window
    violation or a hot total. WindowViolation carries the computed total so
    callers may budget hot cells instead of failing.
    """
    if not math.isfinite(speed_sq):
        raise ValueError("speed_sq must be finite")
    if not abs(theta_dc) < HALF_PI:
        raise ValueError("theta_dc must lie strictly inside (-pi/2, pi/2)")
    status, theta_total = _classify_grid(speed_sq, theta_dc, ArrayConfig())
    status, theta_total = Status(int(status)), float(theta_total)
    if status == Status.NEGATIVE_SPEED_SQ:
        raise NegativeSpeedSquared(f"speed_sq = {speed_sq} < 0")
    if status == Status.ARCCOS_INFEASIBLE:
        raise ArccosInfeasible(f"speed_sq * cos(theta_dc) > 1 (speed_sq={speed_sq}, theta_dc={theta_dc})")
    if status == Status.WINDOW_VIOLATION or theta_total >= HALF_PI - WINDOW_GUARD:
        raise WindowViolation(f"theta_dc {theta_dc} or total {theta_total} within {WINDOW_GUARD} of pi/2", theta_total)
    return theta_total - theta_dc, theta_total


def dc_feasibility_boundary(speed_sq_max: float) -> float:
    """Smallest |theta_dc| for which the profile maximum is representable.

    cos(theta_dc) must not exceed 1 / speed_sq_max, so the boundary is
    arccos(1 / speed_sq_max).
    """
    if not speed_sq_max >= 1.0:
        raise ValueError("speed_sq_max must be >= 1")
    return math.acos(1.0 / speed_sq_max)


def godel_max_radius(theta_dc: float) -> float:
    """Largest representable r / (2a) of the rotating-universe profile.

    The profile 1 + (r/2a)^2 stays representable while it is below
    sec|theta_dc|, so the boundary radius is sqrt(sec|theta_dc| - 1).
    Returns 0 at theta_dc = 0.
    """
    if not abs(theta_dc) < HALF_PI:
        raise ValueError("theta_dc must lie strictly inside (-pi/2, pi/2)")
    sec = 1.0 / math.cos(theta_dc)
    return math.sqrt(max(sec - 1.0, 0.0))


def kerr_forbidden_band(theta: float, mass_M: float = 1.0) -> Optional[tuple[float, float]]:
    """Radius band with negative speed_sq on a fixed-angle slice, or None.

    The sign of the profile follows r^2 - 2 M r + M^2 cos^2(theta), whose
    roots are M (1 +- sin theta); on the axis the band degenerates to the
    single horizon point and None is returned.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if not 0.0 < mass_M < math.inf:
        raise ValueError("mass_M must be finite and > 0")
    s = math.sin(theta)
    if s <= 0.0:
        return None
    return mass_M * (1.0 - s), mass_M * (1.0 + s)


def _classify_grid(speed_sq, theta_dc, config: ArrayConfig):
    """Vectorized precedence classification.

    Returns (status int array, theta_total float array); theta_total is NaN
    where no principal-branch total exists (negative speed_sq, arccos
    infeasible); a NaN DC bias is a window violation. Broadcasting rules
    are numpy's; NaN is written into the arccos result in place, so that
    no other grid-sized float array is alive with it.
    """
    s = np.asarray(speed_sq, dtype=float)
    d = np.asarray(theta_dc, dtype=float)
    arg, theta = invert_speed_sq(s, d)
    negative = s < 0.0
    infeasible = arg > 1.0 + ARCCOS_SLACK
    window = ~(np.abs(d) < HALF_PI - WINDOW_GUARD) | (arg < -ARCCOS_SLACK)
    del arg
    hot = theta >= HALF_PI - WINDOW_GUARD
    warn = (theta > config.impedance_margin) | hot
    status = np.select(
        [negative, infeasible, window, warn],
        [
            int(Status.NEGATIVE_SPEED_SQ),
            int(Status.ARCCOS_INFEASIBLE),
            int(Status.WINDOW_VIOLATION),
            int(Status.IMPEDANCE_WARNING),
        ],
        default=int(Status.FEASIBLE),
    )
    theta = np.asarray(theta)  # a 0-d call's arccos is a scalar
    np.copyto(theta, np.nan, where=negative | infeasible)
    return status, theta


def cell_midpoints(coord_window: tuple[float, float], n_cells: int) -> np.ndarray:
    """Cell i sits at window_start + (i + 1/2) * span / n_cells."""
    lo, hi = coord_window
    if not hi > lo:
        raise ValueError("coord_window must have positive span")
    width = (hi - lo) / n_cells
    return lo + (np.arange(n_cells) + 0.5) * width


@dataclass(frozen=True)
class FluxProgram:
    """Synthesized per-cell, per-time flux angles plus feasibility notes.

    theta_total is always theta_dc + theta_ac entrywise. background_c is the
    simulated flat-spacetime speed sqrt(cos theta_dc), in units of c0.
    annotations holds one Status code per entry (shape cells x times); a
    program produced by synthesize_program contains only FEASIBLE and
    IMPEDANCE_WARNING entries. hot_cells holds the per-time hot-cell counts
    the budget was held to.
    """

    theta_dc: float
    theta_ac: np.ndarray
    cell_coords: np.ndarray
    times: np.ndarray
    speed_sq: np.ndarray
    annotations: np.ndarray
    hot_cells: np.ndarray
    background_c: float
    coord_window: tuple[float, float]

    @property
    def theta_total(self) -> np.ndarray:
        return self.theta_dc + self.theta_ac

    @property
    def n_cells(self) -> int:
        return len(self.cell_coords)


def synthesize_program(
    profile: SpeedProfile,
    theta_dc: float,
    config: ArrayConfig,
    coord_window: tuple[float, float],
    time_samples: Sequence[float] = (0.0,),
) -> FluxProgram:
    """Synthesize the whole array program over the coordinate window.

    One pass classifies the whole (time, cell) grid, and the earliest failing
    time sample raises: SynthesisFailed at its first negative or
    arccos-infeasible cell, else HotCellBudgetExceeded when it pins more
    than max_hot_cells cells at the window. Hot cells within budget are kept.
    """
    if not abs(theta_dc) < HALF_PI - WINDOW_GUARD:
        raise ValueError("theta_dc must lie strictly inside the admissible window")
    lo, hi = coord_window
    vlo, vhi = profile.valid_range
    if lo < vlo or hi > vhi:
        raise ValueError(
            f"coord_window [{lo}, {hi}] not contained in profile range [{vlo}, {vhi}]"
        )
    times = np.asarray(list(time_samples), dtype=float)
    if times.size == 0:
        raise ValueError("need at least one time sample")
    r = cell_midpoints(coord_window, config.n_cells)
    background_c = math.sqrt(math.cos(theta_dc))

    speed = profile.finite_speed_sq(r, times[:, None], background_c=background_c)
    status, theta = _classify_grid(speed, theta_dc, config)
    fatal = np.isin(status, (int(Status.NEGATIVE_SPEED_SQ), int(Status.ARCCOS_INFEASIBLE)))
    hot_cells = np.count_nonzero(theta >= HALF_PI - WINDOW_GUARD, axis=1)
    j = int(np.argmax(fatal.any(axis=1) | (hot_cells > config.max_hot_cells)))
    if fatal[j].any():
        i = int(np.argmax(fatal[j]))
        raise SynthesisFailed(i, j, Status(int(status[j, i])))
    if hot_cells[j] > config.max_hot_cells:
        raise HotCellBudgetExceeded(j, int(hot_cells[j]), config.max_hot_cells)

    theta_ac = (theta - theta_dc).T
    theta_ac.setflags(write=False)
    speed.setflags(write=False)
    status.setflags(write=False)
    hot_cells.setflags(write=False)
    r.setflags(write=False)
    times.setflags(write=False)
    return FluxProgram(
        theta_dc=theta_dc,
        theta_ac=theta_ac,
        cell_coords=r,
        times=times,
        speed_sq=speed.T,
        annotations=status.T,
        hot_cells=hot_cells,
        background_c=background_c,
        coord_window=(float(lo), float(hi)),
    )


@dataclass(frozen=True)
class FeasibilityReport:
    """Dense classification over (metric parameter) x (theta_dc) x (r).

    param_name labels the parameter for library callers (the CLI's column
    is param_1). status and theta_total have shape (P, D, R); theta_total is
    NaN where no principal-branch total exists. rows() yields the lines
    (param, theta_dc, r, status_code, theta_total_or_nan) in nested order
    (csvio.grid_lines), so theta_total_or_nan reads "nan" where it is NaN.
    """

    param_name: str
    param_values: np.ndarray
    theta_dc_values: np.ndarray
    r_values: np.ndarray
    status: np.ndarray
    theta_total: np.ndarray

    def rows(self):
        return grid_lines(
            self.param_values[:, None, None],
            self.theta_dc_values[:, None],
            self.r_values,
            self.status,
            self.theta_total,
        )


def feasibility_scan(
    profiles: Sequence[tuple[float, SpeedProfile]],
    theta_dc_values,
    r_values,
    config: ArrayConfig,
    param_name: str = "param",
) -> FeasibilityReport:
    """Classify every grid point of a profile family.

    profiles is a sequence of (parameter value, profile) pairs; the scan is
    dense over parameters x theta_dc_values x r_values at time 0.
    """
    if len(profiles) == 0:
        raise ValueError("need at least one (param, profile) pair")
    d = np.asarray(theta_dc_values, dtype=float)
    r = np.asarray(r_values, dtype=float)
    if d.size == 0 or r.size == 0:
        raise ValueError("grid axes must be nonempty")
    params = np.array([p for p, _ in profiles], dtype=float)
    speeds = np.empty((len(profiles), 1, r.size))
    for k, (p, prof) in enumerate(profiles):
        try:
            speeds[k, 0] = prof.finite_speed_sq(r)
        except ProfileEvaluationError as exc:
            exc.entry = p
            raise
    status, theta = _classify_grid(speeds, d[:, None], config)
    return FeasibilityReport(
        param_name=param_name,
        param_values=params,
        theta_dc_values=d,
        r_values=r,
        status=status,
        theta_total=theta,
    )
