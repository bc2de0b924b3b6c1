"""Leapfrog solver for the variable-speed wave equation on a 1-D grid.

The field obeys the flux-conservative form

    psi_tt = d_r ( c^2(r, t) d_r psi ),

chosen so the characteristic speed equals the local c and a discrete energy
exists. c^2 is sampled at cell faces as the arithmetic mean of the node
values. The time step is dt = cfl_factor * dx / c_max (verification uses
the default 0.5) with c_max the profile supremum over the whole run; the
step raises CflViolation whenever the instantaneous speed breaks that bound
(possible for time-dependent or tabulated profiles whose supremum was
underestimated). run_blocks, the run loop of both wavelab solvers, takes a
given step count in blocks of up to BLOCK_STEPS step times and records
snapshot_count levels; a time-dependent profile is evaluated once per
block, each step takes its row, and step() alone is a block of one.

Boundaries: "reflecting" pins the field to zero at both ends; the default
"absorbing_sponge" additionally damps the field with a quadratic ramp over
the outer 10% of the domain on each side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..metrics import ParamError, SpeedProfile
from .fronts import Snapshots

__all__ = [
    "CflViolation",
    "ContinuumGrid",
    "GaussianPulse",
    "ContinuumSolver",
    "fdtd_step",
    "sponge_factors",
]

BOUNDARIES = ("absorbing_sponge", "reflecting")
SPONGE_FRACTION = 0.10
# Peak damping rate STRENGTH * c_max / sponge length. Stronger ramps reflect
# off the damping gradient, weaker ones leak through the round trip; 22 is
# the measured optimum for pulses a few wavelengths shorter than the sponge.
SPONGE_STRENGTH = 22.0
# Most step times a moving profile is evaluated at in one numpy call, here and
# in the ladder. 16 spreads the call's overhead; on a 2-vCPU x86-64 Linux host,
# 64 was no faster per step and raised an alcubierre simulate's peak RSS by
# 1.7 MB, against 0.1 MB for 16.
BLOCK_STEPS = 16


def snapshot_count(n_steps: int, stride: int) -> int:
    """Levels run_blocks records over n_steps steps: the first, every stride-th and the last."""
    return 1 + -(-n_steps // stride)


def run_blocks(solver, n_steps: int, stride: int, first: tuple, *args) -> tuple:
    """Take solver's next n_steps steps; returns (times, values) of first, every stride-th level and the last.

    Blocks of up to BLOCK_STEPS step times, from the same += dt as
    solver.time, go with args to solver._steps(times, *args), which yields
    each new level into a table allocated before the first step.
    """
    times = np.empty(snapshot_count(n_steps, stride))
    values = np.empty((len(times), len(first[1])))
    times[0], values[0] = first
    row, t = 0, solver.time
    for start in range(0, n_steps, BLOCK_STEPS):
        block = []
        for _ in range(min(BLOCK_STEPS, n_steps - start)):
            block.append(t)
            t += solver.dt
        for done, level in enumerate(solver._steps(np.array(block), *args), start + 1):
            if done % stride == 0 or done == n_steps:
                row += 1
                times[row], values[row] = solver.time, level
    return times, values


class CflViolation(RuntimeError):
    """The time step exceeds the stability bound for the current speeds."""


@dataclass(frozen=True)
class ContinuumGrid:
    """Spatial discretization of one run; dt follows from dx and cfl_factor."""

    n_points: int
    dx: float
    r_start: float = 0.0
    cfl_factor: float = 0.5
    boundary: str = "absorbing_sponge"

    def __post_init__(self):
        if self.n_points < 16:
            raise ValueError("n_points must be >= 16")
        if self.dx <= 0:
            raise ValueError("dx must be > 0")
        if not 0.0 < self.cfl_factor <= 1.0:
            raise ValueError("cfl_factor must lie in (0, 1]")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")

    @property
    def r(self) -> np.ndarray:
        return self.r_start + np.arange(self.n_points) * self.dx

    @property
    def span(self) -> tuple[float, float]:
        return self.r_start, self.r_start + (self.n_points - 1) * self.dx


@dataclass(frozen=True)
class GaussianPulse:
    """A unit-peak Gaussian; the equations are linear and fronts are relative to the peak, so no amplitude is needed."""

    center: float
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ParamError("width", "must be > 0")

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return np.exp(-((r - self.center) ** 2) / (2.0 * self.width**2))


def sponge_factors(sponge_gamma, dt):
    """(1 - g, 1 + g) with g = gamma dt / 2: the damping factors of fdtd_step."""
    g = 0.5 * sponge_gamma * dt
    return 1.0 - g, 1.0 + g


def _flux_divergence(psi, face_speed_sq, dx, out):
    """d_r (c^2 d_r psi) at the interior nodes, written into out[1:-1]."""
    flux = face_speed_sq * np.diff(psi) / dx
    out[1:-1] = (flux[1:] - flux[:-1]) / dx
    return out


def fdtd_step(psi_prev, psi_cur, face_speed_sq, dx, dt, damping, accel):
    """One damped leapfrog step; pure kernel shared by the solver class.

    psi_prev/psi_cur are the two known time levels; face_speed_sq holds
    c^2 at the n-1 cell faces, and damping is sponge_factors(gamma, dt) of
    the damping rate gamma per node (0 for no damping). accel is a buffer of
    psi's length with zero ends; its interior is overwritten. Ends are
    pinned to zero.
    """
    keep, scale = damping
    _flux_divergence(psi_cur, face_speed_sq, dx, accel)
    nxt = (2.0 * psi_cur - keep * psi_prev + dt * dt * accel) / scale
    nxt[0] = 0.0
    nxt[-1] = 0.0
    return nxt


class ContinuumSolver:
    """Time-steps one profile on one grid.

    The solver owns two field levels (previous and current); run() returns
    one Snapshots record of the field every snapshot_stride steps, on the
    solver's own grid r. energy() returns the discrete energy in the
    staggered product form that the leapfrog update conserves exactly for
    static profiles with reflecting boundaries.
    """

    def __init__(self, profile: SpeedProfile, grid: ContinuumGrid, background_c: float = 1.0):
        self.profile = profile
        self.grid = grid
        self.background_c = background_c
        self.r = grid.r
        sup = profile.sup_speed_sq(grid.span)
        if sup <= 0:
            raise ValueError("profile has no positive speeds on the grid")
        self.c_max = background_c * math.sqrt(sup)
        self._sponge, self.sponge_width = self._build_sponge()
        self.dt = grid.cfl_factor * grid.dx / self.c_max
        self._damping = sponge_factors(self._sponge, self.dt)
        self._static = None
        if not profile.time_dependent:
            face, speed = self._face_and_speed([0.0])
            self._static = face[0], speed[0]
        self._accel = np.zeros(grid.n_points)
        self.psi_prev = np.zeros(grid.n_points)
        self.psi_cur = np.zeros(grid.n_points)
        self.time = 0.0

    def _build_sponge(self) -> tuple[np.ndarray, float]:
        """Damping rate per node, and the length it ramps over at each end (0 for reflecting ends)."""
        n = self.grid.n_points
        gamma = np.zeros(n)
        if self.grid.boundary == "reflecting":
            return gamma, 0.0
        width = max(4, int(round(SPONGE_FRACTION * n)))
        ramp = (np.arange(1, width + 1) / width) ** 2
        gamma_max = SPONGE_STRENGTH * self.c_max / (width * self.grid.dx)
        gamma[:width] = gamma_max * ramp[::-1]
        gamma[-width:] = gamma_max * ramp
        return gamma, width * self.grid.dx

    def _node_speed_sq(self, times) -> np.ndarray:
        """c^2 at the nodes, one row per time."""
        s2 = self.profile.speed_sq(self.r, np.array(times)[:, None], background_c=self.background_c)
        return self.background_c**2 * np.broadcast_to(np.asarray(s2, dtype=float), (len(times), len(self.r)))

    def _face_and_speed(self, times) -> tuple:
        """c^2 at the cell faces, one row per time, and each row's largest face speed c."""
        if self._static is not None:
            face, speed = self._static
            return [face] * len(times), [speed] * len(times)
        node = self._node_speed_sq(times)
        face = 0.5 * (node[:, :-1] + node[:, 1:])
        return face, np.sqrt(np.maximum(face.max(axis=1), 0.0)).tolist()

    def initialize_pulse(self, pulse: GaussianPulse, direction: int = 1):
        """Launch a one-directional pulse.

        The second time level comes from a second-order Taylor step with
        psi_t = -direction * c(r) * d_r psi, which keeps the counter-moving
        residue small.
        """
        g = pulse(self.r)
        g[0] = g[-1] = 0.0
        c_local = np.sqrt(np.maximum(self._node_speed_sq([0.0])[0], 0.0))
        psi_t = -direction * c_local * np.gradient(g, self.grid.dx)
        accel = _flux_divergence(g, self._face_and_speed([0.0])[0][0], self.grid.dx, np.zeros_like(g))
        self.psi_prev = g
        self.psi_cur = g + self.dt * psi_t + 0.5 * self.dt**2 * accel
        self.psi_cur[0] = self.psi_cur[-1] = 0.0
        self.time = self.dt

    def _steps(self, times):
        """Step once at each of times in turn, yielding the new level after each; the profile is evaluated for all at once."""
        for face, c_inst in zip(*self._face_and_speed(times)):
            if self.dt * c_inst > self.grid.cfl_factor * self.grid.dx * (1.0 + 1e-9):
                raise CflViolation(
                    f"instantaneous c_max {c_inst} breaks the bound used for dt = {self.dt}"
                )
            nxt = fdtd_step(self.psi_prev, self.psi_cur, face, self.grid.dx, self.dt, self._damping, self._accel)
            self.psi_prev = self.psi_cur
            self.psi_cur = nxt
            self.time += self.dt
            yield nxt

    def step(self):
        for _ in self._steps([self.time]):
            pass

    def run(self, n_steps: int, snapshot_stride: int) -> Snapshots:
        """Step n_steps times through run_blocks, recording the field every snapshot_stride steps.

        The record starts with the pre-run level, psi_prev at time - dt, and
        ends with the final state.
        """
        times, values = run_blocks(self, n_steps, snapshot_stride, (self.time - self.dt, self.psi_prev))
        return Snapshots(times, self.r, values)

    def energy(self) -> float:
        """Discrete energy 1/2 sum dx [psi_t^2 + c^2 (d_r psi)^2].

        psi_t uses the half-step difference and the gradient term the
        product of the two known levels; this staggered form is conserved
        to rounding by the update for static speeds and reflecting ends.
        """
        dx = self.grid.dx
        v = (self.psi_cur - self.psi_prev) / self.dt
        face = self._face_and_speed([self.time])[0][0]
        gp = np.diff(self.psi_prev) / dx
        gc = np.diff(self.psi_cur) / dx
        return 0.5 * dx * float(np.sum(v * v)) + 0.5 * dx * float(np.sum(face * gp * gc))
