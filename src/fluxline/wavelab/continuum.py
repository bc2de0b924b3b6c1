"""Leapfrog solver for the variable-speed wave equation on a 1-D grid.

The field obeys the flux-conservative form

    psi_tt = d_r ( c^2(r, t) d_r psi ),

chosen so the characteristic speed equals the local c and a discrete energy
exists. c^2 is sampled at cell faces as the arithmetic mean of the node
values. The time step is dt = cfl_factor * dx / c_max with c_max the
profile supremum over the whole run; the step raises CflViolation whenever
the instantaneous speed breaks that bound (possible for time-dependent or
tabulated profiles whose supremum was underestimated).

Boundaries: "reflecting" pins the field to zero at both ends; the default
"absorbing_sponge" additionally damps the field with a quadratic ramp over
the outer 10% of the domain on each side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..metrics import ParamError, SpeedProfile
from .fronts import Snapshot

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
    center: float
    width: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.width > 0:
            raise ParamError("width", "must be > 0")

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-((r - self.center) ** 2) / (2.0 * self.width**2))


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

    The solver owns two field levels (previous and current); run() collects
    snapshots every snapshot_stride steps. energy() returns the discrete
    energy in the staggered product form that the leapfrog update conserves
    exactly for static profiles with reflecting boundaries.
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
        self._static = None
        if not profile.time_dependent:
            self._static = self._face_and_speed(0.0)
        self._accel = np.zeros(grid.n_points)
        self.psi_prev = np.zeros(grid.n_points)
        self.psi_cur = np.zeros(grid.n_points)
        self.time = 0.0

    @property
    def dt(self) -> float:
        return self._dt

    @dt.setter
    def dt(self, value: float):
        # the damping factors follow dt; the step reuses them until dt changes
        self._dt = value
        self._damping = sponge_factors(self._sponge, value)

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

    def _node_speed_sq(self, t: float) -> np.ndarray:
        s2 = self.profile.speed_sq(self.r, t, background_c=self.background_c)
        return self.background_c**2 * np.asarray(s2, dtype=float)

    def _face_and_speed(self, t: float) -> tuple[np.ndarray, float]:
        """c^2 at the cell faces at time t, and the largest face speed c."""
        if self._static is not None:
            return self._static
        node = self._node_speed_sq(t)
        face = 0.5 * (node[:-1] + node[1:])
        return face, math.sqrt(max(float(np.max(face)), 0.0))

    def initialize_pulse(self, pulse: GaussianPulse, direction: int = 1):
        """Launch a one-directional pulse.

        The second time level comes from a second-order Taylor step with
        psi_t = -direction * c(r) * d_r psi, which keeps the counter-moving
        residue small.
        """
        g = pulse(self.r)
        g[0] = g[-1] = 0.0
        c_local = np.sqrt(np.maximum(self._node_speed_sq(0.0), 0.0))
        psi_t = -direction * c_local * np.gradient(g, self.grid.dx)
        face, _ = self._face_and_speed(0.0)
        accel = _flux_divergence(g, face, self.grid.dx, np.zeros_like(g))
        self.psi_prev = g
        self.psi_cur = g + self.dt * psi_t + 0.5 * self.dt**2 * accel
        self.psi_cur[0] = self.psi_cur[-1] = 0.0
        self.time = self.dt

    def step(self):
        face, c_inst = self._face_and_speed(self.time)
        if self.dt * c_inst > self.grid.cfl_factor * self.grid.dx * (1.0 + 1e-9):
            raise CflViolation(
                f"instantaneous c_max {c_inst} breaks the bound used for dt = {self.dt}"
            )
        nxt = fdtd_step(self.psi_prev, self.psi_cur, face, self.grid.dx, self.dt, self._damping, self._accel)
        self.psi_prev = self.psi_cur
        self.psi_cur = nxt
        self.time += self.dt

    def state(self) -> Snapshot:
        return Snapshot(time=self.time, r=self.r.copy(), values=self.psi_cur.copy())

    def run(self, t_end: float, snapshot_stride: int = 10) -> list[Snapshot]:
        """Advance to t_end, returning snapshots every snapshot_stride steps.

        The pre-run state is always included as the first snapshot.
        """
        snaps = [Snapshot(self.time - self.dt, self.r.copy(), self.psi_prev.copy())]
        steps = 0
        while self.time < t_end - 1e-12:
            self.step()
            steps += 1
            if steps % snapshot_stride == 0:
                snaps.append(self.state())
        if snaps[-1].time < self.time:
            snaps.append(self.state())
        return snaps

    def energy(self) -> float:
        """Discrete energy 1/2 sum dx [psi_t^2 + c^2 (d_r psi)^2].

        psi_t uses the half-step difference and the gradient term the
        product of the two known levels; this staggered form is conserved
        to rounding by the update for static speeds and reflecting ends.
        """
        dx = self.grid.dx
        v = (self.psi_cur - self.psi_prev) / self.dt
        face, _ = self._face_and_speed(self.time)
        gp = np.diff(self.psi_prev) / dx
        gc = np.diff(self.psi_cur) / dx
        return 0.5 * dx * float(np.sum(v * v)) + 0.5 * dx * float(np.sum(face * gp * gc))
