"""Leapfrog solver for the variable-speed wave equation on a 1-D grid.

The field obeys the flux-conservative form

    psi_tt = d_r ( c^2(r, t) d_r psi ),

chosen so the characteristic speed equals the local c and a discrete energy
exists. Leapfrog launches and steps it for both solvers: here with c^2
sampled at cell faces as the arithmetic mean of the node values, and in
wavelab.ladder on the node flux with each cell's own |cos theta|. The time
step is dt = CFL_FACTOR * dx / c_max with c_max the profile supremum over
the whole run; the step raises CflViolation whenever the instantaneous
speed breaks that bound or is NaN (possible for time-dependent or
tabulated profiles whose supremum was underestimated), and so does the
ladder's at bound 1.
run_blocks, the run loop of both solvers, takes a given step count in
blocks of up to BLOCK_STEPS step times and records snapshot_count levels;
a time-dependent profile is evaluated once per block, each step takes its
row, and step() alone is a block of one. Leapfrog._block, one for both
solvers, takes the stability test and the ends' coefficients with the rows,
once per block, and a static row's once per dt and row.

Boundaries: "reflecting" pins the field to zero at both ends; the default
"absorbing" ends each side in Mur's first-order one-way condition (IEEE
Trans. EMC 23, 377 (1981)), psi_0' = psi_1 + (k - 1)/(k + 1) (psi_1' - psi_0)
with k = c dt / dx from the end face's c^2 in the step's own face row. In 1-D
every wave meets the end at normal incidence, so it is exact up to its
discretization. Every preset's c is constant in time at both ends; a moving
c at an end is read from each step's row all the same.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate, repeat
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
]

# the ends both solvers offer: each line's own impedance, or a wall
BOUNDARIES = ("absorbing", "reflecting")
# dt as a fraction of dx / c_max, the bound the step holds every instantaneous speed to
CFL_FACTOR = 0.5
# Most step times a moving profile is evaluated at in one numpy call, here and
# in the ladder. 16 spreads the call's overhead; on a 2-vCPU x86-64 Linux host,
# 64 was no faster per step and raised an alcubierre simulate's peak RSS by
# 1.7 MB, against 0.1 MB for 16.
BLOCK_STEPS = 16


def snapshot_count(n_steps: int, stride: int) -> int:
    """Levels run_blocks records over n_steps steps: the first, every stride-th and the last."""
    return 1 + -(-n_steps // stride)


def run_blocks(solver, n_steps: int, stride: int, first: tuple, r: np.ndarray, recorded, *args) -> Snapshots:
    """Take solver's next n_steps steps; returns (time, level) first, every stride-th level and the last on r.

    The step times, from the same += dt as solver.time, are set up front, so
    the record, a Snapshots.empty table, holds every time before the first
    step. Blocks of up to BLOCK_STEPS of them go with args to
    solver._steps(times, *args), which yields after each step, and
    solver._record(out) writes each level the table keeps. recorded(table,
    levels), unless None, is called with the count of final levels once first
    and then each later level is in the table.
    """
    table = Snapshots.empty(snapshot_count(n_steps, stride), r)
    t = np.array(list(accumulate(repeat(solver.dt, n_steps), initial=solver.time)))
    table.times[:] = t[np.minimum(np.arange(len(table)) * stride, n_steps)]
    (table.times[0], table.values[0]), row = first, 0
    recorded = recorded or (lambda table, levels: None)
    recorded(table, 1)
    for start in range(0, n_steps, BLOCK_STEPS):
        for done, _ in enumerate(solver._steps(t[start : min(start + BLOCK_STEPS, n_steps)], *args), start + 1):
            if done % stride == 0 or done == n_steps:
                row += 1
                solver._record(table.values[row])
                recorded(table, row + 1)
    return table


def check_grid(name: str, spacing: float, r_start: float, boundary: str):
    """Refuse either solver's grid with a ValueError naming its first bad field: spacing (as name), r_start or boundary."""
    if not 0.0 < spacing < math.inf:
        raise ValueError(f"{name} must be a finite number > 0, got {spacing!r}")
    if not -math.inf < r_start < math.inf:
        raise ValueError(f"r_start must be a finite number, got {r_start!r}")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}")


class CflViolation(RuntimeError):
    """The time step exceeds the stability bound for the current speeds."""


@dataclass(frozen=True)
class ContinuumGrid:
    """Spatial discretization of one run; dt follows from dx and CFL_FACTOR."""

    n_points: int
    dx: float
    r_start: float = 0.0
    boundary: str = "absorbing"

    def __post_init__(self):
        if self.n_points < 16:
            raise ValueError("n_points must be >= 16")
        check_grid("dx", self.dx, self.r_start, self.boundary)

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
        # __call__ divides by 2 width^2, which must neither overflow nor be subnormal
        if not sys.float_info.min <= 2.0 * self.width * self.width < math.inf:
            raise ParamError("width", "2 * width**2 must be a finite normal float")

    def __call__(self, r: np.ndarray) -> np.ndarray:
        # far from a narrow pulse the exponent overflows to -inf, and exp gives its limit 0
        with np.errstate(over="ignore"):
            return np.exp(-((r - self.center) ** 2) / (2.0 * self.width**2))


def _flux_divergence(psi, face_speed_sq, dx, out, flux):
    """d_r (c^2 d_r psi) at the interior nodes, written into out[1:-1]; flux holds the n-1 face fluxes."""
    np.subtract(psi[1:], psi[:-1], out=flux)
    np.multiply(face_speed_sq, flux, out=flux)
    np.divide(flux, dx, out=flux)
    np.subtract(flux[1:], flux[:-1], out=out[1:-1])
    np.divide(out[1:-1], dx, out=out[1:-1])
    return out


def fdtd_step(psi_prev, psi_cur, face_speed_sq, dx, dt, accel, out=None, flux=None, product=None):
    """One leapfrog step with pinned ends; the pure kernel whose arithmetic Leapfrog's step runs, in its order.

    psi_prev/psi_cur are the two known time levels; face_speed_sq holds
    c^2 at the n-1 cell faces. accel is a buffer of psi's length with zero
    ends; its interior is overwritten. Ends are pinned to zero. The new level
    is written into out, and flux (n-1 values) and product (n) are scratch;
    each is allocated when not given, and none may share memory with the
    levels. The arithmetic is (2 psi_cur - psi_prev) + (dt dt) accel in this
    order, so a buffered step gives the bits an allocating one does.
    """
    out = np.empty_like(psi_cur) if out is None else out
    flux = np.empty(len(psi_cur) - 1) if flux is None else flux
    product = np.empty_like(psi_cur) if product is None else product
    _flux_divergence(psi_cur, face_speed_sq, dx, accel, flux)
    np.multiply(psi_cur, 2.0, out=out)
    np.subtract(out, psi_prev, out=out)
    np.multiply(accel, dt * dt, out=product)
    np.add(out, product, out=out)
    out[0] = 0.0
    out[-1] = 0.0
    return out


class Leapfrog:
    """The leapfrog of both solvers on the nodes r, dx apart, holding the levels psi_prev and psi_cur.

    psi_cur sits _lead steps after time: 0 for a field at whole steps, 1/2
    for one at half steps. A step writes the next level into whichever of
    its three own level buffers holds neither, and its fluxes and products
    into its own scratch: it allocates no array of the grid's size and never
    writes to one that initialize_pulse or a caller set. A solver sets dt
    and _face, and supplies _moving(*args), _checked(face rows), _end(nxt,
    cur, prev, first, last), _face_rows(times, *args), _node_speed_sq(times)
    and _record(out), which writes the field at time.
    """

    _lead = 0.0

    def __init__(self, r: np.ndarray, dx: float):
        n_points = len(r)
        self.r = r
        self._dx = dx
        self._accel = np.empty(n_points)
        self._levels = [np.empty(n_points) for _ in range(3)]
        # the n - 1 face fluxes, between the zero ghost fluxes beyond the ends
        self._flux = np.zeros(n_points + 1)
        self._product = np.empty(n_points)
        # the views a step reads and writes, made once: each level buffer's psi[1:] and psi[:-1], keyed by id
        self._shifted = {id(level): (level[1:], level[:-1]) for level in self._levels}
        self._flux_views = self._flux[1:-1], self._flux[1:], self._flux[:-1]
        self._static = None
        self.psi_prev = np.zeros(n_points)
        self.psi_cur = np.zeros(n_points)
        self.time = 0.0

    def _bounded(self, face, bound) -> tuple:
        """Both solvers' stability test: (rows, k, refusal), rows stopping before the first whose face speed c breaks dt c <= bound dx.

        refusal is the CflViolation naming that c, or None; k holds each kept row's dt sqrt(face) / dx at its two end faces.
        """
        speeds = np.sqrt(np.maximum(face.max(axis=1), 0.0))
        # written as not <=, so that a NaN speed breaks the bound too
        breaks = np.flatnonzero(~(self.dt * speeds <= bound * self._dx * (1.0 + 1e-9)))
        stop = int(breaks[0]) if len(breaks) else len(face)
        k = self.dt * np.sqrt(np.maximum(face[:stop, [0, -1]], 0.0)) / self._dx
        refusal = None
        if len(breaks):
            refusal = CflViolation(f"instantaneous c_max {float(speeds[stop])} breaks the bound used for dt = {self.dt}")
        return list(face[:stop]), k, refusal

    def _block(self, times, *args) -> tuple:
        """The _checked block of times: moving faces' rows, the last applied kept in _face, or _face's row, checked once per dt and row."""
        if self._moving(*args):
            rows, ends, refusal = self._checked(self._face_rows(times, *args))
            if rows:
                self._face = rows[-1]
            return rows, ends, refusal
        if self._static is None or self._static[0] is not self._face or self._static[1] != self.dt:
            self._static = self._face, self.dt, self._checked(self._face[None])
        rows, ends, refusal = self._static[2]
        return rows * len(times), ends * len(times), refusal

    def _free_level(self) -> np.ndarray:
        """The level buffer that holds neither psi_prev nor psi_cur."""
        for level in self._levels:
            if level is not self.psi_prev and level is not self.psi_cur:
                return level

    def _steps(self, times, *args):
        """Step once at each of times in turn, yielding after each; _block takes the rows and ends for all of times at once.

        Each step is fdtd_step's arithmetic, in its order, on the views made in
        __init__ (a level that a caller set is sliced instead), at every node,
        with zero flux beyond either end; _end then applies the solver's ends.
        """
        rows, ends, refusal = self._block(times, *args)
        dx, dt2, end = self._dx, self.dt * self.dt, self._end
        accel, product = self._accel, self._product
        faces, flux_hi, flux_lo = self._flux_views
        for face, (first, last) in zip(rows, ends):
            prev, cur = self.psi_prev, self.psi_cur
            nxt = self._free_level()
            cur_hi, cur_lo = self._shifted.get(id(cur)) or (cur[1:], cur[:-1])
            np.subtract(cur_hi, cur_lo, out=faces)
            np.multiply(face, faces, out=faces)
            np.divide(faces, dx, out=faces)
            np.subtract(flux_hi, flux_lo, out=accel)
            np.divide(accel, dx, out=accel)
            np.multiply(cur, 2.0, out=nxt)
            np.subtract(nxt, prev, out=nxt)
            np.multiply(accel, dt2, out=product)
            np.add(nxt, product, out=nxt)
            end(nxt, cur, prev, first, last)
            self.psi_prev = cur
            self.psi_cur = nxt
            self.time += self.dt
            yield
        if refusal is not None:
            raise refusal

    def initialize_pulse(self, pulse: GaussianPulse, direction: int = 1):
        """Launch a one-directional pulse: the field at t = 0 is pulse on r, with zero ends.

        The two known levels, at t = -_lead dt and (1 - _lead) dt, come from
        a second-order Taylor step with psi_t = -direction * c(r) * d_r psi,
        c^2 the solver's node values, which keeps the counter-moving residue
        small; time is then (1 - 2 _lead) dt.
        """
        g = pulse(self.r)
        g[0] = g[-1] = 0.0
        c_local = np.sqrt(np.maximum(self._node_speed_sq([0.0])[0], 0.0))
        psi_t = -direction * c_local * np.gradient(g, self._dx)
        accel = _flux_divergence(g, self._face_rows([0.0])[0], self._dx, np.zeros_like(g), self._flux_views[0])
        lead = self._lead * self.dt
        self.psi_prev, self.psi_cur = (g + s * psi_t + 0.5 * s**2 * accel for s in (-lead, self.dt - lead))
        self.psi_prev[0] = self.psi_prev[-1] = self.psi_cur[0] = self.psi_cur[-1] = 0.0
        self.time = self.dt - 2.0 * lead

    def step(self):
        """Advance one step, a block of one."""
        for _ in self._steps([self.time]):
            pass

    def energy(self) -> float:
        """Discrete energy 1/2 sum dx [psi_t^2 + face (d_r psi)^2].

        psi_t uses the half-step difference and the gradient term the
        product of the two known levels; this staggered form is conserved
        to rounding by the update for static faces and reflecting ends.
        """
        dx = self._dx
        v = (self.psi_cur - self.psi_prev) / self.dt
        face = self._face_rows([self.time])[0]
        gp = np.diff(self.psi_prev) / dx
        gc = np.diff(self.psi_cur) / dx
        return 0.5 * dx * float(np.sum(v * v)) + 0.5 * dx * float(np.sum(face * gp * gc))


class ContinuumSolver(Leapfrog):
    """Time-steps one profile on one grid, psi_cur at time.

    run() returns one Snapshots record of the field every snapshot_stride
    steps, on the solver's own grid r.
    """

    def __init__(self, profile: SpeedProfile, grid: ContinuumGrid, background_c: float = 1.0):
        super().__init__(grid.r, grid.dx)
        self.profile = profile
        self.grid = grid
        self.background_c = background_c
        sup = profile.sup_speed_sq(grid.span)
        if not 0.0 < sup < math.inf:
            raise ValueError(f"profile's supremum speed_sq on the grid must be a finite number > 0, got {sup!r}")
        self.c_max = background_c * math.sqrt(sup)
        self.dt = CFL_FACTOR * grid.dx / self.c_max
        self._absorbing = grid.boundary == "absorbing"
        self._moves = True
        if not profile.time_dependent:
            self._face = self._face_rows([0.0])[0]
            self._moves = False

    def _moving(self) -> bool:
        """Whether the faces move: the profile's time dependence, read once, in __init__."""
        return self._moves

    def _node_speed_sq(self, times) -> np.ndarray:
        """c^2 at the nodes, one row per time."""
        s2 = self.profile.speed_sq(self.r, np.array(times)[:, None], background_c=self.background_c)
        return self.background_c**2 * np.broadcast_to(np.asarray(s2, dtype=float), (len(times), len(self.r)))

    def _face_rows(self, times) -> np.ndarray:
        """c^2 at the cell faces, one row per time; a static profile's row is evaluated once, in __init__."""
        if not self._moves:
            return np.broadcast_to(self._face, (len(times), len(self._face)))
        node = self._node_speed_sq(times)
        return 0.5 * (node[:, :-1] + node[:, 1:])

    def _checked(self, face) -> tuple:
        """A block of face rows as a step takes them: _bounded's rows, each row's Mur coefficients (k - 1)/(k + 1), refusal."""
        rows, k, refusal = self._bounded(face, CFL_FACTOR)
        return rows, ((k - 1.0) / (k + 1.0)).tolist(), refusal

    def _end(self, nxt, cur, prev, first, last):
        """Mur's one-way end, first and last its coefficients, or with reflecting ends the field pinned to zero."""
        nxt[0] = cur.item(1) + first * (nxt.item(1) - cur.item(0)) if self._absorbing else 0.0
        nxt[-1] = cur.item(-2) + last * (nxt.item(-2) - cur.item(-1)) if self._absorbing else 0.0

    def _record(self, out):
        out[:] = self.psi_cur

    def run(self, n_steps: int, snapshot_stride: int, recorded=None) -> Snapshots:
        """Step n_steps times through run_blocks, recording the field on r every snapshot_stride steps.

        The record starts with the pre-run level, psi_prev at time - dt, and
        ends with the final state; recorded is called as run_blocks does.
        """
        return run_blocks(self, n_steps, snapshot_stride, (self.time - self.dt, self.psi_prev), self.r, recorded)
