"""Telegrapher LC ladder with flux-tunable cell inductance.

Cells i = 0..n-1 carry series inductors L_i = L0 / |cos theta_i| between
nodes i and i+1; every node has unit capacitance to ground. Leapfrog staggers
node voltages (integer steps) against branch fluxes (half steps):

    flux_i   += dt * (V_i - V_{i+1})      inductor branch, flux variable
    I_i       = flux_i / L_i(t)           time-varying L enters here
    dV_i/dt   = I_{i-1} - I_i             charge balance at node i

Driving the inductor through its branch flux (rather than L dI/dt) keeps the
energy bookkeeping consistent when theta_i changes during a run. The lattice
dispersion is omega(k) = 2 sin(k d / 2) / sqrt(L); long wavelengths travel
at d / sqrt(L), i.e. sqrt|cos theta| in coordinate units of c0.

Stability requires dt < sqrt(L_min). The step is stability_factor *
sqrt(L0) (verification uses the default 0.5), and since L_i >= L0 for any
flux, the bound never tightens below sqrt(L0) during a run. Cells with
|cos theta_i| < synthesis.WINDOW_GUARD, the cells synthesis counts as hot,
have effectively infinite inductance and are rejected (SingularInductance).

A flux schedule takes the (k, 1) half-step times of each block of up to
BLOCK_STEPS steps that run() takes through continuum.run_blocks and returns
(k, n_cells) angles, turned into inductances at once by set_flux's checks;
each step applies its row, and step() alone is a block of one.

Boundaries: "reflecting" leaves the end nodes open-circuited; "absorbing"
terminates each end in its own end cell's impedance sqrt(L_end), taken
once from each inductance row the cells are set to, so it follows every
set_flux row.
"""

from __future__ import annotations

import math

import numpy as np

from ..synthesis import WINDOW_GUARD
from .continuum import BOUNDARIES, GaussianPulse, run_blocks
from .fronts import Snapshots

__all__ = [
    "StabilityViolation",
    "SingularInductance",
    "LadderSim",
    "ladder_step",
]


class StabilityViolation(RuntimeError):
    """dt at or above the leapfrog bound sqrt(L_min)."""


class SingularInductance(RuntimeError):
    """A cell sits at the pi/2 window where the inductance diverges."""


def ladder_step(voltages, branch_flux, inductance, dt, absorbing):
    """One leapfrog step; the pure kernel whose arithmetic LadderSim's step runs.

    With absorbing, each end node drains into the load sqrt(L) of its own end
    cell; otherwise both are open. Returns (voltages', branch_flux', currents
    at the new half step).
    """
    z_first, z_last = np.sqrt(inductance[[0, -1]]) if absorbing else (math.inf, math.inf)
    return _loaded_step(voltages, branch_flux, inductance, dt, z_first, z_last)


def _loaded_step(voltages, branch_flux, inductance, dt, z_first, z_last):
    """ladder_step with the end nodes draining into the loads z_first and z_last (inf: open)."""
    flux = branch_flux + dt * (voltages[:-1] - voltages[1:])
    currents = flux / inductance
    v = voltages.copy()
    v[1:-1] += dt * (currents[:-1] - currents[1:])
    v[0] += dt * (-currents[0] - voltages[0] / z_first)
    v[-1] += dt * (currents[-1] - voltages[-1] / z_last)
    return v, flux, currents


class LadderSim:
    """Flux-driven LC ladder on n_cells cells.

    Geometry: node i sits at r_start + i * pitch; cell midpoints halfway
    between. With unit capacitance L0 is pitch^2, so that the flux-free
    line carries long wavelengths at speed c0 = 1 in coordinate units.
    run() returns one Snapshots record of the node voltages on node_r.
    """

    def __init__(
        self,
        n_cells: int,
        pitch: float = 1.0,
        r_start: float = 0.0,
        stability_factor: float = 0.5,
        boundary: str = "reflecting",
    ):
        if n_cells < 2:
            raise ValueError("n_cells must be >= 2")
        if boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        if not 0.0 < stability_factor < 1.0:
            raise ValueError("stability_factor must lie in (0, 1)")
        self.n_cells = n_cells
        self.pitch = pitch
        self.L0 = pitch * pitch
        self.boundary = boundary
        self.node_r = r_start + np.arange(n_cells + 1) * pitch
        self.cell_r = 0.5 * (self.node_r[:-1] + self.node_r[1:])
        self.dt = stability_factor * math.sqrt(self.L0)
        self.inductance = np.full(n_cells, self.L0)
        self.voltages = np.zeros(n_cells + 1)
        self.branch_flux = np.zeros(n_cells)
        self._v_prev = np.zeros(n_cells + 1)
        self.time = 0.0

    @property
    def inductance(self) -> np.ndarray:
        """Each cell's inductance; setting it takes the ends' loads for every step until the next setting."""
        return self._inductance

    @inductance.setter
    def inductance(self, value):
        self._inductance = value
        self._loads = (math.sqrt(value[0]), math.sqrt(value[-1])) if self.boundary == "absorbing" else (math.inf, math.inf)

    def set_flux(self, theta_total):
        """Apply total flux angles per cell (scalar broadcasts)."""
        for _ in self._set_flux_rows(np.broadcast_to(theta_total, (1, self.n_cells))):
            pass

    def _set_flux_rows(self, theta_total):
        """Apply each row of a (k, n_cells) block of angles in turn, yielding after each.

        The block is converted at once; a bad row raises when it is applied.
        """
        theta = np.array(theta_total, dtype=float)
        cos = np.abs(np.cos(theta))
        singular = np.any(cos < WINDOW_GUARD, axis=1).tolist()
        inductance = self.L0 / cos
        unstable = (self.dt >= np.sqrt(inductance.min(axis=1))).tolist()
        for j in range(len(theta)):
            if singular[j]:
                i = int(np.argmin(cos[j]))
                raise SingularInductance(
                    f"|cos theta| = {cos[j, i]} < {WINDOW_GUARD} at cell {i}"
                )
            self.inductance = inductance[j]
            if unstable[j]:
                raise StabilityViolation("dt at or above sqrt(L_min) after flux update")
            yield

    def initialize_pulse(self, pulse: GaussianPulse, direction: int = 1):
        """Launch a one-directional voltage pulse.

        Node voltages hold the pulse at t = 0. Branch fluxes hold L times the
        matched current V/Z of the one-way wave at t = +dt/2, evaluated at
        the midpoints shifted back by half a step of light travel; ladder_step
        reads them as the fluxes at t - dt/2, so the first currents run a
        step ahead of the voltages (ROADMAP item 12, not fixed here).
        """
        self.voltages = pulse(self.node_r)
        z = np.sqrt(self.inductance)
        c_local = self.pitch / z
        shifted = self.cell_r - direction * 0.5 * self.dt * c_local
        currents = direction * pulse(shifted) / z
        self.branch_flux = currents * self.inductance
        self._v_prev = self.voltages.copy()
        self.time = 0.0

    def _steps(self, times, flux_schedule=None):
        """Step once per entry of times, yielding the new voltages after each; flux_schedule retunes the cells first.

        It is sampled at the half steps times + dt/2, where the branch
        currents live: it takes a (k, 1) array of a block's half-step times
        and returns its angles, broadcastable to (k, n_cells).
        """
        tunings = range(len(times))
        if flux_schedule is not None:
            theta = flux_schedule((times + 0.5 * self.dt)[:, None])
            tunings = self._set_flux_rows(np.broadcast_to(theta, (len(times), self.n_cells)))
        for _ in tunings:
            self._v_prev = self.voltages
            self.voltages, self.branch_flux, _ = _loaded_step(
                self.voltages, self.branch_flux, self._inductance, self.dt, *self._loads
            )
            self.time += self.dt
            yield self.voltages

    def step(self):
        """Advance one step with the cells as they are."""
        for _ in self._steps([self.time]):
            pass

    def run(self, n_steps: int, snapshot_stride: int, flux_schedule=None, recorded=None) -> Snapshots:
        """Step n_steps times through run_blocks, recording the voltages on node_r every snapshot_stride steps.

        The record starts with the initial state and ends with the final
        one; recorded is as in ContinuumSolver.run.
        """
        return run_blocks(self, n_steps, snapshot_stride, (self.time, self.voltages), self.node_r, recorded, flux_schedule)

    def energy(self) -> float:
        """1/2 sum V^2 + 1/2 sum L I^2 in the staggered product form.

        The capacitor term multiplies the voltages of the two integer steps
        around the half step where the currents live; that combination is
        conserved exactly by the leapfrog update for static fluxes and
        reflecting ends.
        """
        cap = 0.5 * float(np.sum(self._v_prev * self.voltages))
        ind = 0.5 * float(np.sum(self.branch_flux**2 / self.inductance))
        return cap + ind
