"""Telegrapher LC ladder with flux-tunable cell inductance, stepped in its node flux.

Cells i = 0..n-1 carry series inductors L_i = L0 / |cos theta_i| between
nodes i and i+1; every node has unit capacitance to ground. The state is
the node flux phi = integral of V dt, the coordinate of the circuit
Lagrangian (M. H. Devoret, "Quantum fluctuations in electrical circuits",
Les Houches 1995; for a dc-SQUID line P. D. Nation, M. P. Blencowe,
A. J. Rimberg and E. Buks, PRL 103, 087004 (2009)), at half steps: node
voltages V = (phi^(k+1/2) - phi^(k-1/2)) / dt live at whole steps and cell
i's branch flux is -(phi_{i+1} - phi_i). Charge balance at each node is
then the continuum's leapfrog (continuum.Leapfrog) with dx = pitch and face
c^2 = |cos theta_i| at each cell, sampled at t_k + dt/2, where phi lives;
retuning a cell keeps phi and rescales its current. Long wavelengths
travel at sqrt|cos theta| in coordinate units of c0.

Stability requires dt < sqrt(L_min), the shared test at bound 1; the step
is stability_factor * sqrt(L0) and L_i >= L0 for any flux. Cells with
|cos theta_i| < synthesis.WINDOW_GUARD, the cells synthesis counts as hot,
are refused (SingularInductance). A flux schedule takes the (k, 1)
half-step times of each block that run() takes through continuum.run_blocks
and returns (k, n_cells) angles.

Ends: an end node has no branch beyond it, a zero ghost flux. "absorbing"
terminates it in its own end cell's impedance sqrt(L_end), which drains
dt V / sqrt(L_end) = k (phi^(k+1/2) - phi^(k-1/2)) from it, k = dt
sqrt(face_end) / pitch from each step's row; "reflecting" leaves it open,
k = 0.
"""

from __future__ import annotations

import math

import numpy as np

from ..synthesis import WINDOW_GUARD
from .continuum import BOUNDARIES, GaussianPulse, Leapfrog, check_spacing, run_blocks
from .fronts import Snapshots

__all__ = [
    "StabilityViolation",
    "SingularInductance",
    "LadderSim",
]


class StabilityViolation(RuntimeError):
    """dt above the leapfrog bound sqrt(L_min), by the continuum's test with its 1e-9 slack."""


class SingularInductance(RuntimeError):
    """A cell sits at the pi/2 window where the inductance diverges."""


class LadderSim(Leapfrog):
    """Flux-driven LC ladder on n_cells cells; its node flux phi is psi_prev and psi_cur, at time -/+ dt/2.

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
        check_spacing("pitch", pitch)
        if boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        if not 0.0 < stability_factor < 1.0:
            raise ValueError("stability_factor must lie in (0, 1)")
        super().__init__(n_cells + 1, pitch)
        self.n_cells = n_cells
        self.pitch = pitch
        self.L0 = pitch * pitch
        self.boundary = boundary
        # k is taken at an absorbing end, 0 at an open one
        self._load = 1.0 if boundary == "absorbing" else 0.0
        self.node_r = r_start + np.arange(n_cells + 1) * pitch
        self.cell_r = 0.5 * (self.node_r[:-1] + self.node_r[1:])
        self.dt = stability_factor * math.sqrt(self.L0)
        # |cos theta| of the cells as they are
        self._face = np.ones(n_cells)

    @property
    def inductance(self) -> np.ndarray:
        """Each cell's inductance L0 / |cos theta|, as the cells are."""
        return self.L0 / self._face

    @property
    def voltages(self) -> np.ndarray:
        """The node voltages at time, (phi^(k+1/2) - phi^(k-1/2)) / dt, in a new array."""
        return self._record(np.empty(self.n_cells + 1))

    def _record(self, out):
        np.subtract(self.psi_cur, self.psi_prev, out=out)
        return np.divide(out, self.dt, out=out)

    def set_flux(self, theta_total):
        """Apply total flux angles per cell (scalar broadcasts); a singular or unstable row is refused, not applied."""
        rows, _, refusal = self._checked(np.abs(np.cos(np.broadcast_to(theta_total, (1, self.n_cells)))))
        if refusal is not None:
            raise refusal
        self._face = rows[0]

    def _face_rows(self, times, flux_schedule=None) -> np.ndarray:
        """|cos theta| of the cells, one row per time: the cells as they are, or flux_schedule's angles at times + dt/2."""
        if flux_schedule is None:
            return np.broadcast_to(self._face, (len(times), self.n_cells))
        theta = flux_schedule((np.asarray(times) + 0.5 * self.dt)[:, None])
        return np.abs(np.cos(np.broadcast_to(theta, (len(times), self.n_cells))))

    def _checked(self, face) -> tuple:
        """A block of |cos theta| rows as a step takes them: (rows, ends, refusal).

        rows stop before the first row with a singular cell or dt above
        sqrt(L_min); ends holds each row's k at both ends, 0 if open.
        """
        singular = np.flatnonzero(np.any(face < WINDOW_GUARD, axis=1))
        rows, k, c = self._bounded(face[: singular[0] if len(singular) else len(face)], 1.0)
        refusal = None
        if c is not None:
            refusal = StabilityViolation("dt at or above sqrt(L_min) after flux update")
        elif len(singular):
            i = int(np.argmin(face[singular[0]]))
            refusal = SingularInductance(f"|cos theta| = {face[singular[0], i]} < {WINDOW_GUARD} at cell {i}")
        return rows, (k * self._load).tolist(), refusal

    def _block(self, times, flux_schedule=None) -> tuple:
        """The _checked block of times; the cells as they are, without a schedule, are checked once per dt and setting."""
        if flux_schedule is None:
            return self._static_block(self._face, len(times))
        block = self._checked(self._face_rows(times, flux_schedule))
        if block[0]:
            self._face = block[0][-1]
        return block

    def _end(self, nxt, cur, prev, first, last):
        """Each end node, fed by its one cell, drains k (cur - prev) into its load: first and last are the ends' k."""
        nxt[0] = nxt.item(0) - first * (cur.item(0) - prev.item(0))
        nxt[-1] = nxt.item(-1) - last * (cur.item(-1) - prev.item(-1))

    def initialize_pulse(self, pulse: GaussianPulse, direction: int = 1):
        """Launch a one-directional voltage pulse, converted to node flux.

        Node voltages V0 hold the pulse at t = 0. Branch fluxes F hold L
        times the matched current V/Z of the one-way wave at t = +dt/2, at
        the midpoints shifted back by half a step of light travel, and are
        read as the fluxes at -dt/2: phi^(-1/2) = -cumsum(F) with phi_0 = 0,
        and phi^(1/2) = phi^(-1/2) + dt V0. So the first currents run a step
        ahead of the voltages (ROADMAP item 12, not fixed here).
        """
        inductance = self.inductance
        z = np.sqrt(inductance)
        c_local = self.pitch / z
        shifted = self.cell_r - direction * 0.5 * self.dt * c_local
        currents = direction * pulse(shifted) / z
        self.psi_prev = np.concatenate(([0.0], -np.cumsum(currents * inductance)))
        self.psi_cur = self.psi_prev + self.dt * pulse(self.node_r)
        self.time = 0.0

    def run(self, n_steps: int, snapshot_stride: int, flux_schedule=None, recorded=None) -> Snapshots:
        """Step n_steps times through run_blocks, recording the voltages on node_r every snapshot_stride steps.

        The record starts with the initial state and ends with the final
        one; recorded is as in ContinuumSolver.run.
        """
        return run_blocks(self, n_steps, snapshot_stride, (self.time, self.voltages), self.node_r, recorded, flux_schedule)
