"""Telegrapher LC ladder with flux-tunable cell inductance, stepped in its node flux.

Cells i = 0..n-1 carry series inductors L_i = L0 / |cos theta_i| between
nodes i and i+1; every node has unit capacitance to ground. The field is
the node flux phi = integral of V dt, the coordinate of the circuit
Lagrangian (M. H. Devoret, "Quantum fluctuations in electrical circuits",
Les Houches 1995; for a dc-SQUID line P. D. Nation, M. P. Blencowe,
A. J. Rimberg and E. Buks, PRL 103, 087004 (2009)), at half steps: node
voltages V = (phi^(k+1/2) - phi^(k-1/2)) / dt live at whole steps and cell
i's branch flux is -(phi_{i+1} - phi_i). Charge balance at each node is
then the continuum's leapfrog (continuum.Leapfrog) with dx = pitch and face
c^2 = |cos theta_i| at each cell, sampled at t_k + dt/2, where phi lives;
retuning a cell keeps phi and rescales its current. Long wavelengths
travel at sqrt|cos theta| in coordinate units of c0. The launch is the
continuum's, with a node's c^2 the mean of its two cells (an end node's
one cell) and its two levels at -/+ dt/2; the record is phi at each whole
step, the mean of its two half-step levels.

Stability requires dt < sqrt(L_min), the shared test at bound 1 with the
continuum's CflViolation; the step is stability_factor * sqrt(L0) and
L_i >= L0 for any flux. A cell at the pi/2 window, one synthesis counts as
hot, is a face near 0 that carries next to no current, as a SQUID at
Phi0/2 passes no supercurrent; nothing divides by it. A flux schedule takes
the (k, 1) half-step times of each block that run() takes through
continuum.run_blocks and returns (k, n_cells) angles; the cells keep the
last row applied.

Ends: an end node has no branch beyond it, a zero ghost flux. "absorbing"
terminates it in its own end cell's impedance sqrt(L_end), which drains
dt V / sqrt(L_end) = k (phi^(k+1/2) - phi^(k-1/2)) from it, k = dt
sqrt(face_end) / pitch from each step's row; "reflecting" leaves it open,
k = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .continuum import Leapfrog, check_grid, run_blocks
from .fronts import Snapshots

__all__ = ["LadderSim"]


class LadderSim(Leapfrog):
    """Flux-driven LC ladder on n_cells cells; its node flux phi is psi_prev and psi_cur, at time -/+ dt/2.

    Geometry: node i sits at r[i] = r_start + i * pitch; cell midpoints
    halfway between. With unit capacitance L0 is pitch^2, so that the
    flux-free line carries long wavelengths at speed c0 = 1 in coordinate
    units. run() returns one Snapshots record of the node flux on r.
    """

    _lead = 0.5

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
        check_grid("pitch", pitch, r_start, boundary)
        if not 0.0 < stability_factor < 1.0:
            raise ValueError("stability_factor must lie in (0, 1)")
        super().__init__(r_start + np.arange(n_cells + 1) * pitch, pitch)
        self.n_cells = n_cells
        self.pitch = pitch
        self.L0 = pitch * pitch
        self.boundary = boundary
        # k is taken at an absorbing end, 0 at an open one
        self._load = 1.0 if boundary == "absorbing" else 0.0
        self.cell_r = 0.5 * (self.r[:-1] + self.r[1:])
        self.dt = stability_factor * math.sqrt(self.L0)
        # |cos theta| of the cells as they are
        self._face = np.ones(n_cells)

    @property
    def inductance(self) -> np.ndarray:
        """Each cell's inductance L0 / |cos theta|, as the cells are."""
        return self.L0 / self._face

    def _record(self, out):
        np.add(self.psi_prev, self.psi_cur, out=out)
        return np.multiply(out, 0.5, out=out)

    def set_flux(self, theta_total):
        """Apply total flux angles per cell (scalar broadcasts); an unstable row is refused, not applied."""
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

    def _node_speed_sq(self, times) -> np.ndarray:
        """c^2 at the nodes, one row per time: the mean of a node's two cells' faces, an end node's one face."""
        face = self._face_rows(times)
        return np.concatenate((face[:, :1], 0.5 * (face[:, :-1] + face[:, 1:]), face[:, -1:]), axis=1)

    def _checked(self, face) -> tuple:
        """A block of |cos theta| rows as a step takes them: _bounded's rows at bound 1, their k at both ends (0 if open), refusal."""
        rows, k, refusal = self._bounded(face, 1.0)
        return rows, (k * self._load).tolist(), refusal

    def _moving(self, flux_schedule=None) -> bool:
        """Whether the faces move: a flux schedule retunes the cells each step."""
        return flux_schedule is not None

    def _end(self, nxt, cur, prev, first, last):
        """Each end node, fed by its one cell, drains k (cur - prev) into its load: first and last are the ends' k."""
        nxt[0] = nxt.item(0) - first * (cur.item(0) - prev.item(0))
        nxt[-1] = nxt.item(-1) - last * (cur.item(-1) - prev.item(-1))

    def run(self, n_steps: int, snapshot_stride: int, flux_schedule=None, recorded=None) -> Snapshots:
        """Step n_steps times through run_blocks, recording phi on r every snapshot_stride steps.

        The record starts with phi at time and ends with the final state;
        recorded is as in ContinuumSolver.run.
        """
        first = self.time, self._record(np.empty(len(self.r)))
        return run_blocks(self, n_steps, snapshot_stride, first, self.r, recorded, flux_schedule)
