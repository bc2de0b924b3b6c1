"""Check by manufactured solutions that both solvers' stencils converge at second order.

Usage, from any directory:

    python tools/mms.py

Both solvers step psi_tt = d_r (c^2 d_r psi) + S on the one leapfrog
(wavelab.continuum.Leapfrog), with the moving coefficient
c^2 = 1 + 0.5 sin(2 pi (r - 0.3 t)) and the source S that makes a chosen
psi* exact, from psi* at their two first levels to T = 1 at step ratio
dt c_max / dx = 0.5 (dt then shortened to land on T). S is added to each
new level through a subclass's end rule, at the time of the level the step
reads, before the solver's own ends:

- the continuum's node-mean faces (ContinuumSolver, reflecting ends),
  psi* = sin(pi r) cos(2 pi t) on [0, 1], at 51 to 801 points;
- the ladder's cell faces (LadderSim, open ends, its default stability
  factor), phi* = exp(-(r - 0.5)^2 / 0.01) cos(2 pi t) on [-3, 4], at 200
  to 1,600 cells. The ladder's faces are |cos theta| <= 1, so it runs
  c^2 / 1.5 through a flux schedule on the clock t' = sqrt(1.5) t, which
  is the same equation with S / 1.5. At 100 cells the Gaussian spans about
  1.4 pitches, and the order from 100 to 200 reads about 1.86, before the
  asymptotic range; the ladder's table starts at 200.

Prints one markdown row per case: the max error at T at each resolution
and the observed order log2(e_h / e_(h/2)) of each refinement, and the same
for the faces sampled one step late, at t - dt, which is first order. Exits
1 when an order reads below 1.9, or when the late faces' order at the
finest refinement does not read below 1.5, since the check must tell the
two apart. The late error overtakes the stencil's own only on fine grids:
on the ladder's coarsest refinement the late faces still read about 2.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
T = 1.0
MIN_ORDER = 1.9
MAX_LATE_ORDER = 1.5


def speed_sq(r, t):
    return 1.0 + 0.5 * np.sin(2.0 * np.pi * (r - 0.3 * t))


def sine(r):
    """sin(pi r) and its first two derivatives."""
    return np.sin(np.pi * r), np.pi * np.cos(np.pi * r), -np.pi**2 * np.sin(np.pi * r)


def gaussian(r):
    """exp(-(r - 0.5)^2 / 0.01) and its first two derivatives."""
    g, u = np.exp(-((r - 0.5) ** 2) / 0.01), -200.0 * (r - 0.5)
    return g, u * g, (u * u - 200.0) * g


def exact(shape, r, t):
    return shape(r)[0] * np.cos(2.0 * np.pi * t)


def source(shape, r, t):
    """psi*_tt - d_r (c^2 d_r psi*) for psi* = shape(r) cos(2 pi t)."""
    x, dx, ddx = shape(r)
    dc2 = np.pi * np.cos(2.0 * np.pi * (r - 0.3 * t))
    return np.cos(2.0 * np.pi * t) * (-4.0 * np.pi**2 * x - dc2 * dx - speed_sq(r, t) * ddx)


class MovingSpeed:
    """The coefficient as a continuum profile, read lag late."""

    time_dependent = True

    def __init__(self):
        self.lag = 0.0

    def sup_speed_sq(self, span):
        return 1.5

    def speed_sq(self, r, t=0.0, background_c=1.0):
        return speed_sq(r, t - self.lag)


def continuum_error(n_points: int, late: bool) -> float:
    from fluxline.wavelab.continuum import ContinuumGrid, ContinuumSolver

    class Forced(ContinuumSolver):
        def _end(self, nxt, cur, prev, first, last):
            nxt += self.dt * self.dt * source(sine, self.r, self.time)
            super()._end(nxt, cur, prev, first, last)

    profile = MovingSpeed()
    solver = Forced(profile, ContinuumGrid(n_points, 1.0 / (n_points - 1), 0.0, "reflecting"))
    steps = math.ceil(T / solver.dt)
    solver.dt = T / steps
    profile.lag = solver.dt if late else 0.0
    solver.psi_prev, solver.psi_cur, solver.time = exact(sine, solver.r, 0.0), exact(sine, solver.r, solver.dt), solver.dt
    solver.run(steps - 1, steps)
    return float(np.max(np.abs(solver.psi_cur - exact(sine, solver.r, solver.time))))


def ladder_error(n_cells: int, late: bool) -> float:
    from fluxline.wavelab.ladder import LadderSim

    scale = math.sqrt(1.5)  # t' = scale t, so that c^2 / 1.5 <= 1 is |cos theta|

    class Forced(LadderSim):
        def _end(self, nxt, cur, prev, first, last):
            # phi lives at the half step time + dt/2
            nxt += self.dt * self.dt * source(gaussian, self.r, (self.time + 0.5 * self.dt) / scale) / 1.5
            super()._end(nxt, cur, prev, first, last)

    sim = Forced(n_cells, pitch=7.0 / n_cells, r_start=-3.0)
    steps = math.ceil(T * scale / sim.dt - 0.5)
    sim.dt = T * scale / (steps + 0.5)
    lag = sim.dt if late else 0.0

    def schedule(t):
        return np.arccos(speed_sq(sim.cell_r, (t - lag) / scale) / 1.5)

    half = 0.5 * sim.dt / scale
    sim.psi_prev, sim.psi_cur = exact(gaussian, sim.r, -half), exact(gaussian, sim.r, half)
    sim.run(steps, steps, schedule)
    return float(np.max(np.abs(sim.psi_cur - exact(gaussian, sim.r, (sim.time + 0.5 * sim.dt) / scale))))


CASES = {
    "continuum, node-mean faces": (continuum_error, (51, 101, 201, 401, 801)),
    "ladder, cell faces": (ladder_error, (200, 400, 800, 1600)),
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    print("| case | faces | sizes | max error at T | orders |")
    print("|---|---|---|---|---|")
    bad = []
    for name, (error, sizes) in CASES.items():
        for late in (False, True):
            errors = [error(n, late) for n in sizes]
            orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
            faces = "one step late" if late else "on time"
            row = " / ".join(f"{e:.3g}" for e in errors), " / ".join(f"{p:.2f}" for p in orders)
            print(f"| {name} | {faces} | {' / '.join(map(str, sizes))} | {row[0]} | {row[1]} |")
            if not late and not all(p >= MIN_ORDER for p in orders):
                bad.append(f"{name}: an order below {MIN_ORDER}")
            if late and not orders[-1] < MAX_LATE_ORDER:
                bad.append(f"{name}: faces one step late read an order of {MAX_LATE_ORDER} or more at the finest refinement")
    for line in bad:
        print(f"error: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
