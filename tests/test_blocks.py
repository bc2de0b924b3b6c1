"""Moving profiles evaluated once per block of steps, against per-step loops.

The continuum solver evaluates a moving profile, and the ladder samples its
flux schedule, for a block of up to BLOCK_STEPS upcoming step times in one
numpy call. The
reference loops below step each solver one step at a time, with one
profile evaluation per step: the continuum's loop as first written, and the
ladder's node flux on the same stencil. Every operation involved is
elementwise, so the snapshots must agree bit for bit, and every refusal
must come at the same step with the same text.
"""

import math
import mmap

import numpy as np
import pytest

from fluxline.config import load_raw_config, validate_config
from fluxline.metrics import GodelParams, godel_profile
from fluxline.synthesis import HALF_PI, ArrayConfig, invert_speed_sq, synthesize_program
from fluxline.wavelab import (
    CflViolation,
    ContinuumGrid,
    ContinuumSolver,
    GaussianPulse,
    LadderSim,
)
from fluxline.wavelab.continuum import BLOCK_STEPS, CFL_FACTOR, Leapfrog, fdtd_step
from fluxline.wavelab.fronts import Snapshots

THETA_DC = -0.36 * math.pi
BG = math.sqrt(math.cos(THETA_DC))
PROFILES = {
    "top_hat": [],
    "smooth_wall": ["metric.top_hat=false", "metric.sigma=8"],
}
# one run shorter than a block, one across two block boundaries
STEPS = (BLOCK_STEPS // 2 + 3, 2 * BLOCK_STEPS + 5)


def alcubierre(wall):
    return validate_config(load_raw_config(preset="alcubierre", overrides=PROFILES[wall])).profile


class Recording:
    """A profile that records every time it is evaluated at."""

    def __init__(self, profile):
        self._profile = profile
        self.times = []

    def __getattr__(self, name):
        return getattr(self._profile, name)

    def speed_sq(self, r, t=0.0, background_c=1.0):
        self.times.extend(np.ravel(t).tolist())
        return self._profile.speed_sq(r, t, background_c)


def continuum_solver(profile):
    grid = ContinuumGrid(n_points=400, dx=40.0 / 399)
    solver = ContinuumSolver(profile, grid, BG)
    solver.initialize_pulse(GaussianPulse(6.0, 0.35), 1)
    return solver


def reference_continuum_run(solver, t_end, stride):
    """ContinuumSolver.run as first written: the profile evaluated at each step's own time."""

    def face_and_speed(t):
        s2 = solver.profile.speed_sq(solver.r, t, background_c=solver.background_c)
        node = solver.background_c**2 * np.asarray(s2, dtype=float)
        face = 0.5 * (node[:-1] + node[1:])
        return face, math.sqrt(max(float(np.max(face)), 0.0))

    dx, dt = solver.grid.dx, solver.dt
    times, values = [solver.time - dt], [solver.psi_prev]
    steps = 0
    while solver.time < t_end - 1e-12:
        face, c_inst = face_and_speed(solver.time)
        # not <=, so that a NaN speed is refused too
        if not dt * c_inst <= CFL_FACTOR * dx * (1.0 + 1e-9):
            raise CflViolation(f"instantaneous c_max {c_inst} breaks the bound used for dt = {dt}")
        nxt = fdtd_step(solver.psi_prev, solver.psi_cur, face, dx, dt, np.zeros(len(solver.r)))
        # the grid's absorbing ends: Mur's one-way end, k from the end face of this step's row
        for end, inner, c2 in ((0, 1, face[0]), (-1, -2, face[-1])):
            k = dt * math.sqrt(c2) / dx
            nxt[end] = solver.psi_cur[inner] + (k - 1.0) / (k + 1.0) * (nxt[inner] - solver.psi_cur[end])
        solver.psi_prev, solver.psi_cur = solver.psi_cur, nxt
        solver.time += dt
        steps += 1
        if steps % stride == 0:
            times.append(solver.time)
            values.append(solver.psi_cur)
    if times[-1] < solver.time:
        times.append(solver.time)
        values.append(solver.psi_cur)
    return Snapshots(np.array(times), solver.r, np.array(values))


def ladder_sim():
    sim = LadderSim(n_cells=128, pitch=40.0 / 128, boundary="absorbing")
    sim.initialize_pulse(GaussianPulse(6.0, 0.35), 1)
    return sim


def profile_schedule(profile, sim):
    def schedule(t):
        """Total flux angle per cell at the half-step times t, as verify builds it."""
        s = np.asarray(profile.speed_sq(sim.cell_r, t, background_c=BG), dtype=float)
        return invert_speed_sq(s, THETA_DC)[1]

    return schedule


def reference_ladder_run(sim, n_steps, stride, schedule):
    """LadderSim.run as a per-step loop: the schedule sampled, the row checked and the node flux stepped at each half step.

    Each recorded level is the node flux at its whole step, the mean of the two half-step levels.
    """
    dx, dt = sim.pitch, sim.dt
    times, values = [sim.time], [0.5 * (sim.psi_prev + sim.psi_cur)]
    for k in range(1, n_steps + 1):
        theta = np.broadcast_to(np.asarray(schedule(sim.time + 0.5 * dt), dtype=float), (sim.n_cells,))
        face = np.abs(np.cos(theta))
        # dt < sqrt(L_min), L = pitch^2 / |cos theta|: the continuum's test and refusal at bound 1
        c_inst = math.sqrt(max(float(np.max(face)), 0.0))
        if not dt * c_inst <= 1.0 * dx * (1.0 + 1e-9):
            raise CflViolation(f"instantaneous c_max {c_inst} breaks the bound used for dt = {dt}")
        sim.set_flux(theta)
        prev, cur = sim.psi_prev, sim.psi_cur
        # the stencil at every node, with zero flux beyond the ends
        flux = np.concatenate(([0.0], face * (cur[1:] - cur[:-1]) / dx, [0.0]))
        nxt = 2.0 * cur - prev + (flux[1:] - flux[:-1]) / dx * (dt * dt)
        # an absorbing end drains k (cur - prev) into its own end cell's load, k = dt sqrt(face) / pitch
        if sim.boundary == "absorbing":
            k_first, k_last = (dt * math.sqrt(face[i]) / dx for i in (0, -1))
            nxt[0] -= k_first * (cur[0] - prev[0])
            nxt[-1] -= k_last * (cur[-1] - prev[-1])
        sim.psi_prev, sim.psi_cur = cur, nxt
        sim.time += dt
        if k % stride == 0 or k == n_steps:
            times.append(sim.time)
            values.append(0.5 * (sim.psi_prev + sim.psi_cur))
    return Snapshots(np.array(times), sim.r, np.array(values))


def assert_same_snapshots(got, want):
    assert got.times.tobytes() == want.times.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("n_steps", STEPS)
@pytest.mark.parametrize("wall", sorted(PROFILES))
def test_continuum_blocks_match_per_step_loop(wall, n_steps):
    profile = alcubierre(wall)
    solver, ref = continuum_solver(Recording(profile)), continuum_solver(Recording(profile))
    t_end = (n_steps + 0.5) * solver.dt
    got = solver.run(n_steps, 7)
    want = reference_continuum_run(ref, t_end, 7)
    assert_same_snapshots(got, want)
    # the profile is asked for the times the per-step loop asks for, none past the last step
    assert solver.profile.times == ref.profile.times
    assert len(solver.profile.times) == 2 + n_steps  # initialize_pulse evaluates twice at 0


@pytest.mark.parametrize("n_steps", STEPS)
@pytest.mark.parametrize("wall", sorted(PROFILES))
def test_ladder_blocks_match_per_step_loop(wall, n_steps):
    profile = alcubierre(wall)
    sim, ref = ladder_sim(), ladder_sim()
    seen, ref_seen = [], []

    def recorded(sim, seen):
        schedule = profile_schedule(profile, sim)

        def record(t):
            seen.extend(np.ravel(t).tolist())
            return schedule(t)

        return record

    got = sim.run(n_steps, 7, flux_schedule=recorded(sim, seen))
    want = reference_ladder_run(ref, n_steps, 7, recorded(ref, ref_seen))
    assert_same_snapshots(got, want)
    assert sim.inductance.tobytes() == ref.inductance.tobytes()
    # the schedule is asked for the half-step times the per-step loop asks for, none past the last step
    assert seen == ref_seen
    assert len(seen) == n_steps


# a static profile on a window narrow enough that both ends of the line see the pulse from the
# first step, so that each end's Mur coefficient or load moves the bits of every level
GODEL = godel_profile(GodelParams(a=1.0))
GODEL_WINDOW = (0.0, 3.8)
GODEL_PULSE = GaussianPulse(1.9, 0.35)


def godel_solver(profile):
    grid = ContinuumGrid(n_points=400, dx=(GODEL_WINDOW[1] - GODEL_WINDOW[0]) / 399, r_start=GODEL_WINDOW[0])
    solver = ContinuumSolver(profile, grid, BG)
    solver.initialize_pulse(GODEL_PULSE, 1)
    return solver


@pytest.mark.parametrize("n_steps", STEPS)
def test_continuum_blocks_match_per_step_loop_on_a_static_profile(n_steps):
    sim, ref = godel_solver(Recording(GODEL)), godel_solver(Recording(GODEL))
    assert 0.0 not in (ref.psi_cur[1], ref.psi_cur[-2])
    got = sim.run(n_steps, 7)
    want = reference_continuum_run(ref, (n_steps + 0.5) * sim.dt, 7)
    assert_same_snapshots(got, want)
    # the profile is evaluated in __init__ and by initialize_pulse, and never while stepping
    assert sim.profile.times == [0.0, 0.0]
    assert len(ref.profile.times) == 2 + n_steps


@pytest.mark.parametrize("n_steps", STEPS)
def test_ladder_blocks_match_per_step_loop_on_a_static_flux(n_steps):
    program = synthesize_program(GODEL, 0.45 * math.pi, ArrayConfig(n_cells=128), GODEL_WINDOW)
    theta = program.theta_total[:, 0]

    def sim():
        sim = LadderSim(n_cells=128, pitch=(GODEL_WINDOW[1] - GODEL_WINDOW[0]) / 128, r_start=GODEL_WINDOW[0],
                        boundary="absorbing")
        sim.set_flux(theta)
        sim.initialize_pulse(GODEL_PULSE, 1)
        return sim

    got_sim, ref = sim(), sim()
    assert 0.0 not in (ref.psi_cur[1], ref.psi_cur[-2])
    # the cells are tuned once, before the run; the reference retunes them to the same angles each half step
    got = got_sim.run(n_steps, 7)
    want = reference_ladder_run(ref, n_steps, 7, lambda t: theta)
    assert_same_snapshots(got, want)
    assert got_sim.inductance.tobytes() == ref.inductance.tobytes()


# the step that retunes or refuses, in the middle of the second block
RAISE_AT = BLOCK_STEPS + 6


def test_ladder_blocks_match_per_step_loop_through_a_hot_cell():
    """Every cell at 0.3, and from step RAISE_AT on the cell under the pulse at pi/2, a hot cell as the horizon's."""
    sim, ref = ladder_sim(), ladder_sim()
    hot = np.arange(sim.n_cells) == np.searchsorted(sim.cell_r, 6.0)

    def schedule(t):
        return np.where(hot & (np.asarray(t) > RAISE_AT * sim.dt), HALF_PI, 0.3)

    got = sim.run(2 * BLOCK_STEPS, 7, flux_schedule=schedule)
    want = reference_ladder_run(ref, 2 * BLOCK_STEPS, 7, schedule)
    assert_same_snapshots(got, want)
    assert sim.inductance.tobytes() == ref.inductance.tobytes()
    assert sim.inductance[hot] == sim.L0 / abs(math.cos(HALF_PI))
    # the hot cell moves the levels after it is applied, and only those
    cool = ladder_sim().run(2 * BLOCK_STEPS, 7, flux_schedule=lambda t: 0.3)
    assert cool.values[2].tobytes() == got.values[2].tobytes()
    assert cool.values[-1].tobytes() != got.values[-1].tobytes()


def softening_schedule(sim):
    """Every cell at 1.0, then 0.2 from step RAISE_AT on, which puts L_min below dt^2 for this dt."""
    sim.dt = 1.2 * math.sqrt(sim.L0)
    return lambda t: np.where(np.asarray(t) > RAISE_AT * sim.dt, 0.2, 1.0) + np.zeros(sim.n_cells)


def nan_schedule(sim):
    """Every cell at 0.3, and from step RAISE_AT on the cell under the pulse at NaN."""
    nan = np.arange(sim.n_cells) == np.searchsorted(sim.cell_r, 6.0)
    return lambda t: np.where(nan & (np.asarray(t) > RAISE_AT * sim.dt), math.nan, 0.3)


@pytest.mark.parametrize("make_schedule", [softening_schedule, nan_schedule], ids=["unstable", "nan"])
def test_ladder_refuses_mid_block_at_the_reference_step(make_schedule):
    sim, ref = ladder_sim(), ladder_sim()
    with pytest.raises(CflViolation) as got:
        sim.run(2 * BLOCK_STEPS, 7, flux_schedule=make_schedule(sim))
    with pytest.raises(CflViolation) as want:
        reference_ladder_run(ref, 2 * BLOCK_STEPS, 7, make_schedule(ref))
    assert str(got.value) == str(want.value)
    assert sim.time == ref.time == pytest.approx(RAISE_AT * sim.dt, rel=1e-12)
    assert sim.psi_prev.tobytes() == ref.psi_prev.tobytes()
    assert sim.psi_cur.tobytes() == ref.psi_cur.tobytes()
    # the cells keep the last row that was applied; the refused row is not
    assert sim.inductance.tobytes() == ref.inductance.tobytes()


class Quickening:
    """A moving profile with speed_sq 1 that jumps to jump from t_jump on."""

    def __init__(self, t_jump, jump):
        self.t_jump = t_jump
        self.jump = jump

    def speed_sq(self, r, t=0.0, background_c=1.0):
        return np.where(np.asarray(t) >= self.t_jump, self.jump, 1.0) + np.zeros_like(r)


def assert_continuum_refuses_mid_block_at_the_reference_step(jump):
    solver, ref = continuum_solver(alcubierre("top_hat")), continuum_solver(alcubierre("top_hat"))
    for s in (solver, ref):
        s.profile = Quickening((RAISE_AT + 0.5) * s.dt, jump)
    with pytest.raises(CflViolation) as got:
        solver.run(3 * BLOCK_STEPS - 1, 7)
    with pytest.raises(CflViolation) as want:
        reference_continuum_run(ref, 3 * BLOCK_STEPS * ref.dt, 7)
    assert str(got.value) == str(want.value)
    assert solver.time == ref.time == pytest.approx((RAISE_AT + 1) * solver.dt, rel=1e-12)
    assert solver.psi_cur.tobytes() == ref.psi_cur.tobytes()


def test_continuum_refuses_mid_block_at_the_reference_step():
    # dt is set from the supremum (1 + vs)^2 = 2.25, which speed_sq 4 breaks
    assert_continuum_refuses_mid_block_at_the_reference_step(4.0)


def test_continuum_refuses_a_nan_speed_mid_block_at_the_reference_step():
    assert_continuum_refuses_mid_block_at_the_reference_step(math.nan)


@pytest.mark.parametrize("n_steps, stride", [(2 * BLOCK_STEPS, 4), (21, 7), (9, 1)])
@pytest.mark.parametrize("solver", ["continuum", "ladder"])
def test_stride_that_divides_the_steps_records_the_last_level_once(solver, n_steps, stride):
    """run(n_steps, stride) with stride | n_steps records 1 + n_steps / stride levels.

    After the first (the continuum's is its pre-run level, one step before
    its start) they lie stride steps apart, and the last is the final state.
    """
    sim = continuum_solver(alcubierre("top_hat")) if solver == "continuum" else ladder_sim()
    snaps = sim.run(n_steps, stride)
    assert len(snaps) == snaps.values.shape[0] == 1 + n_steps // stride
    np.testing.assert_allclose(np.diff(snaps.times[1:]), stride * sim.dt, rtol=1e-9)
    assert snaps.times[-1] == sim.time


@pytest.mark.parametrize("solver", ["continuum", "ladder"])
def test_recorded_times_are_set_before_the_first_step_and_are_the_times_stepping_reaches(solver):
    sim = continuum_solver(alcubierre("top_hat")) if solver == "continuum" else ladder_sim()
    sim.run(5, 2)  # so that the run below starts at a time that 5 additions of dt reached
    # the continuum's record starts with its pre-run level, one step before its start
    first = sim.time - sim.dt if solver == "continuum" else sim.time
    before, reached, handed = [], [], []

    def recorded(table, levels):
        if levels == 1:
            before.append(table.times.copy())
        reached.append(sim.time)
        handed.append((table, levels))

    snaps = sim.run(3 * BLOCK_STEPS + 5, 7, recorded=recorded)
    assert np.array_equal(snaps.times, [first, *reached[1:]])
    assert np.array_equal(before[0], snaps.times)
    assert snaps.times[-1] == sim.time
    # recorded is handed the very table run returns, from level 1 on, one level at a time
    assert all(table is snaps for table, _ in handed)
    assert [levels for _, levels in handed] == list(range(1, len(snaps) + 1))
    # in an anonymous shared mapping, which a CSV helper forked at level 1 reads as it fills
    buffer = snaps.values
    while isinstance(buffer, np.ndarray):
        buffer = buffer.base
    assert isinstance(buffer.obj, mmap.mmap)


@pytest.fixture
def checks(monkeypatch):
    """The rows of each stability check, Leapfrog._bounded's calls, from here on."""
    calls = []
    bounded = Leapfrog._bounded

    def counted(self, face, bound):
        calls.append(len(face))
        return bounded(self, face, bound)

    monkeypatch.setattr(Leapfrog, "_bounded", counted)
    return calls


@pytest.mark.parametrize("solver", ["continuum", "ladder"])
def test_a_static_row_is_checked_once_per_dt_and_row(solver, checks):
    sim = godel_solver(GODEL) if solver == "continuum" else ladder_sim()
    sim.run(3 * BLOCK_STEPS, 7)
    sim.run(BLOCK_STEPS, 7)
    assert checks == [1]
    sim.dt *= 0.9
    sim.run(3 * BLOCK_STEPS, 7)
    assert checks == [1, 1]
    if solver == "ladder":
        # set_flux checks the row it is given, and the next run checks it once more
        sim.set_flux(0.3)
        sim.run(3 * BLOCK_STEPS, 7)
        assert checks == [1, 1, 1, 1]


@pytest.mark.parametrize("solver", ["continuum", "ladder"])
def test_moving_rows_are_checked_once_per_block(solver, checks):
    if solver == "continuum":
        continuum_solver(alcubierre("top_hat")).run(3 * BLOCK_STEPS, 7)
    else:
        ladder_sim().run(3 * BLOCK_STEPS, 7, flux_schedule=lambda t: 0.3)
    assert checks == [BLOCK_STEPS] * 3
