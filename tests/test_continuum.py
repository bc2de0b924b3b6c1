"""Variable-speed leapfrog solver: propagation, stability, energy."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fluxline.cli import _synthesize
from fluxline.config import load_raw_config, validate_config
from fluxline.metrics import GodelParams, flat_profile, godel_profile, tabulated_profile
from fluxline.wavelab import (
    CflViolation,
    ContinuumGrid,
    ContinuumSolver,
    GaussianPulse,
    Snapshots,
    measure_front_speed,
    trace_null_geodesic,
)
from fluxline.wavelab.continuum import fdtd_step
from fluxline.wavelab.fronts import front_trajectory
from fluxline.wavelab.verify import verify_program


def make_solver(profile, n=500, span=(0.0, 10.0), boundary="absorbing"):
    dx = (span[1] - span[0]) / (n - 1)
    grid = ContinuumGrid(n_points=n, dx=dx, r_start=span[0], boundary=boundary)
    return ContinuumSolver(profile, grid)


def steps_to(sol, t_end):
    """The step count of a run to t_end: the steps whose times start below it."""
    return math.ceil((t_end - sol.time) / sol.dt)


def test_uniform_pulse_advances_at_unit_speed():
    sol = make_solver(flat_profile(), n=600)
    sol.initialize_pulse(GaussianPulse(1.0, 0.18), 1)
    snaps = sol.run(steps_to(sol, 7.0), 20)
    res = measure_front_speed(Snapshots(snaps.times[:-4], snaps.r, snaps.values[:-4]))
    assert res.mean == pytest.approx(1.0, abs=0.01)


def test_fdtd_step_kernel_matches_manual_update():
    rng = np.random.default_rng(3)
    prev = rng.normal(size=12)
    cur = rng.normal(size=12)
    face = rng.uniform(0.5, 2.0, size=11)
    dx, dt = 0.1, 0.02
    out = fdtd_step(prev, cur, face, dx, dt, np.zeros(12))
    for i in range(1, 11):
        flux_r = face[i] * (cur[i + 1] - cur[i]) / dx
        flux_l = face[i - 1] * (cur[i] - cur[i - 1]) / dx
        lap = dt * dt * (flux_r - flux_l) / dx
        assert out[i] == pytest.approx(2 * cur[i] - prev[i] + lap, rel=1e-14)
    assert out[0] == 0.0 and out[-1] == 0.0


def test_steps_write_only_the_solvers_own_level_buffers():
    sol = make_solver(flat_profile(), n=64, boundary="reflecting")
    sol.initialize_pulse(GaussianPulse(5.0, 0.4), 1)
    pulse = (sol.psi_prev, sol.psi_cur)
    pulse_bytes = [level.tobytes() for level in pulse]
    sol.run(7, 1)
    assert [level.tobytes() for level in pulse] == pulse_bytes
    # levels a caller sets are read, never written
    mine = (np.zeros(64), np.sin(np.linspace(0.0, math.pi, 64)))
    sol.psi_prev, sol.psi_cur = mine
    mine_bytes = [level.tobytes() for level in mine]
    values = sol.run(5, 1).values
    assert [level.tobytes() for level in mine] == mine_bytes
    assert not any(np.shares_memory(sol.psi_cur, level) for level in (*pulse, *mine))
    assert sol.psi_cur.tobytes() == values[-1].tobytes() and sol.psi_prev.tobytes() == values[-2].tobytes()


def test_energy_conserved_with_reflecting_walls():
    sol = make_solver(flat_profile(), n=400, boundary="reflecting")
    sol.initialize_pulse(GaussianPulse(5.0, 0.4), 1)
    e0 = sol.energy()
    worst = 0.0
    for k in range(10_000):
        sol.step()
        if k % 500 == 0:
            worst = max(worst, abs(sol.energy() - e0) / e0)
    worst = max(worst, abs(sol.energy() - e0) / e0)
    assert worst < 1e-3  # contract; the staggered form conserves to rounding
    assert worst < 1e-10


def test_energy_conserved_on_variable_speed_profile():
    prof = godel_profile(GodelParams(a=1.0))
    sol = make_solver(prof, n=400, span=(0.0, 3.8), boundary="reflecting")
    sol.initialize_pulse(GaussianPulse(1.5, 0.15), 1)
    e0 = sol.energy()
    for _ in range(5_000):
        sol.step()
    assert abs(sol.energy() - e0) / e0 < 1e-10


def test_cfl_bound_checked_against_instantaneous_speed():
    sol = make_solver(flat_profile(), n=200)
    sol.initialize_pulse(GaussianPulse(5.0, 0.4), 1)
    sol.dt = 3.0 * sol.dt  # break the precomputed bound after construction
    with pytest.raises(CflViolation):
        sol.step()


def test_dt_bound_holds_at_a_tabulated_peak_between_grid_points():
    # the peak knot at 5.000244 lies between the grid points of [4, 6], and
    # between the 4097 points the supremum was once sampled at; a dt from the
    # sampled 1.0 broke the bound on the first step
    profile = tabulated_profile([0, 5.000044, 5.000244, 5.000444, 10], [1, 1, 4, 1, 1])
    sol = ContinuumSolver(profile, ContinuumGrid(16385, dx=2 / 16384, r_start=4))
    assert sol.dt == pytest.approx(0.5 * (2 / 16384) / 2.0)
    sol.initialize_pulse(GaussianPulse(4.5, 0.1), 1)
    sol.run(32, 8)
    assert sol.time == pytest.approx(33 * sol.dt)


# ROADMAP item 21's geometries: each simulated preset's window, n_points and pulse width
ECHO_PRESETS = ("flat", "godel", "alcubierre", "alcubierre_superluminal", "kerr_theta0", "kerr_pi4")


@pytest.mark.parametrize("preset", ECHO_PRESETS)
def test_absorbing_ends_return_no_echo(preset):
    """A pulse from the window's centre leaves through the right end and returns at most 1e-3 of its peak.

    The field is read at 0.8, 1.0 and 1.2 window lengths of travel, while a
    pulse returned by the end would cross the window.
    """
    run = validate_config(load_raw_config(preset=preset))
    lo, hi = run.synthesis.coord_window
    sol = make_solver(flat_profile(), n=run.simulation.n_points, span=(lo, hi))
    sol.initialize_pulse(GaussianPulse(0.5 * (lo + hi), run.simulation.pulse_width), 1)
    peak = np.max(np.abs(sol.psi_cur))
    for travel in (0.8, 1.0, 1.2):
        sol.run(steps_to(sol, travel * (hi - lo)), 10**6)
        assert np.max(np.abs(sol.psi_cur)) <= 1e-3 * peak


def test_flat_field_converges_at_second_order_with_absorbing_ends():
    """The flat preset's field against the exact f(r - t) at t = 2 falls by 3.5x or more per doubling of n_points.

    The launch at r = 1 sits near the absorbing end, so an end that disturbs
    the field there shows in the residual.
    """
    run = validate_config(load_raw_config(preset="flat"))
    pulse = run.simulation.pulse
    residuals = []
    for n in (600, 1200, 2400):
        sol = make_solver(flat_profile(), n=n, span=run.synthesis.coord_window)
        sol.initialize_pulse(pulse, 1)
        sol.run(steps_to(sol, 2.0), 10**6)
        residuals.append(np.max(np.abs(sol.psi_cur - pulse(sol.r - sol.time))))
    assert all(coarse >= 3.5 * fine for coarse, fine in zip(residuals, residuals[1:])), residuals


def test_reflecting_wall_returns_pulse():
    sol = make_solver(flat_profile(), n=800, boundary="reflecting")
    sol.initialize_pulse(GaussianPulse(5.0, 0.3), 1)
    peak0 = np.max(np.abs(sol.psi_cur))
    sol.run(steps_to(sol, 14.0), 10_000)
    assert np.max(np.abs(sol.psi_cur)) > 0.5 * peak0


def test_front_tracks_ray_on_curved_profile():
    prof = godel_profile(GodelParams(a=1.0))
    sol = make_solver(prof, n=700, span=(0.0, 3.8))
    sol.initialize_pulse(GaussianPulse(0.4, 0.12), 1)
    snaps = sol.run(steps_to(sol, 1.75), 25)
    ts, rs = front_trajectory(snaps, 1, r_stop=3.1)
    ray = trace_null_geodesic(prof, 1.0, r0=rs[0], t0=ts[0], t_end=ts[-1] + 1e-9)
    ray_at = np.interp(ts, ray.t, ray.r)
    travel = ray_at - ray_at[0]
    mask = travel > 0.3 * travel[-1]
    rel = np.abs(rs - ray_at)[mask] / travel[mask]
    assert np.max(rel) < 0.02


def test_snapshots_carry_monotone_times():
    sol = make_solver(flat_profile(), n=200)
    sol.initialize_pulse(GaussianPulse(2.0, 0.3), 1)
    snaps = sol.run(steps_to(sol, 2.0), 15)
    assert snaps.times[0] == 0.0
    assert np.all(np.diff(snaps.times) > 0)
    assert snaps.times[-1] == pytest.approx(sol.time)
    assert snaps.values.shape == (len(snaps), 200)
    # every row samples the solver's own grid, shared rather than copied
    assert snaps.r is sol.r


def test_grid_validation():
    with pytest.raises(ValueError):
        ContinuumGrid(n_points=4, dx=0.1)
    with pytest.raises(ValueError):
        ContinuumGrid(n_points=100, dx=0.1, boundary="periodic")


# nan and inf once constructed
@pytest.mark.parametrize("dx", [math.nan, math.inf, -math.inf, -0.1, 0.0])
def test_grid_refuses_a_dx_that_is_not_a_finite_number_above_0(dx):
    with pytest.raises(ValueError, match=r"^dx must be a finite number > 0, got "):
        ContinuumGrid(n_points=100, dx=dx)


def test_front_at_superluminal_top_hat_wall_does_not_worsen_with_refinement():
    """c^2 jumps between two nodes at the bubble wall; the face between them takes their mean.

    With the arithmetic mean the continuum front on alcubierre_superluminal
    stays within its preset-resolution deviation at 2x and 4x the points
    (0.0144, then 0.0108 and 0.0128). A geometric mean of the node c^2,
    equally second order where c^2 is smooth, drifts from the ray as the
    grid refines: 0.0118, 0.0184, 0.0212.
    """
    run = validate_config(load_raw_config(preset="alcubierre_superluminal"))
    spec = replace(run.simulation, solver="continuum")
    program = _synthesize(run, run.profile, np.linspace(0.0, spec.t_end, 17))
    errs = [
        verify_program(program, run.profile, replace(spec, n_points=n)).solvers["continuum"].max_rel_deviation
        for n in (spec.n_points, 2 * spec.n_points, 4 * spec.n_points)
    ]
    assert spec.n_points == 900
    assert max(errs[1:]) <= errs[0], errs
