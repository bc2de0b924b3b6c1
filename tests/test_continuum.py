"""Variable-speed leapfrog solver: propagation, stability, energy."""

import numpy as np
import pytest

from fluxline.metrics import GodelParams, flat_profile, godel_profile
from fluxline.wavelab import (
    CflViolation,
    ContinuumGrid,
    ContinuumSolver,
    GaussianPulse,
    measure_front_speed,
    trace_null_geodesic,
)
from fluxline.wavelab.continuum import fdtd_step, sponge_factors
from fluxline.wavelab.fronts import front_trajectory


def make_solver(profile, n=500, span=(0.0, 10.0), boundary="absorbing_sponge", cfl=0.5):
    dx = (span[1] - span[0]) / (n - 1)
    grid = ContinuumGrid(n_points=n, dx=dx, r_start=span[0], cfl_factor=cfl, boundary=boundary)
    return ContinuumSolver(profile, grid)


def test_uniform_pulse_advances_at_unit_speed():
    sol = make_solver(flat_profile(), n=600)
    sol.initialize_pulse(GaussianPulse(1.0, 0.18), 1)
    snaps = sol.run(7.0, 20)
    res = measure_front_speed(snaps[: len(snaps) - 4])
    assert res.mean == pytest.approx(1.0, abs=0.01)


def test_fdtd_step_kernel_matches_manual_update():
    rng = np.random.default_rng(3)
    prev = rng.normal(size=12)
    cur = rng.normal(size=12)
    face = rng.uniform(0.5, 2.0, size=11)
    gamma = rng.uniform(0.0, 5.0, size=12)
    dx, dt = 0.1, 0.02
    undamped = fdtd_step(prev, cur, face, dx, dt, sponge_factors(np.zeros(12), dt), np.zeros(12))
    damped = fdtd_step(prev, cur, face, dx, dt, sponge_factors(gamma, dt), np.zeros(12))
    for i in range(1, 11):
        flux_r = face[i] * (cur[i + 1] - cur[i]) / dx
        flux_l = face[i - 1] * (cur[i] - cur[i - 1]) / dx
        lap = dt * dt * (flux_r - flux_l) / dx
        assert undamped[i] == pytest.approx(2 * cur[i] - prev[i] + lap, rel=1e-14)
        # psi_tt + gamma psi_t = (c^2 psi_r)_r, centred in time
        g = gamma[i] * dt / 2
        want = (2 * cur[i] - (1 - g) * prev[i] + lap) / (1 + g)
        assert damped[i] == pytest.approx(want, rel=1e-14)
    for out in (undamped, damped):
        assert out[0] == 0.0 and out[-1] == 0.0


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


def test_sponge_absorbs_outgoing_pulse():
    # a 10%-of-domain quadratic sponge suppresses the round trip by >10x
    # for pulses a few wavelengths shorter than the sponge, improving as
    # the pulse narrows
    residuals = []
    for width in (0.3, 0.15):
        sol = make_solver(flat_profile(), n=800, boundary="absorbing_sponge")
        sol.initialize_pulse(GaussianPulse(5.0, width), 1)
        peak0 = np.max(np.abs(sol.psi_cur))
        sol.run(14.0, 10_000)  # pulse reaches the far wall and should die there
        residuals.append(np.max(np.abs(sol.psi_cur[100:700])) / peak0)
    assert residuals[0] < 0.1
    assert residuals[1] < residuals[0]


def test_reflecting_wall_returns_pulse():
    sol = make_solver(flat_profile(), n=800, boundary="reflecting")
    sol.initialize_pulse(GaussianPulse(5.0, 0.3), 1)
    peak0 = np.max(np.abs(sol.psi_cur))
    sol.run(14.0, 10_000)
    assert np.max(np.abs(sol.psi_cur)) > 0.5 * peak0


def test_front_tracks_ray_on_curved_profile():
    prof = godel_profile(GodelParams(a=1.0))
    sol = make_solver(prof, n=700, span=(0.0, 3.8))
    sol.initialize_pulse(GaussianPulse(0.4, 0.12), 1)
    snaps = sol.run(1.75, 25)
    ts, rs = front_trajectory(snaps, 0.05, 1, r_stop=3.1)
    ray = trace_null_geodesic(prof, 1.0, r0=rs[0], t0=ts[0], t_end=ts[-1] + 1e-9)
    ray_at = np.interp(ts, ray.t, ray.r)
    travel = ray_at - ray_at[0]
    mask = travel > 0.3 * travel[-1]
    rel = np.abs(rs - ray_at)[mask] / travel[mask]
    assert np.max(rel) < 0.02


def test_snapshots_carry_monotone_times():
    sol = make_solver(flat_profile(), n=200)
    sol.initialize_pulse(GaussianPulse(2.0, 0.3), 1)
    snaps = sol.run(2.0, 15)
    times = [s.time for s in snaps]
    assert times[0] == 0.0
    assert all(b > a for a, b in zip(times, times[1:]))
    assert snaps[-1].time == pytest.approx(sol.time)


def test_grid_validation():
    with pytest.raises(ValueError):
        ContinuumGrid(n_points=4, dx=0.1)
    with pytest.raises(ValueError):
        ContinuumGrid(n_points=100, dx=0.1, cfl_factor=1.5)
    with pytest.raises(ValueError):
        ContinuumGrid(n_points=100, dx=0.1, boundary="periodic")
