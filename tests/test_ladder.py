"""Flux-tunable LC ladder: dispersion, tuning law, energy, guards."""

import math

import numpy as np
import pytest

from fluxline.config import load_raw_config, validate_config
from fluxline.metrics import GodelParams, godel_profile
from fluxline.synthesis import HALF_PI, WINDOW_GUARD, ArrayConfig, synthesize_program
from fluxline.wavelab import (
    ContinuumGrid,
    ContinuumSolver,
    GaussianPulse,
    LadderSim,
    SingularInductance,
    StabilityViolation,
    measure_front_speed,
)
from fluxline.wavelab.fronts import front_trajectory
from fluxline.wavelab.continuum import BLOCK_STEPS
from fluxline.wavelab.ladder import ladder_step


def uniform_speed(theta, n_cells=700, width=10.0):
    sim = LadderSim(n_cells=n_cells, pitch=1.0, boundary="absorbing")
    sim.set_flux(theta)
    sim.initialize_pulse(GaussianPulse(80.0, width), 1)
    travel = (n_cells - 200) * math.sqrt(abs(math.cos(theta)))
    n_steps = int(0.8 * travel / (math.sqrt(abs(math.cos(theta))) * sim.dt))
    snaps = sim.run(n_steps, max(1, n_steps // 60))
    return measure_front_speed(snaps).mean


def test_flux_free_group_speed_is_c0_times_pitch():
    v = uniform_speed(0.0)
    assert v == pytest.approx(1.0, abs=0.02)


def test_group_speed_follows_sqrt_cos_law():
    v0 = uniform_speed(0.0)
    v3 = uniform_speed(math.pi / 3)
    assert v3 / v0 == pytest.approx(math.sqrt(0.5), rel=0.02)


def test_energy_drift_static_flux_reflecting():
    sim = LadderSim(n_cells=300, pitch=1.0, boundary="reflecting", stability_factor=0.4)
    sim.set_flux(math.pi / 5)
    sim.initialize_pulse(GaussianPulse(150.0, 8.0), 1)
    sim.step()
    e0 = sim.energy()
    worst = 0.0
    for k in range(10_000):
        sim.step()
        if k % 250 == 0:
            worst = max(worst, abs(sim.energy() - e0) / abs(e0))
    worst = max(worst, abs(sim.energy() - e0) / abs(e0))
    assert worst < 1e-3  # contract bound
    assert worst < 1e-10  # staggered product form conserves to rounding


def test_singular_inductance_at_window():
    sim = LadderSim(n_cells=16)
    with pytest.raises(SingularInductance):
        sim.set_flux(math.pi / 2)


def test_singular_cells_are_the_hot_cells_but_the_edge_itself():
    # synthesis counts theta >= pi/2 - WINDOW_GUARD as hot, the ladder refuses |cos theta| < WINDOW_GUARD:
    # over the 201 floats around that edge they differ only at the edge, whose cosine rounds above the guard
    edge = HALF_PI - WINDOW_GUARD
    thetas = edge + np.arange(-100, 101) * np.spacing(edge)
    singular = []
    for theta in thetas:
        try:
            LadderSim(n_cells=2).set_flux(theta)
        except SingularInductance:
            singular.append(True)
        else:
            singular.append(False)
    assert [s != (t >= edge) for s, t in zip(singular, thetas)] == [t == edge for t in thetas]


def test_stability_violation_for_oversized_dt():
    sim = LadderSim(n_cells=16)
    sim.dt = 1.5  # break the bound sqrt(L0 C) = 1 after construction
    with pytest.raises(StabilityViolation):
        sim.set_flux(0.0)


def test_inductance_tuning_law():
    sim = LadderSim(n_cells=8)
    theta = np.array([0.0, math.pi / 3, -math.pi / 3, 0.2, 0.44 * math.pi, 0.1, 0.0, 0.3])
    sim.set_flux(theta)
    np.testing.assert_allclose(sim.inductance, sim.L0 / np.abs(np.cos(theta)), rtol=1e-14)
    assert sim.inductance[1] == pytest.approx(2.0 * sim.L0, rel=1e-12)


def test_ladder_step_kernel_matches_manual_kcl():
    rng = np.random.default_rng(11)
    v = rng.normal(size=6)
    flux = rng.normal(size=5)
    L = rng.uniform(1.0, 2.0, size=5)
    dt = 0.07
    open_ends = ladder_step(v, flux, L, dt, False)
    loaded = ladder_step(v, flux, L, dt, True)
    flux_want = flux + dt * (v[:-1] - v[1:])
    cur_want = flux_want / L
    for v2, flux2, cur in (open_ends, loaded):
        np.testing.assert_allclose(flux2, flux_want, rtol=1e-14)
        np.testing.assert_allclose(cur, cur_want, rtol=1e-14)
        for i in range(1, 5):
            assert v2[i] == pytest.approx(v[i] + dt * (cur_want[i - 1] - cur_want[i]), rel=1e-13)
    # an open end node only feeds its one branch; a loaded one also drains V / sqrt(L) of its own end cell
    assert open_ends[0][0] == pytest.approx(v[0] - dt * cur_want[0], rel=1e-13)
    assert open_ends[0][-1] == pytest.approx(v[-1] + dt * cur_want[-1], rel=1e-13)
    assert loaded[0][0] == pytest.approx(v[0] - dt * (cur_want[0] + v[0] / math.sqrt(L[0])), rel=1e-13)
    assert loaded[0][-1] == pytest.approx(v[-1] + dt * (cur_want[-1] - v[-1] / math.sqrt(L[-1])), rel=1e-13)


def test_time_varying_flux_enters_through_branch_flux():
    # retuning a cell must rescale its current at fixed branch flux
    sim = LadderSim(n_cells=4)
    sim.branch_flux = np.array([0.5, 0.5, 0.5, 0.5])
    i_before = sim.branch_flux / sim.inductance
    sim.set_flux(math.pi / 3)
    i_after = sim.branch_flux / sim.inductance
    np.testing.assert_allclose(i_after, i_before * math.cos(math.pi / 3), rtol=1e-12)


def test_flux_schedule_is_sampled_at_each_half_step():
    # the branch currents live at (k + 1/2) dt, so that is where the cells are
    # retuned; the schedule gets a (k, 1) column of half-step times per block
    sim = LadderSim(n_cells=8)
    n_steps = BLOCK_STEPS + 3  # a full block, then a short one
    seen = []

    def schedule(t):
        assert t.ndim == 2 and t.shape[1] == 1
        seen.extend(t[:, 0])
        return math.pi / 3  # a scalar broadcasts to every cell and half step

    sim.run(n_steps, 2, flux_schedule=schedule)
    np.testing.assert_allclose(seen, (np.arange(n_steps) + 0.5) * sim.dt, rtol=1e-12)
    np.testing.assert_allclose(sim.inductance, np.full(8, 2.0 * sim.L0), rtol=1e-12)


@pytest.mark.parametrize("n_steps, recorded", [(10, [0, 4, 8, 10]), (8, [0, 4, 8]), (0, [0])])
def test_run_records_start_every_stride_and_end(n_steps, recorded):
    sim = LadderSim(n_cells=8)
    sim.initialize_pulse(GaussianPulse(3.0, 1.0), 1)
    snaps = sim.run(n_steps, 4)
    np.testing.assert_allclose(snaps.times, np.array(recorded) * sim.dt, rtol=1e-15)
    assert snaps.values.shape == (len(recorded), 9)
    np.testing.assert_array_equal(snaps.values[-1], sim.voltages)
    # every row samples the node grid, shared rather than copied
    assert snaps.r is sim.node_r


# ROADMAP item 21's ladder geometry at each bias a simulated preset takes
# (the Kerr presets share flat's 0)
ECHO_PRESETS = ("flat", "godel", "alcubierre", "alcubierre_superluminal")


@pytest.mark.parametrize("preset", ECHO_PRESETS)
def test_absorbing_ends_return_no_echo(preset):
    """512 cells over [0, 10] at the preset's bias: a pulse from the middle leaves at most 1e-2 of its peak behind.

    The field is read at 0.8, 1.0 and 1.2 window lengths of travel, while a
    pulse returned by the right end would cross the window. What remains is
    the lattice's own dispersion; a load of sqrt(L0), the flux-free line's
    impedance, returned 0.21-0.43 of the peak on the biased presets.
    """
    theta_dc = validate_config(load_raw_config(preset=preset)).synthesis.theta_dc
    sim = LadderSim(n_cells=512, pitch=10.0 / 512, boundary="absorbing")
    sim.set_flux(theta_dc)
    sim.initialize_pulse(GaussianPulse(5.0, 0.35), 1)
    peak = np.max(np.abs(sim.voltages))
    c = math.sqrt(abs(math.cos(theta_dc)))
    for travel in (8.0, 10.0, 12.0):
        sim.run(math.ceil((travel / c - sim.time) / sim.dt), 10**6)
        assert np.max(np.abs(sim.voltages)) <= 1e-2 * peak


def test_ladder_agrees_with_continuum_on_static_profile():
    prof = godel_profile(GodelParams(a=1.0))
    theta_dc = 0.45 * math.pi
    window = (0.0, 3.8)
    cfg = ArrayConfig(n_cells=256)
    program = synthesize_program(prof, theta_dc, cfg, window)
    bg = program.background_c

    pitch = (window[1] - window[0]) / cfg.n_cells
    sim = LadderSim(n_cells=cfg.n_cells, pitch=pitch, r_start=window[0], boundary="absorbing")
    sim.set_flux(program.theta_total[:, 0])
    sim.initialize_pulse(GaussianPulse(0.4, 0.12), 1)
    n_steps = int(4.4 / sim.dt)
    lad_snaps = sim.run(n_steps, max(1, n_steps // 100))

    n_pts = 700
    grid = ContinuumGrid(n_points=n_pts, dx=(window[1] - window[0]) / (n_pts - 1), r_start=window[0])
    solver = ContinuumSolver(prof, grid, background_c=bg)
    solver.initialize_pulse(GaussianPulse(0.4, 0.12), 1)
    cont_snaps = solver.run(math.ceil((4.4 - solver.time) / solver.dt), 20)

    lt, lr = front_trajectory(lad_snaps, 1, r_stop=3.1)
    ct, cr = front_trajectory(cont_snaps, 1, r_stop=3.1)
    t_lo, t_hi = max(lt[0], ct[0]), min(lt[-1], ct[-1])
    ts = np.linspace(t_lo, t_hi, 60)
    lad_at = np.interp(ts, lt, lr)
    con_at = np.interp(ts, ct, cr)
    travel = con_at - con_at[0]
    mask = travel > 0.25 * travel[-1]
    rel = np.abs(lad_at - con_at)[mask] / travel[mask]
    assert np.max(rel) < 0.03


def test_ladder_constructor_validation():
    with pytest.raises(ValueError):
        LadderSim(n_cells=1)
    with pytest.raises(ValueError):
        LadderSim(n_cells=8, boundary="sponge")
    with pytest.raises(ValueError):
        LadderSim(n_cells=8, stability_factor=1.2)
