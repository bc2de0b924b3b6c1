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
from fluxline.wavelab.verify import _run_ladder


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
    theta = rng.uniform(-1.0, 1.0, size=5)
    prev, cur = rng.normal(size=6), rng.normal(size=6)
    for boundary in ("reflecting", "absorbing"):
        sim = LadderSim(n_cells=5, pitch=0.8, boundary=boundary)
        sim.set_flux(theta)
        sim.psi_prev, sim.psi_cur = prev.copy(), cur.copy()
        sim.step()
        face, dx, dt = np.abs(np.cos(theta)), 0.8, sim.dt
        # the node flux's stencil at every node, with no branch beyond either end; a loaded
        # end node then drains k (cur - prev), k = dt sqrt(face) / pitch of its own end cell
        flux = np.concatenate(([0.0], face * np.diff(cur) / dx, [0.0]))
        want = 2.0 * cur - prev + dt * dt * np.diff(flux) / dx
        k = dt * np.sqrt(face[[0, -1]]) / dx if boundary == "absorbing" else np.zeros(2)
        want[0] -= k[0] * (cur[0] - prev[0])
        want[-1] -= k[1] * (cur[-1] - prev[-1])
        np.testing.assert_allclose(sim.psi_cur, want, rtol=1e-13)
        # in the circuit's terms, V = dphi / dt and I = -(phi_{i+1} - phi_i) / L: an open end node only
        # feeds its one branch, and a loaded one also drains V / sqrt(L) of its own end cell, as k = dt / sqrt(L)
        v, v_next = (cur - prev) / dt, (sim.psi_cur - cur) / dt
        currents = -np.diff(cur) / sim.inductance
        z = np.sqrt(sim.inductance[[0, -1]]) if boundary == "absorbing" else np.full(2, math.inf)
        np.testing.assert_allclose(k, dt / z, rtol=1e-14)
        for i in range(1, 5):
            assert v_next[i] == pytest.approx(v[i] + dt * (currents[i - 1] - currents[i]), rel=1e-13)
        assert v_next[0] == pytest.approx(v[0] - dt * (currents[0] + v[0] / z[0]), rel=1e-13)
        assert v_next[-1] == pytest.approx(v[-1] + dt * (currents[-1] - v[-1] / z[1]), rel=1e-13)


def test_time_varying_flux_enters_through_branch_flux():
    # retuning a cell keeps the node flux phi, and so its branch flux -(phi_{i+1} - phi_i),
    # and rescales its current I = -(phi_{i+1} - phi_i) / L
    sim = LadderSim(n_cells=4)
    sim.psi_cur = np.array([0.0, -0.5, -1.0, -1.5, -2.0])
    phi = sim.psi_cur.copy()
    i_before = -np.diff(sim.psi_cur) / sim.inductance
    sim.set_flux(math.pi / 3)
    assert sim.psi_cur.tobytes() == phi.tobytes()
    i_after = -np.diff(sim.psi_cur) / sim.inductance
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


# nan ran to an all-NaN record, -1 on a reversed grid, whose loaded ends would amplify, and 0 raised StabilityViolation
@pytest.mark.parametrize("pitch", [math.nan, math.inf, -math.inf, -1.0, 0.0])
def test_ladder_refuses_a_pitch_that_is_not_a_finite_number_above_0(pitch):
    with pytest.raises(ValueError, match=r"^pitch must be a finite number > 0, got "):
        LadderSim(n_cells=8, pitch=pitch)


def reference_step(voltages, branch_flux, inductance, dt, z_first, z_last):
    """The ladder's step as first written, in node voltages and branch fluxes: inductor branches, then charge balance.

    The end nodes drain into the loads z_first and z_last (inf: open).
    """
    flux = branch_flux + dt * (voltages[:-1] - voltages[1:])
    currents = flux / inductance
    v = voltages.copy()
    v[1:-1] += dt * (currents[:-1] - currents[1:])
    v[0] += dt * (-currents[0] - voltages[0] / z_first)
    v[-1] += dt * (currents[-1] - voltages[-1] / z_last)
    return v, flux


def reference_record(sim, pulse, direction, n_steps, stride, schedule):
    """The voltages LadderSim.run recorded when it stepped reference_step from initialize_pulse's launch.

    sim is read, not stepped: its cells as set give the launch's
    inductances, and a schedule is sampled at the half steps t + dt/2, t
    reached by adding dt as run's times are.
    """
    inductance = sim.inductance
    z = np.sqrt(inductance)
    shifted = sim.cell_r - direction * 0.5 * sim.dt * (sim.pitch / z)
    voltages, flux = pulse(sim.node_r), direction * pulse(shifted) / z * inductance
    values, t = [voltages], sim.time
    for k in range(1, n_steps + 1):
        if schedule is not None:
            theta = np.broadcast_to(schedule(np.array([[t + 0.5 * sim.dt]])), (1, sim.n_cells))[0]
            inductance = sim.L0 / np.abs(np.cos(theta))
        loads = np.sqrt(inductance[[0, -1]]) if sim.boundary == "absorbing" else (math.inf, math.inf)
        voltages, flux = reference_step(voltages, flux, inductance, sim.dt, *loads)
        t += sim.dt
        if k % stride == 0 or k == n_steps:
            values.append(voltages)
    return np.array(values)


SIMULATED = ("flat", "godel", "alcubierre", "alcubierre_superluminal", "kerr_theta0", "kerr_pi4")


def preset_ladder(preset, overrides=()):
    """The preset's ladder, set up as verify sets it up: (sim, pulse, direction, steps, stride, schedule)."""
    run = validate_config(load_raw_config(preset=preset, overrides=list(overrides)))
    spec, profile, s = run.simulation, run.profile, run.synthesis
    times = np.linspace(0.0, spec.t_end, 17) if profile.time_dependent else [0.0]
    program = synthesize_program(profile, s.theta_dc, s.array, s.coord_window, times)
    ladder_run = _run_ladder(program, profile, spec)[0]
    return (ladder_run.func.__self__, spec.pulse, spec.direction, *ladder_run.args)


@pytest.mark.parametrize(
    "preset, overrides",
    [*((preset, ()) for preset in SIMULATED), ("godel", ("simulation.boundary=reflecting", "simulation.t_end=9"))],
    ids=[*SIMULATED, "godel_open_ends"],
)
def test_node_flux_leapfrog_records_the_voltages_of_the_branch_flux_ladder(preset, overrides):
    """Every recorded level of each simulated preset's ladder within 1e-12 of the record's peak of the first kernel's.

    The node-flux leapfrog is that kernel's algebra with other roundings
    (2e-15 to 2e-13 of the peak). The open-end case runs the pulse into
    the far end and back.
    """
    sim, pulse, direction, steps, stride, schedule = preset_ladder(preset, overrides)
    want = reference_record(sim, pulse, direction, steps, stride, schedule)
    got = sim.run(steps, stride, schedule).values
    assert got.shape == want.shape
    peak = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * peak
    if overrides:
        # the pulse has met the open end, which returns it with its sign
        assert np.max(want[:, -1]) > 0.5 * peak and np.argmax(want[-1]) < len(sim.node_r) // 2
