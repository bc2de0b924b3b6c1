"""Program verification: simulated fronts against the ray oracle."""

import json
import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxline.csvio import write_json
from fluxline.metrics import (
    AlcubierreParams,
    GodelParams,
    KerrExtremeParams,
    alcubierre_profile,
    flat_profile,
    godel_profile,
    kerr_extreme_profile,
    tabulated_profile,
)
from fluxline.synthesis import ArrayConfig, synthesize_program
from fluxline.wavelab import FrontNotFound, SimulationSpec, verify_program
from fluxline.wavelab.fronts import front_trajectory
from fluxline.wavelab.verify import _check_work, _run_continuum, compare_front_to_ray


def test_flat_program_verifies_below_one_percent():
    prof = flat_profile()
    cfg = ArrayConfig(n_cells=256)
    program = synthesize_program(prof, 0.0, cfg, (0.0, 10.0))
    spec = SimulationSpec(pulse_center=1.0, pulse_width=0.18, t_end=7.0, solver="both", n_points=600)
    report = verify_program(program, prof, spec)
    assert report.passed
    assert report.solvers["continuum"].max_rel_deviation < 0.01
    assert report.solvers["ladder"].max_rel_deviation < 0.03


def test_godel_program_passes_default_tolerance():
    prof = godel_profile(GodelParams(a=1.0))
    cfg = ArrayConfig(n_cells=256)
    program = synthesize_program(prof, 0.45 * math.pi, cfg, (0.0, 3.8))
    spec = SimulationSpec(pulse_center=0.4, pulse_width=0.12, t_end=4.4, solver="both", n_points=700)
    report = verify_program(program, prof, spec)
    assert report.passed
    for res in report.solvers.values():
        assert res.max_rel_deviation <= 0.05


def test_report_serializes_to_json(tmp_path):
    prof = flat_profile()
    cfg = ArrayConfig(n_cells=64)
    program = synthesize_program(prof, 0.0, cfg, (0.0, 10.0))
    spec = SimulationSpec(pulse_center=1.0, pulse_width=0.2, t_end=4.0, n_points=400)
    handed = []
    report = verify_program(program, prof, spec, lambda solver, snaps, levels: handed.append((solver, snaps, levels)))
    doc = json.loads(write_json(tmp_path / "verification.json", asdict(report), "h").read_text())
    assert doc["passed"] is True
    assert "continuum" in doc["solvers"]
    assert doc["solvers"]["continuum"]["front_times"] == report.solvers["continuum"].front_times.tolist()
    # the snapshots are handed to the caller, not kept in the report
    assert "snapshots" not in doc
    # level by level, the first before any step and the last once the run is recorded
    (snaps,) = {id(snaps): snaps for _, snaps, _ in handed}.values()
    assert handed == [("continuum", snaps, levels) for levels in range(1, len(snaps) + 1)]
    assert len(snaps) == doc["solvers"]["continuum"]["grid"]["snapshots"]


def test_speed_bookkeeping_for_moving_bubble():
    p = AlcubierreParams(vs_over_c=1.5, bubble_radius_R=2.0, x_s0=6.0, top_hat=True)
    prof = alcubierre_profile(p)
    cfg = ArrayConfig(n_cells=256)
    program = synthesize_program(prof, -0.449 * math.pi, cfg, (0.0, 40.0), np.linspace(0, 6, 7))
    spec = SimulationSpec(pulse_center=6.0, pulse_width=0.35, t_end=6.0, n_points=900)
    report = verify_program(program, prof, spec)
    bg = math.sqrt(math.cos(0.449 * math.pi))
    assert report.speeds["c_over_c0"] == pytest.approx(bg, rel=1e-12)
    # both lab-frame bookkeepings are recorded: the flux-pattern speed and
    # the interior light speed
    assert report.speeds["pattern_speed_lab"] == pytest.approx(1.5 * bg, rel=1e-12)
    assert report.speeds["interior_light_speed_lab"] == pytest.approx(2.5 * bg, rel=1e-12)
    assert report.passed


def test_superluminal_front_locks_to_pattern_speed():
    # long-run behavior: the field front rides the bubble's leading wall,
    # i.e. it moves at the flux-pattern speed, about 0.6 c0 for these numbers
    p = AlcubierreParams(vs_over_c=1.5, bubble_radius_R=2.0, x_s0=6.0, top_hat=True)
    prof = alcubierre_profile(p)
    cfg = ArrayConfig(n_cells=256)
    program = synthesize_program(prof, -0.449 * math.pi, cfg, (0.0, 40.0), np.linspace(0, 40, 17))
    bg = math.sqrt(math.cos(0.449 * math.pi))
    assert program.background_c == bg
    spec = SimulationSpec(pulse_center=6.0, pulse_width=0.35, t_end=40.0, n_points=900)
    run, guard, _ = _run_continuum(program, prof, spec)
    snaps = run()
    ts, rs = front_trajectory(snaps, 1, r_stop=40.0 - guard)
    third = len(ts) // 3
    slope = np.polyfit(ts[-third:], rs[-third:], 1)[0]
    assert slope == pytest.approx(1.5 * bg, rel=0.02)
    assert slope == pytest.approx(0.6, abs=0.05)


def test_front_never_exceeds_local_speed():
    # causality audit: measured front speeds stay below the local light
    # speed; superluminal values appear only against the background speed
    prof = godel_profile(GodelParams(a=1.0))
    cfg = ArrayConfig(n_cells=256)
    program = synthesize_program(prof, 0.45 * math.pi, cfg, (0.0, 3.8))
    bg = program.background_c
    spec = SimulationSpec(pulse_center=0.4, pulse_width=0.12, t_end=4.4, n_points=900)
    run, guard, _ = _run_continuum(program, prof, spec)
    snaps = run()
    ts, rs = front_trajectory(snaps, 1, r_stop=3.8 - guard)
    speeds = np.diff(rs) / np.diff(ts)
    mids = 0.5 * (rs[:-1] + rs[1:])
    local = bg * np.sqrt(np.asarray(prof.speed_sq(mids)))
    assert np.all(speeds <= local * 1.05)
    # and the late fronts do exceed the background speed (the whole point)
    assert np.max(speeds) > bg * 1.5


def test_kerr_axis_program_stalls_at_horizon():
    prof = kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=0.0))
    cfg = ArrayConfig(n_cells=100)
    program = synthesize_program(prof, 0.0, cfg, (0.5, 3.0))
    spec = SimulationSpec(
        pulse_center=2.5, pulse_width=0.1, t_end=12.0, n_points=800, direction=-1, tolerance=0.1
    )
    report = verify_program(program, prof, spec)
    res = report.solvers["continuum"]
    assert report.passed
    # both the wave front and the ray stall above the horizon radius
    assert res.front_positions[-1] > 1.0
    assert res.ray_positions[-1] > 1.0
    assert res.front_positions[-1] == pytest.approx(res.ray_positions[-1], abs=0.05)
    dt = np.diff(res.front_times)
    early = abs(np.diff(res.front_positions)[0] / dt[0])
    late = abs(np.diff(res.front_positions)[-1] / dt[-1])
    assert late < 0.2 * early


def test_compare_front_to_ray_requires_samples():
    prof = flat_profile()
    with pytest.raises(Exception):
        compare_front_to_ray([0.0], [0.0], prof, 1.0)


def test_compare_front_to_ray_refuses_a_ray_that_does_not_travel():
    # speed_sq = 0 everywhere: the traced ray stays at its launch point
    prof = tabulated_profile([0.0, 10.0], [0.0, 0.0])
    with pytest.raises(FrontNotFound, match="did not travel"):
        compare_front_to_ray([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], prof, 1.0)


@pytest.mark.parametrize("solver", ["continuum", "ladder"])
@pytest.mark.parametrize("center, direction", [(9.5, 1), (0.5, -1)])
def test_front_launched_past_the_guard_is_refused(solver, center, direction):
    # each solver leaves a guard at the window's edge out of the comparison
    # (1.6 for the continuum, 0.91 for the ladder); this pulse starts in it, heading out
    prof = flat_profile()
    program = synthesize_program(prof, 0.0, ArrayConfig(n_cells=64), (0.0, 10.0))
    spec = SimulationSpec(
        pulse_center=center, pulse_width=0.3, t_end=0.5, solver=solver, n_points=200, direction=direction
    )
    with pytest.raises(FrontNotFound, match=f"^{solver}: fewer than 3 front samples inside the window"):
        verify_program(program, prof, spec)


@pytest.mark.parametrize("k, want", [(3, 0.05 / 3.0), (1, 0.0)], ids=["at_30pct", "at_10pct"])
def test_compare_front_to_ray_skips_only_the_first_travel(k, want):
    # a flat-profile front on the ray except one sample pushed 0.05 ahead,
    # k tenths into a 10-unit travel: counted at 30%, skipped at 10%
    ts = np.linspace(0.0, 10.0, 11)
    rs = ts.copy()
    rs[k] += 0.05
    worst = compare_front_to_ray(ts, rs, flat_profile(), 1.0)[0]
    assert worst == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_simulation_spec_validation():
    with pytest.raises(ValueError):
        SimulationSpec(pulse_center=0, pulse_width=0.1, t_end=1.0, solver="magic")
    with pytest.raises(ValueError):
        SimulationSpec(pulse_center=0, pulse_width=-1.0, t_end=1.0)
    with pytest.raises(ValueError):
        SimulationSpec(pulse_center=0, pulse_width=0.1, t_end=1.0, direction=0)


def while_loop_steps(time, dt, t_end):
    """The steps the continuum's run once took: it stepped while its time stayed below t_end - 1e-12."""
    steps = 0
    while time < t_end - 1e-12:
        time += dt
        steps += 1
    return steps


def bounded_steps(time, dt, t_end):
    spec = SimpleNamespace(t_end=t_end)
    return _check_work(spec, SimpleNamespace(time=time, dt=dt), 16, "simulation.n_points")[0]


@settings(max_examples=300, deadline=None)
@given(
    dt=st.floats(1e-6, 1.0),
    whole=st.integers(0, 3000),
    frac=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([1e-16, 1e-14, 1e-12, 1 - 1e-12])),
)
# a run started one step in, as the continuum's is, whose t_end lies on a step
# time up to rounding: ceil takes the step that starts there, the loop did not
@example(dt=0.1, whole=3, frac=0.0)
# t_end = 93: the loop's summed times fall more than 1e-12 short of the
# ratio's, and it took a 930th step that starts there, which ceil does not
@example(dt=0.1, whole=929, frac=0.0)
def test_step_count_is_the_while_loops_but_at_whole_ratios(dt, whole, frac):
    """ceil((t_end - time) / dt) steps, against the loop it replaced.

    The two agree unless t_end lies within the loop's 1e-12 slack plus the
    rounding of its summed times of a step time; there they differ by at
    most one step, and ceil is what runs.
    """
    time = dt  # initialize_pulse leaves the continuum one step in
    t_end = time + (whole + frac) * dt
    got, want = bounded_steps(time, dt, t_end), while_loop_steps(time, dt, t_end)
    ratio = (t_end - time) / dt
    if abs(ratio - round(ratio)) * dt > 1e-12 + (round(ratio) + 1) * 2**-52 * t_end:
        assert got == want
    else:
        assert abs(got - want) <= 1


@pytest.mark.parametrize(
    "t_end, steps, loop_steps",
    # the two inputs above: ceil runs the step that starts at t_end up to rounding, whichever side the loop fell
    [(0.4, 4, 3), (93.0, 929, 930)],
)
def test_step_count_ceil_ships_at_whole_ratios(t_end, steps, loop_steps):
    assert while_loop_steps(0.1, 0.1, t_end) == loop_steps
    assert bounded_steps(0.1, 0.1, t_end) == steps


def test_step_count_is_zero_not_negative_when_t_end_rounds_away():
    # t_end - dt rounds to -dt, whose ratio ceil would take as -1 steps
    assert bounded_steps(0.01, 0.01, 1e-300) == 0
