"""Front extraction on synthetic snapshot sequences."""

import numpy as np
import pytest

from fluxline.config import load_raw_config, validate_config
from fluxline.synthesis import synthesize_program
from fluxline.wavelab import FrontNotFound, Snapshots, front_position, front_trajectory, measure_front_speed
from fluxline.wavelab import fronts
from fluxline.wavelab.verify import verify_program


def gaussian_snaps(v=0.7, n=400, times=None, r0=3.0):
    r = np.linspace(0.0, 20.0, n)
    times = times if times is not None else np.linspace(0.0, 10.0, 11)
    return Snapshots(times, r, np.exp(-((r - r0 - v * times[:, None]) ** 2) / (2 * 0.4**2)))


def test_front_position_linear_interpolation_exact():
    r = np.array([0.0, 1.0, 2.0, 3.0])
    vals = np.array([0.0, 1.0, 0.5, 0.0])
    # 5% of peak 1.0: the leading crossing lies between r=2 (0.5) and r=3 (0.0)
    pos = front_position(r, vals, direction=1)
    assert pos == pytest.approx(2.9)
    pos_left = front_position(r, vals, direction=-1)
    assert pos_left == pytest.approx(0.05)


def test_front_position_uses_magnitude():
    r = np.linspace(0, 5, 6)
    vals = np.array([0.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    assert front_position(r, vals, 1) == pytest.approx(1.95)


def test_front_position_zero_field_raises():
    with pytest.raises(FrontNotFound):
        front_position(np.linspace(0, 1, 5), np.zeros(5))


def test_front_at_boundary_returns_edge():
    r = np.linspace(0, 5, 6)
    vals = np.array([0.0, 0.0, 0.0, 0.2, 0.7, 1.0])
    assert front_position(r, vals, 1) == 5.0
    assert front_position(r, vals[::-1], -1) == 0.0


def test_trajectory_tracks_moving_gaussian():
    snaps = gaussian_snaps(v=0.7)
    ts, rs = front_trajectory(snaps)
    speeds = np.diff(rs) / np.diff(ts)
    np.testing.assert_allclose(speeds, 0.7, atol=0.01)


def test_trajectory_stops_at_limit():
    snaps = gaussian_snaps(v=0.7)
    ts, rs = front_trajectory(snaps, r_stop=8.0)
    assert np.all(rs <= 8.0)
    assert len(ts) < len(snaps)


def test_leftward_trajectory_stops_at_limit():
    snaps = gaussian_snaps(v=-0.6, r0=15.0)
    ts, rs = front_trajectory(snaps, direction=-1, r_stop=12.0)
    assert np.all(rs >= 12.0)
    assert 0 < len(ts) < len(snaps)
    # the first front past the limit ends the record
    assert front_trajectory(snaps, direction=-1)[1][len(ts)] < 12.0


def test_measure_front_speed_mean():
    snaps = gaussian_snaps(v=0.45)
    res = measure_front_speed(snaps)
    assert res.mean == pytest.approx(0.45, abs=0.01)
    assert len(res.interval_speeds) == len(res.positions) - 1


def test_measure_front_speed_needs_three_snapshots():
    snaps = gaussian_snaps(times=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        measure_front_speed(snaps)


def test_measure_front_speed_leftward():
    r = np.linspace(0.0, 20.0, 400)
    times = np.linspace(0, 8, 9)
    snaps = Snapshots(times, r, np.exp(-((r - 15.0 + 0.6 * times[:, None]) ** 2) / (2 * 0.4**2)))
    res = measure_front_speed(snaps, direction=-1)
    assert res.mean == pytest.approx(-0.6, abs=0.01)


def reference_trajectory(snapshots, direction=1, r_stop=None):
    """front_trajectory as first written: front_position level by level, up to the first front past r_stop."""
    ts, rs = [], []
    for time, values in zip(snapshots.times, snapshots.values):
        pos = front_position(snapshots.r, values, direction)
        if r_stop is not None and (pos > r_stop if direction >= 0 else pos < r_stop):
            break
        ts.append(time)
        rs.append(pos)
    return np.asarray(ts), np.asarray(rs)


# the benchmark's simulate presets
PRESETS = ("godel", "kerr_pi4", "alcubierre", "alcubierre_superluminal")


@pytest.fixture(scope="module")
def records():
    """(name, Snapshots) of both solvers' runs of each preset, as simulate records them."""
    out = []
    for preset in PRESETS:
        run = validate_config(load_raw_config(preset=preset, overrides=["simulation.solver=both"]))
        spec, profile, s = run.simulation, run.profile, run.synthesis
        times = np.linspace(0.0, spec.t_end, 17) if profile.time_dependent else [0.0]
        program = synthesize_program(profile, s.theta_dc, s.array, s.coord_window, times)

        def collect(solver, snaps, levels, preset=preset):
            if levels == len(snaps):
                out.append((f"{preset}-{solver}", snaps))

        verify_program(program, profile, spec, collect)
    return out


def assert_same_trajectory(snaps, direction, r_stop):
    """front_trajectory gives the reference's arrays bit for bit, or raises its FrontNotFound."""
    try:
        want = reference_trajectory(snaps, direction, r_stop)
    except FrontNotFound as exc:
        with pytest.raises(FrontNotFound) as got:
            front_trajectory(snaps, direction, r_stop)
        assert str(got.value) == str(exc)
        return str(exc)
    got = front_trajectory(snaps, direction, r_stop)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
    return len(want[0])


# levels per pass: each record's whole length in one pass, or passes of 1 and of 7 levels
PASSES = (None, 1, 7)


@pytest.mark.parametrize("levels", PASSES)
@pytest.mark.parametrize("direction", [1, -1])
def test_array_trajectory_matches_the_front_position_loop(records, monkeypatch, direction, levels):
    for name, snaps in records:
        if levels is not None:
            monkeypatch.setattr(fronts, "MAX_GRID_POINTS", levels * len(snaps.r))
        _, full = reference_trajectory(snaps, direction)
        assert len(full) == len(snaps), name
        # no cut; cuts between levels a quarter, half and three quarters of the way, and at a level's
        # own front, which that level does not pass; and a cut before the first level
        stops = [None, *np.quantile(full, [0.25, 0.5, 0.75]), full[len(full) // 2], full[0] - direction]
        kept = [assert_same_trajectory(snaps, direction, r_stop) for r_stop in stops]
        assert kept[0] == len(snaps) and kept[-1] == 0, name


# A level front_position refuses: a zero field, a NaN field, and one NaN sample, whose NaN peak
# leaves every sample below the threshold (a finite peak is at or above its own 5%)
BAD_LEVELS = {
    "zero": lambda values: np.zeros_like(values),
    "nan": lambda values: np.full_like(values, np.nan),
    "below_threshold": lambda values: np.where(np.arange(len(values)) == len(values) // 2, np.nan, values),
}


@pytest.mark.parametrize("levels", PASSES)
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("bad", sorted(BAD_LEVELS))
def test_a_refused_level_raises_before_the_cut_and_not_after(records, monkeypatch, bad, direction, levels):
    messages = set()
    for name, snaps in records:
        if levels is not None:
            monkeypatch.setattr(fronts, "MAX_GRID_POINTS", levels * len(snaps.r))
        _, full = reference_trajectory(snaps, direction)
        values = snaps.values.copy()
        values[len(snaps) // 2] = BAD_LEVELS[bad](values[len(snaps) // 2])
        spoiled = Snapshots(snaps.times, snaps.r, values)
        # no cut, one past every front, and one that the front a third of the way in passes
        for r_stop in (None, direction * np.inf):
            messages.add(assert_same_trajectory(spoiled, direction, r_stop))
        kept = assert_same_trajectory(spoiled, direction, full[len(snaps) // 3] - direction * 1e-9)
        assert isinstance(kept, int) and kept <= len(snaps) // 3, name
    assert messages == {"field is identically zero" if bad == "zero" else "no sample above threshold"}
