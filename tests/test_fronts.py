"""Front extraction on synthetic snapshot sequences."""

import numpy as np
import pytest

from fluxline.wavelab import FrontNotFound, Snapshots, front_position, front_trajectory, measure_front_speed


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
