"""Pulse-front extraction from field snapshots.

The front is the leading crossing of a threshold set as a fraction of the
snapshot's own peak, located by linear interpolation between samples. Using
a relative threshold makes the front insensitive to slow amplitude drift as
the pulse moves through regions of different speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Snapshot",
    "FrontNotFound",
    "FrontSpeeds",
    "front_position",
    "front_trajectory",
    "measure_front_speed",
]


class FrontNotFound(RuntimeError):
    """No threshold crossing in the snapshot (empty field or boundary-pinned)."""


@dataclass(frozen=True)
class Snapshot:
    """Field state at one instant: values sampled at positions r."""

    time: float
    r: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class FrontSpeeds:
    """Finite-difference front speeds per snapshot interval and their mean."""

    times: np.ndarray
    positions: np.ndarray
    interval_speeds: np.ndarray
    mean: float


def front_position(r, values, threshold: float = 0.05, direction: int = 1) -> float:
    """Leading crossing of threshold * max|values|.

    direction +1 scans for the rightmost crossing, -1 for the leftmost,
    found as the rightmost crossing of the reversed samples.
    """
    a = np.abs(np.asarray(values, dtype=float))
    rr = np.asarray(r, dtype=float)
    if direction < 0:
        a, rr = a[::-1], rr[::-1]
    peak = float(a.max(initial=0.0))
    if peak <= 0.0:
        raise FrontNotFound("field is identically zero")
    thr = threshold * peak
    above = np.nonzero(a >= thr)[0]
    if above.size == 0:
        raise FrontNotFound("no sample above threshold")
    j = int(above[-1])
    if j == len(rr) - 1:
        return float(rr[-1])
    frac = (a[j] - thr) / (a[j] - a[j + 1])
    return float(rr[j] + frac * (rr[j + 1] - rr[j]))


def front_trajectory(
    snapshots,
    threshold: float = 0.05,
    direction: int = 1,
    r_stop: float | None = None,
):
    """Front position per snapshot as (times, positions) arrays.

    Collection stops at the first snapshot whose front passes r_stop (in the
    travel direction), so measurements can exclude sponge zones near the
    boundary.
    """
    ts, rs = [], []
    for snap in snapshots:
        pos = front_position(snap.r, snap.values, threshold, direction)
        if r_stop is not None:
            if direction >= 0 and pos > r_stop:
                break
            if direction < 0 and pos < r_stop:
                break
        ts.append(snap.time)
        rs.append(pos)
    return np.asarray(ts), np.asarray(rs)


def measure_front_speed(
    snapshots, threshold: float = 0.05, direction: int = 1
) -> FrontSpeeds:
    """Finite-difference speeds of the leading front across snapshots."""
    snaps = list(snapshots)
    if len(snaps) < 3:
        raise ValueError("need at least 3 snapshots")
    ts, rs = front_trajectory(snaps, threshold, direction)
    if len(ts) < 3:
        raise FrontNotFound("front left the measurement window too early")
    dt = np.diff(ts)
    if np.any(dt <= 0):
        raise ValueError("snapshot times must be strictly increasing")
    speeds = np.diff(rs) / dt
    mids = 0.5 * (ts[:-1] + ts[1:])
    return FrontSpeeds(
        times=mids, positions=rs, interval_speeds=speeds, mean=float(np.mean(speeds))
    )
