"""Pulse-front extraction from field snapshots.

A solver run is recorded as one Snapshots table: the field at k instants on
one fixed grid. The front is the leading crossing of a threshold set as a
fraction of each snapshot's own peak (FRONT_THRESHOLD), located by linear
interpolation between samples. Using a relative threshold makes the front
insensitive to slow amplitude drift as the pulse moves through regions of
different speed, and to the pulse's amplitude.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

# The fraction of each snapshot's peak that locates the front; no setting moves it
FRONT_THRESHOLD = 0.05

__all__ = [
    "Snapshots",
    "FrontNotFound",
    "FrontSpeeds",
    "front_position",
    "front_trajectory",
    "measure_front_speed",
]


class FrontNotFound(RuntimeError):
    """No threshold crossing in the snapshot (empty field or boundary-pinned)."""


@dataclass(frozen=True)
class Snapshots:
    """The field of one solver run: values[i] sampled on the grid r at times[i].

    times has shape (k,) and values (k, n); r is the solver's own grid
    array of n positions, shared with the solver and not copied.
    """

    times: np.ndarray
    r: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def empty(cls, levels: int, r: np.ndarray) -> Snapshots:
        """A table of levels levels on r to fill, in an anonymous shared mapping, so that a process
        forked before it is filled, such as a helper formatting its CSV, reads each level."""
        data = np.frombuffer(mmap.mmap(-1, 8 * levels * (1 + len(r))), np.float64)
        return cls(data[:levels], r, data[levels:].reshape(levels, len(r)))


@dataclass(frozen=True)
class FrontSpeeds:
    """Finite-difference front speeds per snapshot interval and their mean."""

    times: np.ndarray
    positions: np.ndarray
    interval_speeds: np.ndarray
    mean: float


def front_position(r, values, direction: int = 1) -> float:
    """Leading crossing of FRONT_THRESHOLD * max|values|.

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
    thr = FRONT_THRESHOLD * peak
    above = np.nonzero(a >= thr)[0]
    if above.size == 0:
        raise FrontNotFound("no sample above threshold")
    j = int(above[-1])
    if j == len(rr) - 1:
        return float(rr[-1])
    frac = (a[j] - thr) / (a[j] - a[j + 1])
    return float(rr[j] + frac * (rr[j + 1] - rr[j]))


def front_trajectory(snapshots, direction: int = 1, r_stop: float | None = None):
    """Front position per snapshot of a Snapshots record as (times, positions) arrays.

    Collection stops at the first snapshot whose front passes r_stop (in the
    travel direction), so measurements can stop before the pulse reaches
    the end it leaves through.
    """
    r = snapshots.r
    ts, rs = [], []
    for time, values in zip(snapshots.times, snapshots.values):
        pos = front_position(r, values, direction)
        if r_stop is not None:
            if direction >= 0 and pos > r_stop:
                break
            if direction < 0 and pos < r_stop:
                break
        ts.append(time)
        rs.append(pos)
    return np.asarray(ts), np.asarray(rs)


def measure_front_speed(snapshots, direction: int = 1) -> FrontSpeeds:
    """Finite-difference speeds of the leading front across a Snapshots record."""
    if len(snapshots) < 3:
        raise ValueError("need at least 3 snapshots")
    ts, rs = front_trajectory(snapshots, direction)
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
