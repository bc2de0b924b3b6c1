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

from ..metrics import MAX_GRID_POINTS

# The fraction of each snapshot's peak that locates the front; no setting moves it
FRONT_THRESHOLD = 0.05

__all__ = [
    "Snapshots",
    "FrontNotFound",
    "FrontSpeeds",
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


def front_trajectory(snapshots, direction: int = 1, r_stop: float | None = None):
    """Front position per snapshot of a Snapshots record as (times, positions) arrays.

    Collection stops at the first snapshot whose front passes r_stop (in the
    travel direction), so measurements can stop before the pulse reaches
    the end it leaves through. A zero level, or one with no sample at or
    above the threshold, raises FrontNotFound, unless an earlier level's
    front has passed r_stop.

    Many levels are found in one pass of array operations, in the arithmetic
    of the scalar reference front_position in tests/test_fronts.py. A pass
    holds at most MAX_GRID_POINTS values, so its temporaries stay an eighth
    of the largest record a simulation may keep.
    """
    r = np.asarray(snapshots.r, dtype=float)
    values = np.asarray(snapshots.values, dtype=float)
    n, kept, positions = len(r), len(snapshots), []
    # the sample the scan ends on, and the step from the leading sample to the one ahead of it
    edge, ahead = (n - 1, 1) if direction >= 0 else (0, -1)
    levels = max(1, MAX_GRID_POINTS // max(n, 1))
    for start in range(0, len(snapshots), levels):
        a = np.abs(values[start : start + levels])
        peak = a.max(axis=1, initial=0.0)
        thr = FRONT_THRESHOLD * peak
        above = a >= thr[:, None]
        # the leading sample at or above the threshold: the last in the travel direction
        j = n - 1 - np.argmax(above[:, ::-1], axis=1) if direction >= 0 else np.argmax(above, axis=1)
        zero = peak <= 0.0
        refused = np.flatnonzero(zero | ~above[np.arange(len(a)), j])
        good = int(refused[0]) if len(refused) else len(a)
        pos = np.full(good, r[edge])
        inner = np.flatnonzero(j[:good] != edge)
        ji = j[inner]
        aj, aj1 = a[inner, ji], a[inner, ji + ahead]
        frac = (aj - thr[inner]) / (aj - aj1)
        pos[inner] = r[ji] + frac * (r[ji + ahead] - r[ji])
        if r_stop is not None:
            passed = np.flatnonzero(pos > r_stop if direction >= 0 else pos < r_stop)
            if len(passed):
                positions.append(pos[: passed[0]])
                kept = start + int(passed[0])
                break
        positions.append(pos)
        if len(refused):
            raise FrontNotFound("field is identically zero" if zero[good] else "no sample above threshold")
    return np.array(snapshots.times[:kept]), np.concatenate([np.empty(0), *positions])


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
