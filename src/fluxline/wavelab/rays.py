"""Null-characteristic tracing.

A light front in the reduced section follows dr/dt = direction *
background_c * sqrt(speed_sq(r, t)). The tracer integrates this with a
classical 4th-order single-step scheme at fixed step size; it terminates
early (with a status flag, not an exception) when the path leaves the
profile's valid range or runs into speed_sq < 0. A non-finite speed_sq
(an overflow far out on an unbounded range) raises ProfileEvaluationError:
no path through it exists. Every stage evaluates through profile.speed_sq,
bound once per trace and called on Python floats (see metrics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..metrics import ProfileDomainError, ProfileEvaluationError, SpeedProfile

__all__ = [
    "RAY_COMPLETED",
    "RAY_LEFT_DOMAIN",
    "RAY_NEGATIVE_SPEED_SQ",
    "RayPath",
    "trace_null_geodesic",
]

RAY_COMPLETED = "completed"
RAY_LEFT_DOMAIN = "left_domain"
RAY_NEGATIVE_SPEED_SQ = "negative_speed_sq"


@dataclass(frozen=True)
class RayPath:
    """Samples (t, r) along one null characteristic."""

    t: np.ndarray
    r: np.ndarray
    direction: int
    status: str


class _LeftDomain(Exception):
    pass


class _NegativeSpeedSq(Exception):
    pass


def trace_null_geodesic(
    profile: SpeedProfile,
    background_c: float,
    r0: float,
    t0: float = 0.0,
    direction: int = 1,
    t_end: float = 1.0,
    dt: float | None = None,
) -> RayPath:
    """Integrate one null characteristic from (t0, r0) up to t_end.

    dt defaults to (t_end - t0) / 4096. The returned path ends at t_end
    (status "completed") or at the last accepted sample before the domain
    edge or a negative-speed region.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    if not profile.contains(r0):
        raise ProfileDomainError(f"r0 = {r0} outside profile range {profile.valid_range}")
    if dt is None:
        dt = (t_end - t0) / 4096.0
    if dt <= 0:
        raise ValueError("dt must be > 0")

    lo, hi = profile.valid_range
    speed_sq = profile.speed_sq
    velocity = direction * background_c

    def rhs(r: float, t: float) -> float:
        if r < lo or r > hi:
            raise _LeftDomain
        s2 = speed_sq(r, t, background_c)
        if not 0.0 <= s2 < math.inf:
            if s2 < 0.0:
                raise _NegativeSpeedSq
            raise ProfileEvaluationError(f"speed_sq = {s2} at r = {r}, t = {t} is not finite")
        return velocity * math.sqrt(s2)

    ts = [t0]
    rs = [r0]
    status = RAY_COMPLETED
    t, r = t0, r0
    stop = t_end - 1e-15 * max(1.0, abs(t_end))
    while t < stop:
        step = min(dt, t_end - t)
        half = 0.5 * step
        try:
            k1 = rhs(r, t)
            k2 = rhs(r + half * k1, t + half)
            k3 = rhs(r + half * k2, t + half)
            k4 = rhs(r + step * k3, t + step)
            r_next = r + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except _LeftDomain:
            status = RAY_LEFT_DOMAIN
            break
        except _NegativeSpeedSq:
            status = RAY_NEGATIVE_SPEED_SQ
            break
        if r_next < lo or r_next > hi:
            status = RAY_LEFT_DOMAIN
            break
        t += step
        r = r_next
        ts.append(t)
        rs.append(r)
    return RayPath(t=np.asarray(ts), r=np.asarray(rs), direction=direction, status=status)
