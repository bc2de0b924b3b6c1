"""Null-characteristic tracing and the verification oracle.

A light front in the reduced section follows dr/dt = direction *
background_c * sqrt(speed_sq(r, t)). The tracer integrates this with a
classical 4th-order single-step scheme at fixed step size; it terminates
early (with a status flag, not an exception) when the path leaves the
profile's valid range or runs into speed_sq < 0. A non-finite speed_sq
(an overflow far out on an unbounded range) raises ProfileEvaluationError:
no path through it exists. Every stage calls profile.formula, the kind's
formula bound to its params, on Python floats (see metrics). The raytrace
command always traces.

oracle_positions is the ray every verification compares a front with. It
evaluates the kind's exact ray (Kind.ray) where the section has one: flat,
godel, top-hat alcubierre and kerr_extreme, so every simulate preset has an
exact oracle. Elsewhere (smooth-wall alcubierre, tabulated) it traces 8192
steps and interpolates linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..metrics import KINDS, ProfileDomainError, ProfileEvaluationError, SpeedProfile

__all__ = [
    "RAY_COMPLETED",
    "RAY_LEFT_DOMAIN",
    "RAY_NEGATIVE_SPEED_SQ",
    "RayPath",
    "oracle_positions",
    "trace_null_geodesic",
]

RAY_COMPLETED = "completed"
RAY_LEFT_DOMAIN = "left_domain"
RAY_NEGATIVE_SPEED_SQ = "negative_speed_sq"
# Steps a trace takes over [t0, t_end] when no dt is given
DEFAULT_RAY_STEPS = 4096


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

    dt defaults to (t_end - t0) / DEFAULT_RAY_STEPS. The returned path ends
    at t_end (status "completed") or at the last accepted sample before the
    domain edge or a negative-speed region. A step too small to change t
    raises ValueError.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if not background_c > 0:
        raise ValueError("background_c must be > 0")
    if not t_end > t0:
        raise ValueError("t_end must exceed t0")
    if not profile.contains(r0):
        raise ProfileDomainError(f"r0 = {r0} outside profile range {profile.valid_range}")
    if dt is None:
        dt = (t_end - t0) / DEFAULT_RAY_STEPS
    if dt <= 0:
        raise ValueError("dt must be > 0")

    lo, hi = profile.valid_range
    speed_sq = profile.formula
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
        if t + step == t:
            raise ValueError(f"step {step!r} leaves t = {t!r} unchanged")
        t += step
        r = r_next
        ts.append(t)
        rs.append(r)
    return RayPath(t=np.asarray(ts), r=np.asarray(rs), direction=direction, status=status)


def oracle_positions(profile: SpeedProfile, background_c: float, t, r0: float, direction: int = 1) -> np.ndarray:
    """The ray launched from (t[0], r0) at the increasing times t, up to where it leaves valid_range.

    Returns the positions at the prefix of t that the ray reaches inside the
    range; the first is r0. The exact ray is monotone in r, so it is cut at
    its first sample outside; it ends early where it reaches speed_sq < 0, as
    a traced one ends where the trace stopped.
    A launch outside the range raises ProfileDomainError, and a non-finite
    position ProfileEvaluationError.
    """
    t = np.asarray(t, dtype=float)
    if not profile.contains(r0):
        raise ProfileDomainError(f"r0 = {r0} outside profile range {profile.valid_range}")
    exact = KINDS[profile.kind].ray(profile.params)
    if exact is None:
        ray = trace_null_geodesic(
            profile,
            background_c,
            r0=r0,
            t0=float(t[0]),
            direction=direction,
            t_end=float(t[-1]) + 1e-12,
            dt=(float(t[-1]) - float(t[0])) / 8192.0,
        )
        t = t[t <= ray.t[-1] + 1e-12]
        r = np.interp(t, ray.t, ray.r)
    else:
        lo, hi = profile.valid_range
        with np.errstate(over="ignore", invalid="ignore"):
            r = exact(r0, float(t[0]), t, direction, background_c)
        r[0] = r0
        outside = np.flatnonzero((r < lo) | (r > hi))
        if outside.size:
            r = r[: outside[0]]
    bad = np.flatnonzero(~np.isfinite(r))
    if bad.size:
        i = bad[0]
        raise ProfileEvaluationError(f"ray position {r[i]} at t = {t[i]} is not finite")
    return r
