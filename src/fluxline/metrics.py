"""Dimensionless light-speed profiles for 1+1-D spacetime sections.

A section is modeled as ds^2 = -c(r,t)^2 dt^2 + dr^2, so all of its geometry
is carried by the local light speed c(r,t) = background_c * sqrt(speed_sq),
where speed_sq(r, t) is dimensionless and equals 1 wherever the section is
flat. Values above 1 mark regions that are effectively superluminal with
respect to the background; negative values mark radii where the reduced
section admits no real light speed at all (the ergoregion of a rotating
hole). Negative values are returned as-is so downstream feasibility checks
can flag them instead of masking the obstruction here.

Built-in profiles:

  flat          speed_sq == 1 everywhere
  alcubierre    a bubble of radius R around a center moving at vs_over_c
                times the background speed, with tanh walls of steepness
                sigma (or the sharp-wall limit)
  godel         rotating universe, speed_sq = 1 + (r / 2a)^2
  kerr_extreme  maximally spinning hole; speed_sq vanishes at the horizon
                r = M and is negative inside the ergoregion of off-axis
                slices
  tabulated     linear interpolation between user samples, hard domain edges

Each kind is one entry of KINDS, which SpeedProfile and the config read.
All evaluators are pure and hold no mutable state, so profiles are safe to
share.

Each kind has one formula, written with operators that act alike on a Python
float and on an ndarray. Kind.bind binds it to its params once per
SpeedProfile, as SpeedProfile.formula, computing there what depends on the
params alone (2a, 2M, (M cos theta)^2, 2 tanh(sigma R)). A Python float goes
straight to it and a Python float comes back: the ray tracer calls formula
once per RK4 stage, and a numpy round-trip per call would cost several times
the arithmetic. speed_sq converts any point (floats, lists, ndarrays, 0-d
arrays, numpy scalars) once with np.asarray(..., dtype=float); an array
point returns an ndarray and a 0-d point a Python float. Both paths give the same bits: IEEE
+, -, *, / and abs round alike in both, (M - r)^2 is written d * d because
numpy squares arrays by multiplication, and smooth bubble walls call np.tanh
even on a float, because math.tanh differs from numpy's SIMD tanh in the
last ulp (for one in five uniform draws on [-20, 20] on an AVX-512 Xeon).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "ProfileDomainError",
    "ProfileEvaluationError",
    "MAX_GRID_POINTS",
    "ParamError",
    "FlatParams",
    "AlcubierreParams",
    "GodelParams",
    "KerrExtremeParams",
    "TabulatedParams",
    "Kind",
    "KINDS",
    "SpeedProfile",
    "ricci_scalar",
    "flat_profile",
    "alcubierre_profile",
    "godel_profile",
    "kerr_extreme_profile",
    "tabulated_profile",
]

ArrayLike = Union[float, np.ndarray]

FULL_LINE = (-math.inf, math.inf)
HALF_LINE = (0.0, math.inf)


class ProfileDomainError(ValueError):
    """An evaluation point (or a stencil around it) left the valid range."""


class ProfileEvaluationError(ValueError):
    """The profile value cannot be used here, e.g. speed_sq <= 0 under a sqrt.

    entry is the family parameter of the failing profile when a feasibility
    scan raised it, else None.
    """

    entry = None


# Most points one grid may hold: an array's n_cells, a simulation's n_points
# and the num of a config grid. Presets take at most 900 (n_points; n_cells
# is at most 512) and the benchmark's largest grid num is 1001; the bound
# keeps what a validated config allocates small.
MAX_GRID_POINTS = 2**20


class ParamError(ValueError):
    """A parameter of a profile, the array or a simulation is out of contract.

    field names the parameter; config reports it under its block's path.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field} {message}")
        self.field = field
        self.message = message


@dataclass(frozen=True)
class FlatParams:
    """The flat section has no parameters."""


@dataclass(frozen=True)
class AlcubierreParams:
    """Moving-bubble parameters.

    vs_over_c is the bubble velocity in units of the background light speed;
    nothing forbids values above 1. The bubble has radius bubble_radius_R
    around the center x_s0 + vs_over_c * background_c * t, with wall
    steepness sigma (inverse length). top_hat selects the sharp-wall limit,
    in which sigma is ignored and may be omitted.
    """

    vs_over_c: float
    bubble_radius_R: float
    sigma: Optional[float] = None
    x_s0: float = 0.0
    top_hat: bool = False

    def __post_init__(self):
        if self.vs_over_c < 0:
            raise ParamError("vs_over_c", "must be >= 0")
        if self.bubble_radius_R <= 0:
            raise ParamError("bubble_radius_R", "must be > 0")
        if not self.top_hat and (self.sigma is None or self.sigma <= 0):
            raise ParamError("sigma", "must be > 0 unless top_hat is true")


@dataclass(frozen=True)
class GodelParams:
    """Rotating-universe length scale a > 0."""

    a: float

    def __post_init__(self):
        if self.a <= 0:
            raise ParamError("a", "must be > 0")


@dataclass(frozen=True)
class KerrExtremeParams:
    """Maximal-spin hole of geometric mass M, sliced at fixed polar angle.

    theta is a parameter of the slice, not a coordinate; it must lie in
    [0, pi/2]. The spin is pinned to the mass, so the two horizons merge
    at r = M. (mass_M cos theta)^2 must not underflow to 0, or
    Sigma = r^2 + (mass_M cos theta)^2 vanishes at r = 0.
    """

    mass_M: float
    theta: float = 0.0

    def __post_init__(self):
        if self.mass_M <= 0:
            raise ParamError("mass_M", "must be > 0")
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ParamError("theta", "must lie in [0, pi/2]")
        m_cos = self.mass_M * math.cos(self.theta)
        if not 0.0 < m_cos * m_cos < math.inf:
            raise ParamError("mass_M", "must keep (mass_M cos theta)^2 finite and > 0, or Sigma vanishes at r = 0")


def _shape(params: AlcubierreParams) -> Callable:
    """The bubble wall f(r_s) of params, with its constants computed once."""
    R, s = params.bubble_radius_R, params.sigma
    if params.top_hat:
        return lambda rs: 1.0 * (rs <= R)
    two_tanh = 2.0 * math.tanh(s * R)
    return lambda rs: (np.tanh(s * (rs + R)) - np.tanh(s * (rs - R))) / two_tanh


def _alcubierre(params: AlcubierreParams) -> Callable:
    shape = _shape(params)
    x_s0, vs = params.x_s0, params.vs_over_c

    def speed_sq(x, t, background_c):
        # np.tanh, or a numpy scalar t, makes a numpy scalar of a float point
        c_rel = 1.0 + vs * shape(abs(x - (x_s0 + vs * background_c * t)))
        out = c_rel * c_rel
        return out if isinstance(out, np.ndarray) else float(out)

    return speed_sq


def _alcubierre_ray(params: AlcubierreParams) -> Optional[Callable]:
    """The top-hat ray, piecewise linear in the comoving xi = r - x_s0 - vs c t; None for smooth walls.

    xi moves at c (d (1 + vs) - vs) inside |xi| <= R and at c (d - vs)
    outside. Where the region ahead pushes the ray back, or holds it, it
    rides the wall it reached.
    """
    if not params.top_hat:
        return None
    R, x_s0, vs = params.bubble_radius_R, params.x_s0, params.vs_over_c
    walls = (-R, R)  # between regions 0 (behind), 1 (inside) and 2 (ahead)

    def ray(r0, t0, t, direction, background_c):
        out, inside = background_c * (direction - vs), background_c * (direction * (1.0 + vs) - vs)
        speeds = (out, inside, out)
        knots_t, knots_xi = [t0], [r0 - x_s0 - vs * background_c * t0]
        region = 0 if knots_xi[0] < -R else 2 if knots_xi[0] > R else 1
        v = speeds[region]
        while v:
            ahead = region + (1 if v > 0 else -1)
            if not 0 <= ahead <= 2:
                break  # no wall left in its way
            wall = walls[min(region, ahead)]
            knots_t.append(knots_t[-1] + (wall - knots_xi[-1]) / v)
            knots_xi.append(wall)
            # a region that pushes the ray back, or holds it, keeps it on the wall
            region, v = ahead, speeds[ahead] if speeds[ahead] * v > 0 else 0.0
        end = max(knots_t[-1], t[-1])
        knots_xi.append(knots_xi[-1] + v * (end - knots_t[-1]))
        knots_t.append(end)
        return np.interp(t, knots_t, knots_xi) + (x_s0 + vs * background_c * t)

    return ray


def _godel(params: GodelParams) -> Callable:
    two_a = 2.0 * params.a

    def speed_sq(r, t, background_c):
        u = r / two_a
        return 1.0 + u * u

    return speed_sq


def _godel_ray(params: GodelParams) -> Callable:
    two_a = 2.0 * params.a
    return lambda r0, t0, t, direction, background_c: two_a * np.sinh(
        np.arcsinh(r0 / two_a) + direction * background_c * (t - t0) / two_a
    )


def _kerr_extreme(params: KerrExtremeParams) -> Callable:
    M = params.mass_M
    two_m = 2.0 * M
    m_cos_sq = (M * math.cos(params.theta)) ** 2

    def speed_sq(r, t, background_c):
        sigma = r * r + m_cos_sq
        d = M - r
        return (1.0 - two_m * r / sigma) * (d * d) / sigma

    return speed_sq


# Most bracketed Newton iterations one exact Kerr ray takes; each launch in
# tests/test_rays.py converges in at most 35
KERR_RAY_ITERATIONS = 100


def _kerr_extreme_ray(params: KerrExtremeParams) -> Callable:
    """The exact ray, inverting its travel time on the branch of u = r - M it starts on.

    With a = M cos theta, b = M sin theta and k = M^2 + a^2, speed_sq is
    (u^2 - b^2) u^2 / Sigma^2, Sigma = r^2 + a^2. In s = sqrt(u^2 - b^2) >= 0
    and v = |u| = hypot(s, b), the branch side = sign(u) has the travel time

        T(s) = s + side 2M ln(v + s) - k asin(b / v) / b,    dT/ds = Sigma / v^2,

    whose b = 0 limit has -k / v for the last term, and a ray keeps
    T(s) - side direction c t constant. dT/ds >= 1 on side +1 and >= a^2 / k
    on side -1, which brackets each root for a bracketed Newton iteration
    that stops at round-off. Where b > 0, T is finite at the ergoregion edge
    s = 0: a ray that reaches the edge ends there, and only the samples up to
    then are returned, as the tracer stops at negative speed_sq. A launch
    inside the ergoregion returns its launch point alone; one on the axis's
    horizon r = M, where the speed is 0, stays there.
    """
    M = params.mass_M
    a_sq = (M * math.cos(params.theta)) ** 2
    b = M * math.sin(params.theta)
    k = M * M + a_sq
    eps = np.finfo(float).eps

    def travel(s, side):
        v = np.hypot(s, b)
        # asin(b / v) = atan2(b, s), which keeps its precision at the edge s = 0
        # where asin's does not; below b = 1e-8 v, asin(b / v) / b is 1 / v to round-off
        arc = np.where(b > 1e-8 * v, np.arctan2(b, s) / (b or 1.0), 1.0 / v)
        return s + side * (2.0 * M) * np.log(v + s) - k * arc

    def slope(s, side):
        v = np.hypot(s, b)
        r = M + side * v
        return (r * r + a_sq) / (v * v)

    def ray(r0, t0, t, direction, background_c):
        u0 = r0 - M
        v0, side = abs(u0), math.copysign(1.0, u0)
        if v0 < b:
            return np.array([r0])
        if v0 == 0.0:
            return np.full(len(t), r0)
        # T(0) is -inf on the axis (b = 0), where the bracket may reach s = 0,
        # and below -max float for a subnormal b
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s0 = math.sqrt((v0 - b) * (v0 + b))
            start = float(travel(s0, side))
            rise = side * direction * background_c * (t - t0)
            outward = side * direction > 0
            if not outward and b > 0:
                rise = rise[: np.count_nonzero(start + rise >= float(travel(0.0, side)))]
            target = start + rise
            reach = np.abs(rise) * (1.0 if side > 0 else k / a_sq)
            if outward:
                lo, hi = np.full(len(rise), s0), np.minimum(s0 + reach, sys.float_info.max)
            else:
                lo, hi = np.maximum(s0 - reach, 0.0), np.full(len(rise), s0)
            s = np.clip(s0 + rise / slope(s0, side), lo, hi)
            done = np.zeros(len(s), dtype=bool)
            for _ in range(KERR_RAY_ITERATIONS):
                miss = travel(s, side) - target
                lo = np.where(miss < 0.0, s, lo)
                hi = np.where(miss > 0.0, s, hi)
                newton = s - miss / slope(s, side)
                # a step under 4 ulp of r is round-off in T: take it and stop there
                small = np.abs(newton - s) <= 4.0 * eps * (M + np.hypot(s, b))
                step = np.where(small | ((lo < newton) & (newton < hi)), newton, 0.5 * lo + 0.5 * hi)
                s = np.where(done, s, step)
                done |= small
                if done.all():
                    break
            return M + side * np.hypot(s, b)

    return ray


@dataclass(frozen=True, eq=False)
class TabulatedParams:
    """Read-only copies of samples: strictly increasing r, finite values."""

    r: np.ndarray
    speed_sq: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float).copy()
        v = np.asarray(self.speed_sq, dtype=float).copy()
        if r.ndim != 1 or r.shape != v.shape or len(r) < 2:
            raise ValueError("need two equal-length 1-D sample arrays with >= 2 points")
        if np.any(np.diff(r) <= 0):
            raise ValueError("r samples must be strictly increasing")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise ValueError("samples must be finite")
        r.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "speed_sq", v)


def _flat(params: FlatParams) -> Callable:
    return lambda r, t, background_c: 1.0 if type(r) is float else np.ones_like(r)


def _flat_ray(params: FlatParams) -> Callable:
    return lambda r0, t0, t, direction, background_c: r0 + direction * background_c * (t - t0)


def _tabulated(params: TabulatedParams) -> Callable:
    lo, hi = float(params.r[0]), float(params.r[-1])

    def speed_sq(r, t, background_c):
        if np.any(r < lo) or np.any(r > hi):
            raise ProfileDomainError(f"tabulated profile evaluated outside [{lo}, {hi}]")
        out = np.interp(r, params.r, params.speed_sq)
        return float(out) if type(r) is float else out

    return speed_sq


def _kerr_extreme_sup(params: KerrExtremeParams, window) -> float:
    lo, hi = window
    return float(np.max(_kerr_extreme(params)(np.linspace(lo, hi, 4097), 0.0, 1.0)))


def _tabulated_sup(params: TabulatedParams, window) -> float:
    # a linear interpolant peaks at a window end or at a knot inside the window
    lo, hi = window
    rs = np.r_[lo, params.r[(params.r > lo) & (params.r < hi)], hi]
    return float(np.max(_tabulated(params)(rs, 0.0, 1.0)))


@dataclass(frozen=True)
class Kind:
    """One metric kind.

    params is the parameter dataclass: its fields are the config keys and
    its __post_init__ holds every value check. bind(params) returns the
    formula speed_sq(r, t, background_c) bound to params (see module doc).
    sup(params, window) bounds it on the window over all times,
    conservatively, since CFL bounds use it. valid_range is the default
    domain (None: the span of the samples). ray(params) binds the exact null
    ray, positions(r0, t0, t, direction, background_c) at an ndarray of
    increasing times t >= t0 of the ray launched from (t0, r0), or is None
    where the kind has no closed form: flat, godel, top-hat alcubierre and
    kerr_extreme have one, smooth-wall alcubierre and tabulated do not. A
    ray that runs into speed_sq < 0 (the kerr_extreme ergoregion) returns
    the positions at the prefix of t up to where it gets there.
    """

    params: type
    bind: Callable
    sup: Callable
    time_dependent: bool
    valid_range: Optional[tuple[float, float]] = FULL_LINE
    ray: Callable = lambda params: None


KINDS: dict[str, Kind] = {
    "flat": Kind(FlatParams, _flat, lambda p, window: 1.0, False, ray=_flat_ray),
    "alcubierre": Kind(
        AlcubierreParams, _alcubierre, lambda p, window: (1.0 + p.vs_over_c) ** 2, True, ray=_alcubierre_ray
    ),
    # the radial formula is even in r, so the even extension over the full
    # line is used; this keeps centered stencils at the axis inside range
    "godel": Kind(
        GodelParams,
        _godel,
        lambda p, window: float(_godel(p)(max(abs(window[0]), abs(window[1])), 0.0, 1.0)),
        False,
        ray=_godel_ray,
    ),
    "kerr_extreme": Kind(KerrExtremeParams, _kerr_extreme, _kerr_extreme_sup, False, HALF_LINE, _kerr_extreme_ray),
    "tabulated": Kind(TabulatedParams, _tabulated, _tabulated_sup, False, None),
}


@dataclass(frozen=True)
class SpeedProfile:
    """A dimensionless squared-speed field speed_sq(r, t) with its domain.

    kind names an entry of KINDS and params is an instance of its parameter
    dataclass. valid_range is the r interval callers may rely on; tabulated
    profiles enforce it hard, the analytic ones use it to bound solvers and
    ray tracers. formula(r, t, background_c) is the kind's formula bound to
    params: a Python float r gives a Python float, an ndarray r an ndarray
    (see module doc); speed_sq takes any point.
    """

    kind: str
    params: object
    valid_range: tuple[float, float]
    formula: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "formula", KINDS[self.kind].bind(self.params))

    def __reduce__(self):
        # the bound formula is a closure; a copy or an unpickled profile binds its own
        return SpeedProfile, (self.kind, self.params, self.valid_range)

    @property
    def time_dependent(self) -> bool:
        return KINDS[self.kind].time_dependent

    def speed_sq(self, r: ArrayLike, t: float = 0.0, background_c: float = 1.0) -> ArrayLike:
        """Evaluate the profile; may return negative values (see module doc)."""
        out = self.formula(np.asarray(r, dtype=float), t, background_c)
        return out if isinstance(out, np.ndarray) and out.ndim else float(out)

    def finite_speed_sq(self, r: ArrayLike, t: ArrayLike = 0.0, background_c: float = 1.0) -> np.ndarray:
        """speed_sq on the full grid r and t broadcast to, or ProfileEvaluationError at its first non-finite value.

        It names the first in C order by its own r and t: for t = times[:, None]
        the earliest time. A parameter near the float limits overflows the
        profile; this error, not a numpy overflow warning, reports that.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            at_r, at_t, s = np.broadcast_arrays(r, t, self.speed_sq(r, t, background_c))
        s = s.astype(float, order="C")
        bad = np.flatnonzero(~np.isfinite(s))
        if bad.size:
            i = bad[0]
            raise ProfileEvaluationError(f"speed_sq = {s.flat[i]} at r = {at_r.flat[i]}, t = {at_t.flat[i]} is not finite")
        return s

    def contains(self, r: float) -> bool:
        lo, hi = self.valid_range
        return lo <= r <= hi

    def sup_speed_sq(self, window: tuple[float, float]) -> float:
        """Supremum of speed_sq on the window, over all times (see Kind.sup)."""
        return KINDS[self.kind].sup(self.params, window)


def flat_profile(valid_range: tuple[float, float] = FULL_LINE) -> SpeedProfile:
    return SpeedProfile("flat", FlatParams(), valid_range)


def alcubierre_profile(
    params: AlcubierreParams, valid_range: tuple[float, float] = FULL_LINE
) -> SpeedProfile:
    return SpeedProfile("alcubierre", params, valid_range)


def godel_profile(
    params: GodelParams, valid_range: tuple[float, float] = FULL_LINE
) -> SpeedProfile:
    return SpeedProfile("godel", params, valid_range)


def kerr_extreme_profile(
    params: KerrExtremeParams, valid_range: tuple[float, float] = HALF_LINE
) -> SpeedProfile:
    return SpeedProfile("kerr_extreme", params, valid_range)


def tabulated_profile(r_samples, speed_sq_samples) -> SpeedProfile:
    """Profile interpolating linearly between samples; rejects evaluation outside."""
    params = TabulatedParams(r_samples, speed_sq_samples)
    return SpeedProfile("tabulated", params, (float(params.r[0]), float(params.r[-1])))


def ricci_scalar(
    profile: SpeedProfile,
    background_c: float,
    r: float,
    t: float = 0.0,
    h: Optional[float] = None,
) -> float:
    """Scalar curvature -2 c''(r, t) / c(r, t) of the reduced section.

    c'' is a centered second difference with step h, second-order accurate.
    Default h is the valid-range span / 1e4, falling back to
    1e-4 * max(1, |r|) when the range is unbounded.
    """
    lo, hi = profile.valid_range
    if h is None:
        span = hi - lo
        h = span / 1e4 if math.isfinite(span) else 1e-4 * max(1.0, abs(r))
    if h <= 0:
        raise ValueError("h must be > 0")
    if r - h < lo or r + h > hi:
        raise ProfileDomainError(f"stencil [{r - h}, {r + h}] leaves [{lo}, {hi}]")
    stencil = np.array([r - h, r, r + h])
    s2 = profile.speed_sq(stencil, t, background_c)
    if np.any(s2 <= 0):
        raise ProfileEvaluationError("speed_sq <= 0 in the curvature stencil")
    c = background_c * np.sqrt(s2)
    c_dd = (c[0] - 2.0 * c[1] + c[2]) / (h * h)
    return -2.0 * c_dd / c[1]
