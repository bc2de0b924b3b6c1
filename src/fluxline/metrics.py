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
float and on an ndarray. A Python float is evaluated as it is, with plain
float arithmetic, and a Python float comes back: the ray tracer calls the
profile once per RK4 stage, and a numpy round-trip per call would cost
several times the arithmetic. Anything else (lists, ndarrays, 0-d arrays,
numpy scalars) is converted with np.asarray(..., dtype=float); an array
point returns an ndarray and a 0-d point a Python float. Both paths give the
same bits: IEEE +, -, *, / and abs round alike in both, (M - r)^2 is written
d * d because numpy squares arrays by multiplication, and smooth bubble
walls call np.tanh even on a float, because math.tanh differs from numpy's
SIMD tanh in the last ulp (for one in five uniform draws on [-20, 20] on an
AVX-512 Xeon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "ProfileDomainError",
    "ProfileEvaluationError",
    "ParamError",
    "FlatParams",
    "AlcubierreParams",
    "GodelParams",
    "KerrExtremeParams",
    "TabulatedParams",
    "Kind",
    "KINDS",
    "SpeedProfile",
    "shape_function",
    "alcubierre_speed_sq",
    "godel_speed_sq",
    "kerr_extreme_speed_sq",
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
    """The profile value cannot be used here, e.g. speed_sq <= 0 under a sqrt."""


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
        if (self.mass_M * math.cos(self.theta)) ** 2 == 0.0:
            raise ParamError("mass_M", "must keep (mass_M cos theta)^2 > 0, or Sigma vanishes at r = 0")


def _point(x: ArrayLike) -> ArrayLike:
    """A Python float as it is; anything else as a float ndarray."""
    return x if type(x) is float else np.asarray(x, dtype=float)


def _value(out) -> ArrayLike:
    """A Python float for a scalar point, an ndarray for an array point."""
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def shape_function(r_s: ArrayLike, params: AlcubierreParams) -> ArrayLike:
    """Bubble wall shape f(r_s) in [0, 1].

    Smooth form: [tanh(sigma (r_s + R)) - tanh(sigma (r_s - R))] / (2 tanh(sigma R)).
    Sharp-wall limit: 1 for r_s <= R, 0 beyond.
    """
    rs = _point(r_s)
    if params.top_hat:
        out = 1.0 * (rs <= params.bubble_radius_R)
    else:
        s = params.sigma
        R = params.bubble_radius_R
        out = (np.tanh(s * (rs + R)) - np.tanh(s * (rs - R))) / (2.0 * math.tanh(s * R))
    return _value(out)


def alcubierre_speed_sq(
    x: ArrayLike, t: float, params: AlcubierreParams, background_c: float = 1.0
) -> ArrayLike:
    """Squared speed (1 + vs_over_c * f(r_s))^2 around the moving center.

    The center travels at vs_over_c * background_c in coordinate units, so
    lab-frame runs at a reduced background see the bubble move at the
    correspondingly reduced velocity.
    """
    xs = params.x_s0 + params.vs_over_c * background_c * t
    r_s = abs(_point(x) - xs)
    c_rel = 1.0 + params.vs_over_c * shape_function(r_s, params)
    return c_rel * c_rel


def godel_speed_sq(r: ArrayLike, params: GodelParams) -> ArrayLike:
    """Squared speed 1 + (r / 2a)^2; even in r and independent of time."""
    u = _point(r) / (2.0 * params.a)
    return _value(1.0 + u * u)


def kerr_extreme_speed_sq(r: ArrayLike, params: KerrExtremeParams) -> ArrayLike:
    """Squared speed (1 - 2Mr/Sigma) (M - r)^2 / Sigma, Sigma = r^2 + M^2 cos^2(theta).

    Negative inside the ergoregion band (theta > 0); exactly zero at the
    horizon r = M. On the axis (theta = 0) it collapses to
    ((r - M)^2 / (r^2 + M^2))^2, which stays in [0, 1].
    """
    M = params.mass_M
    rr = _point(r)
    sigma = rr * rr + (M * math.cos(params.theta)) ** 2
    d = M - rr
    return _value((1.0 - 2.0 * M * rr / sigma) * (d * d) / sigma)


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


def _flat_speed_sq(r, t, params, background_c):
    return 1.0 if type(r) is float else _value(np.ones_like(np.asarray(r, dtype=float)))


def _tabulated_speed_sq(r, t, params: TabulatedParams, background_c):
    rr = np.asarray(r, dtype=float)
    lo, hi = float(params.r[0]), float(params.r[-1])
    if np.any(rr < lo) or np.any(rr > hi):
        raise ProfileDomainError(f"tabulated profile evaluated outside [{lo}, {hi}]")
    out = np.interp(rr, params.r, params.speed_sq)
    return float(out) if np.ndim(r) == 0 else out


def _kerr_extreme_sup(params: KerrExtremeParams, window) -> float:
    lo, hi = window
    return float(np.max(kerr_extreme_speed_sq(np.linspace(lo, hi, 4097), params)))


def _tabulated_sup(params: TabulatedParams, window) -> float:
    lo, hi = window
    rs = np.linspace(lo, hi, max(len(params.r) * 4, 4097))
    return float(np.max(_tabulated_speed_sq(rs, 0.0, params, 1.0)))


@dataclass(frozen=True)
class Kind:
    """One metric kind.

    params is the parameter dataclass: its fields are the config keys and
    its __post_init__ holds every value check. speed_sq(r, t, params,
    background_c) evaluates the profile. sup(params, window) bounds it on
    the window over all times, conservatively, since CFL bounds use it.
    valid_range is the default domain (None: the span of the samples).
    """

    params: type
    speed_sq: Callable
    sup: Callable
    time_dependent: bool
    valid_range: Optional[tuple[float, float]] = FULL_LINE


KINDS: dict[str, Kind] = {
    "flat": Kind(FlatParams, _flat_speed_sq, lambda p, window: 1.0, False),
    "alcubierre": Kind(
        AlcubierreParams, alcubierre_speed_sq, lambda p, window: (1.0 + p.vs_over_c) ** 2, True
    ),
    # the radial formula is even in r, so the even extension over the full
    # line is used; this keeps centered stencils at the axis inside range
    "godel": Kind(
        GodelParams,
        lambda r, t, p, background_c: godel_speed_sq(r, p),
        lambda p, window: godel_speed_sq(max(abs(window[0]), abs(window[1])), p),
        False,
    ),
    "kerr_extreme": Kind(
        KerrExtremeParams,
        lambda r, t, p, background_c: kerr_extreme_speed_sq(r, p),
        _kerr_extreme_sup,
        False,
        HALF_LINE,
    ),
    "tabulated": Kind(TabulatedParams, _tabulated_speed_sq, _tabulated_sup, False, None),
}


@dataclass(frozen=True)
class SpeedProfile:
    """A dimensionless squared-speed field speed_sq(r, t) with its domain.

    kind names an entry of KINDS and params is an instance of its parameter
    dataclass. valid_range is the r interval callers may rely on; tabulated
    profiles enforce it hard, the analytic ones use it to bound solvers and
    ray tracers.
    """

    kind: str
    params: object
    valid_range: tuple[float, float]

    @property
    def time_dependent(self) -> bool:
        return KINDS[self.kind].time_dependent

    def speed_sq(self, r: ArrayLike, t: float = 0.0, background_c: float = 1.0) -> ArrayLike:
        """Evaluate the profile; may return negative values (see module doc)."""
        return KINDS[self.kind].speed_sq(r, t, self.params, background_c)

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
