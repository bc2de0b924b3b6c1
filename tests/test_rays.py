"""Null-characteristic tracer against closed-form trajectories."""

import math

import numpy as np
import pytest

from fluxline.metrics import (
    AlcubierreParams,
    GodelParams,
    KerrExtremeParams,
    ProfileDomainError,
    ProfileEvaluationError,
    alcubierre_profile,
    flat_profile,
    godel_profile,
    kerr_extreme_profile,
    tabulated_profile,
)
from fluxline.wavelab import (
    RAY_COMPLETED,
    RAY_LEFT_DOMAIN,
    RAY_NEGATIVE_SPEED_SQ,
    trace_null_geodesic,
)


def test_flat_ray_is_straight():
    path = trace_null_geodesic(flat_profile(), 1.0, r0=0.0, t_end=5.0)
    assert path.status == RAY_COMPLETED
    assert path.t[-1] == pytest.approx(5.0, abs=1e-12)
    assert path.r[-1] == pytest.approx(5.0, abs=1e-10)


def test_flat_ray_scales_with_background_speed_and_direction():
    path = trace_null_geodesic(flat_profile(), 0.25, r0=2.0, direction=-1, t_end=4.0)
    assert path.r[-1] == pytest.approx(1.0, abs=1e-10)


def test_godel_ray_matches_sinh_solution():
    a = 1.0
    prof = godel_profile(GodelParams(a=a))
    path = trace_null_geodesic(prof, 1.0, r0=0.0, t_end=2 * a)
    exact = 2 * a * math.sinh(1.0)
    assert abs(path.r[-1] - exact) / exact < 1e-6


def test_godel_ray_from_offset_launch():
    a = 0.8
    r0 = 0.6
    prof = godel_profile(GodelParams(a=a))
    t_end = 1.7
    path = trace_null_geodesic(prof, 1.0, r0=r0, t_end=t_end, dt=t_end / 2000)
    exact = 2 * a * math.sinh(t_end / (2 * a) + math.asinh(r0 / (2 * a)))
    assert abs(path.r[-1] - exact) / exact < 1e-8


def test_alcubierre_interior_speed_is_one_plus_vs():
    # launched at the moving center: local speed (1 + vs) c until the ray
    # reaches the wall (interior gain over the wall is 1.0 c)
    p = AlcubierreParams(vs_over_c=1.5, bubble_radius_R=2.0, x_s0=0.0, top_hat=True)
    prof = alcubierre_profile(p)
    t_inside = 1.5  # wall reached at t = R / c = 2.0
    path = trace_null_geodesic(prof, 1.0, r0=0.0, t_end=t_inside, dt=1e-3)
    assert path.r[-1] == pytest.approx(2.5 * t_inside, rel=1e-9)


def test_alcubierre_ray_locks_to_leading_wall():
    p = AlcubierreParams(vs_over_c=1.5, bubble_radius_R=2.0, x_s0=0.0, top_hat=True)
    prof = alcubierre_profile(p)
    path = trace_null_geodesic(prof, 1.0, r0=0.0, t_end=40.0, dt=5e-3)
    # long-time: the ray rides the leading wall at the bubble speed
    wall = 2.0 + 1.5 * path.t[-1]
    assert path.r[-1] == pytest.approx(wall, abs=0.1)
    late = path.t > 30.0
    speed = np.gradient(path.r[late], path.t[late]).mean()
    assert speed == pytest.approx(1.5, abs=0.05)


def test_kerr_axis_ray_stalls_at_horizon():
    prof = kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=0.0))
    path = trace_null_geodesic(prof, 1.0, r0=2.0, direction=-1, t_end=100.0, dt=0.01)
    assert path.status == RAY_COMPLETED
    assert np.all(path.r > 1.0)  # never reaches or crosses the horizon
    assert np.all(np.diff(path.r) < 0.0)  # monotone approach
    assert path.r[-1] - 1.0 < 0.05


def test_kerr_equatorial_ray_terminates_at_ergoregion():
    prof = kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=math.pi / 2))
    path = trace_null_geodesic(prof, 1.0, r0=3.0, direction=-1, t_end=50.0, dt=0.01)
    assert path.status == RAY_NEGATIVE_SPEED_SQ
    assert path.r[-1] > 2.0 - 0.05  # stopped at the outer edge of the band


def test_ray_leaves_tabulated_domain_with_flag():
    prof = tabulated_profile([0.0, 5.0], [1.0, 1.0])
    path = trace_null_geodesic(prof, 1.0, r0=4.0, t_end=10.0, dt=0.01)
    assert path.status == RAY_LEFT_DOMAIN
    assert path.t[-1] < 10.0
    assert path.r[-1] <= 5.0


def test_ray_rejects_launch_outside_domain():
    prof = tabulated_profile([0.0, 5.0], [1.0, 1.0])
    with pytest.raises(ProfileDomainError):
        trace_null_geodesic(prof, 1.0, r0=6.0, t_end=1.0)


def test_ray_argument_validation():
    with pytest.raises(ValueError):
        trace_null_geodesic(flat_profile(), 1.0, r0=0.0, direction=2, t_end=1.0)
    with pytest.raises(ValueError):
        trace_null_geodesic(flat_profile(), 1.0, r0=0.0, t_end=0.0)


def test_ray_fourth_order_convergence():
    prof = godel_profile(GodelParams(a=1.0))
    exact = 2 * math.sinh(1.0)
    errs = []
    for dt in (0.2, 0.1):
        path = trace_null_geodesic(prof, 1.0, r0=0.0, t_end=2.0, dt=dt)
        errs.append(abs(path.r[-1] - exact))
    # classical single-step 4th order: halving dt cuts the error ~16x
    assert errs[0] / errs[1] > 12.0


class ArrayPointProfile:
    """A profile whose every evaluation point is sent down the ndarray path."""

    def __init__(self, profile):
        self._profile = profile

    def __getattr__(self, name):
        return getattr(self._profile, name)

    def speed_sq(self, r, t=0.0, background_c=1.0):
        return self._profile.speed_sq(np.asarray(r), t, background_c)


@pytest.mark.parametrize(
    "prof, r0, direction, t_end, bg",
    [
        (flat_profile(), 0.0, 1, 5.0, 1.0),
        (alcubierre_profile(AlcubierreParams(vs_over_c=1.5, bubble_radius_R=0.4, x_s0=6.0, top_hat=True)),
         5.5, 1, 3.0, 1.0),
        (alcubierre_profile(AlcubierreParams(vs_over_c=0.9, bubble_radius_R=0.3, sigma=10.0, x_s0=6.0)),
         5.5, 1, 4.0, 0.7),
        (godel_profile(GodelParams(a=1.0)), 0.3, 1, 2.0, 1.0),
        (kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=0.0)), 2.0, -1, 20.0, 1.0),
        (kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=math.pi / 4)), 3.0, -1, 20.0, 1.0),
        (tabulated_profile([0.0, 2.0, 5.0], [1.0, 3.0, 0.5]), 1.0, 1, 10.0, 1.0),
    ],
    ids=["flat", "alcubierre_top_hat", "alcubierre_smooth", "godel", "kerr_theta0", "kerr_pi4", "tabulated"],
)
def test_float_oracle_path_matches_array_path(prof, r0, direction, t_end, bg):
    kw = dict(r0=r0, direction=direction, t_end=t_end, dt=t_end / 2000)
    fast = trace_null_geodesic(prof, bg, **kw)
    slow = trace_null_geodesic(ArrayPointProfile(prof), bg, **kw)
    assert fast.status == slow.status
    assert fast.t.tobytes() == slow.t.tobytes()
    assert fast.r.tobytes() == slow.r.tobytes()


class _RefLeftDomain(Exception):
    pass


class _RefNegativeSpeedSq(Exception):
    pass


def reference_trace(profile, background_c, r0, t0, direction, t_end, dt):
    """The RK4 loop of trace_null_geodesic as first written, before its invariants were hoisted."""
    lo, hi = profile.valid_range

    def rhs(r, t):
        if r < lo or r > hi:
            raise _RefLeftDomain
        s2 = profile.speed_sq(r, t, background_c=background_c)
        if not 0.0 <= s2 < math.inf:
            if s2 < 0.0:
                raise _RefNegativeSpeedSq
            raise ProfileEvaluationError(f"speed_sq = {s2} at r = {r}, t = {t} is not finite")
        return direction * background_c * math.sqrt(s2)

    ts = [t0]
    rs = [r0]
    status = RAY_COMPLETED
    t, r = t0, r0
    while t < t_end - 1e-15 * max(1.0, abs(t_end)):
        step = min(dt, t_end - t)
        try:
            k1 = rhs(r, t)
            k2 = rhs(r + 0.5 * step * k1, t + 0.5 * step)
            k3 = rhs(r + 0.5 * step * k2, t + 0.5 * step)
            k4 = rhs(r + step * k3, t + step)
            r_next = r + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except _RefLeftDomain:
            status = RAY_LEFT_DOMAIN
            break
        except _RefNegativeSpeedSq:
            status = RAY_NEGATIVE_SPEED_SQ
            break
        if r_next < lo or r_next > hi:
            status = RAY_LEFT_DOMAIN
            break
        t += step
        r = r_next
        ts.append(t)
        rs.append(r)
    return np.asarray(ts), np.asarray(rs), status


# every built-in kind; t_end is no multiple of dt, so each completed ray
# ends on a partial step, and one case per early end
REFERENCE_CASES = {
    "flat": (flat_profile(), 0.8, 0.0, 1, 5.0, 0.0071, RAY_COMPLETED),
    "alcubierre_top_hat": (
        alcubierre_profile(AlcubierreParams(vs_over_c=1.5, bubble_radius_R=0.4, x_s0=6.0, top_hat=True)),
        1.0, 5.5, 1, 3.0, 0.0043, RAY_COMPLETED,
    ),
    "alcubierre_smooth": (
        alcubierre_profile(AlcubierreParams(vs_over_c=0.9, bubble_radius_R=0.3, sigma=10.0, x_s0=6.0)),
        0.7, 5.5, 1, 4.0, 0.0057, RAY_COMPLETED,
    ),
    "godel": (godel_profile(GodelParams(a=0.7)), 1.0, 0.3, -1, 2.5, 0.0037, RAY_COMPLETED),
    "godel_left_domain": (
        godel_profile(GodelParams(a=0.7), valid_range=(-1.0, 2.0)), 1.0, 0.3, 1, 5.0, 0.0037, RAY_LEFT_DOMAIN,
    ),
    "kerr_theta0": (kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=0.0)), 1.0, 2.0, -1, 20.0, 0.031,
                    RAY_COMPLETED),
    "kerr_pi4": (kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=math.pi / 4)), 1.0, 3.0, -1, 20.0, 0.031,
                 RAY_NEGATIVE_SPEED_SQ),
    "tabulated": (tabulated_profile([0.0, 2.0, 5.0], [1.0, 3.0, 0.5]), 1.0, 1.0, 1, 10.0, 0.013,
                  RAY_LEFT_DOMAIN),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_trace_matches_reference_loop_bitwise(case):
    prof, bg, r0, direction, t_end, dt, status = REFERENCE_CASES[case]
    path = trace_null_geodesic(prof, bg, r0=r0, direction=direction, t_end=t_end, dt=dt)
    ts, rs, ref_status = reference_trace(prof, bg, r0, 0.0, direction, t_end, dt)
    assert path.status == ref_status == status
    assert path.t.tobytes() == ts.tobytes()
    assert path.r.tobytes() == rs.tobytes()
    assert len(path.t) > 100
    if status == RAY_COMPLETED:
        # the last step is the partial one up to t_end
        assert path.t[-1] == t_end and 0.0 < path.t[-1] - path.t[-2] < dt
