"""Null-characteristic tracer and verification oracle against closed-form trajectories."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fluxline.metrics import (
    KINDS,
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
    compare_front_to_ray,
    trace_null_geodesic,
)
from fluxline.wavelab.rays import oracle_positions

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_ray_step_landing_outside_the_range_is_not_taken():
    # every stage of the step from r = 4 with dt = 0.5 lies inside [0, 5]
    # (4, 4.25, 4.25, 4.5), but the fast last stage carries its end to 5.25
    prof = tabulated_profile([0.0, 4.25, 4.5, 5.0], [1.0, 1.0, 100.0, 100.0])
    path = trace_null_geodesic(prof, 1.0, r0=4.0, t_end=2.0, dt=0.5)
    assert path.status == RAY_LEFT_DOMAIN
    assert path.t.tolist() == [0.0] and path.r.tolist() == [4.0]


def test_ray_rejects_launch_outside_domain():
    prof = tabulated_profile([0.0, 5.0], [1.0, 1.0])
    with pytest.raises(ProfileDomainError):
        trace_null_geodesic(prof, 1.0, r0=6.0, t_end=1.0)


def test_ray_argument_validation():
    with pytest.raises(ValueError):
        trace_null_geodesic(flat_profile(), 1.0, r0=0.0, direction=2, t_end=1.0)
    with pytest.raises(ValueError):
        trace_null_geodesic(flat_profile(), 1.0, r0=0.0, t_end=0.0)
    for background_c in (-1.0, 0.0):
        with pytest.raises(ValueError):
            trace_null_geodesic(flat_profile(), background_c, r0=0.0, t_end=1.0)


def test_a_step_that_leaves_t_unchanged_raises_instead_of_looping():
    # at t = 1e12 the default step 2.4e-6 is below ulp(t) = 1.2e-4; once looped forever
    code = (
        "from fluxline.metrics import flat_profile\n"
        "from fluxline.wavelab import trace_null_geodesic\n"
        "try:\n"
        "    trace_null_geodesic(flat_profile(), 1.0, r0=0.0, t0=1e12, t_end=1000000000000.01)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("step ") and "unchanged" in done.stdout


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

    # the tracer calls the bound formula, so it too takes the ndarray path
    formula = speed_sq


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


# --- the exact rays (Kind.ray) against the tracer at the oracle's steps ---

ORACLE_STEPS = 8192
T0, SPAN, BG = 0.5, 12.0, 0.8
R, X_S0 = 2.0, 6.0
# comoving launch offsets xi0 = r0 - x_s0 - vs c t0: behind, inside and ahead of the bubble
LAUNCHES = {"behind": -3.0, "inside": 0.5, "ahead": 3.0}
TOP_HAT_CASES = {
    f"vs{vs}_{'fwd' if d > 0 else 'back'}_{where}": (vs, d, xi0)
    for vs in (0.5, 1.0, 1.5)
    for d in (1, -1)
    for where, xi0 in LAUNCHES.items()
}


def top_hat(vs, valid_range=(-math.inf, math.inf)):
    return alcubierre_profile(
        AlcubierreParams(vs_over_c=vs, bubble_radius_R=R, x_s0=X_S0, top_hat=True), valid_range
    )


def exact_ray(prof, r0, direction, t, t0=T0, bg=BG):
    return KINDS[prof.kind].ray(prof.params)(r0, t0, np.asarray(t, dtype=float), direction, bg)


def trace_errors(prof, r0, direction):
    """Worst |trace - exact ray| over the tracer's nodes at the oracle's steps and 8x as many."""
    errors = []
    for steps in (ORACLE_STEPS, 8 * ORACLE_STEPS):
        path = trace_null_geodesic(prof, BG, r0=r0, t0=T0, direction=direction, t_end=T0 + SPAN, dt=SPAN / steps)
        assert path.status == RAY_COMPLETED and len(path.t) == steps + 1
        errors.append(float(np.max(np.abs(path.r - exact_ray(prof, r0, direction, path.t)))))
    return errors


@pytest.mark.parametrize("case", sorted(TOP_HAT_CASES))
def test_tracer_converges_to_the_exact_top_hat_ray(case):
    vs, direction, xi0 = TOP_HAT_CASES[case]
    coarse, fine = trace_errors(top_hat(vs), X_S0 + vs * BG * T0 + xi0, direction)
    # across a wall the tracer is first order: measured at most half a step of
    # light travel at both step counts (riding the wall); the margin is round-off
    step = BG * SPAN / ORACLE_STEPS
    assert coarse <= (0.5 + 1e-8) * step
    assert fine <= (0.5 + 1e-8) * step / 8
    if coarse > 1e-6:
        # a wall event: the error fell 4-8x with 8x the steps
        assert fine <= coarse / 3


@pytest.mark.parametrize(
    "prof, r0, direction",
    [
        (flat_profile(), 0.3, 1),
        (flat_profile(), 0.3, -1),
        (godel_profile(GodelParams(a=0.8)), -1.0, 1),
        (godel_profile(GodelParams(a=0.8)), 0.4, -1),
    ],
    ids=["flat_fwd", "flat_back", "godel_fwd", "godel_back"],
)
def test_tracer_meets_the_exact_smooth_ray_to_round_off(prof, r0, direction):
    # RK4's truncation error is below round-off at these steps: measured at
    # most 1.3e-12 of the largest |r|
    scale = np.max(np.abs(exact_ray(prof, r0, direction, [T0, T0 + SPAN])))
    assert max(trace_errors(prof, r0, direction)) <= 2e-12 * scale


def test_top_hat_ray_rides_the_superluminal_wall():
    vs, xi0 = 1.5, 0.5
    r0 = X_S0 + vs * BG * T0 + xi0
    t = np.linspace(T0, T0 + SPAN, 97)
    r = exact_ray(top_hat(vs), r0, 1, t)
    # inside, the ray gains c on the bubble until it meets the leading wall at
    # t0 + (R - xi0) / c; from there it moves with the bubble
    meet = T0 + (R - xi0) / BG
    inside = t <= meet
    np.testing.assert_allclose(r[inside], r0 + (1.0 + vs) * BG * (t[inside] - T0), rtol=1e-15, atol=1e-14)
    np.testing.assert_allclose(r[~inside], X_S0 + R + vs * BG * t[~inside], rtol=1e-15, atol=1e-14)


def reference_oracle(profile, background_c, ts, r0, direction):
    """compare_front_to_ray's oracle as it was before exact rays: 8192 RK4 steps and np.interp."""
    ray = trace_null_geodesic(
        profile,
        background_c,
        r0=r0,
        t0=float(ts[0]),
        direction=direction,
        t_end=float(ts[-1]) + 1e-12,
        dt=(float(ts[-1]) - float(ts[0])) / 8192.0,
    )
    ts = ts[ts <= ray.t[-1] + 1e-12]
    return np.interp(ts, ray.t, ray.r)


# kinds without a closed form, with a trace that completes and one that
# leaves the domain
TRACED_CASES = {
    "alcubierre_smooth": (
        alcubierre_profile(AlcubierreParams(vs_over_c=0.9, bubble_radius_R=0.3, sigma=10.0, x_s0=6.0)),
        0.7, 5.5, 1, 4.0,
    ),
    "tabulated": (tabulated_profile([0.0, 2.0, 5.0], [1.0, 3.0, 0.5]), 1.0, 1.0, 1, 10.0),
}


@pytest.mark.parametrize("case", sorted(TRACED_CASES))
def test_oracle_traces_kinds_without_a_closed_form_bitwise(case):
    prof, bg, r0, direction, t_end = TRACED_CASES[case]
    assert KINDS[prof.kind].ray(prof.params) is None
    ts = np.linspace(0.25, t_end, 201)
    got = oracle_positions(prof, bg, ts, r0, direction)
    want = reference_oracle(prof, bg, ts, r0, direction)
    assert got.tobytes() == want.tobytes()
    assert len(got) == 201 if case == "alcubierre_smooth" else 1 < len(got) < 201


# --- the exact Kerr ray (Kind.ray) against the tracer ---


def kerr(theta):
    return kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=theta))


# (theta, r0, direction, span): u = r - M > b = M sin theta ("out") and u < -b
# ("in"), each way, at the axis, theta = 1e-9 (where asin(b / v) / b is 1 / v),
# the preset's pi/4 and the equator, where the "in" branch lies at r < 0. Each
# span ends short of the ergoregion edge and of r = 0
KERR_LAUNCHES = {
    "axis_out_inward": (0.0, 2.0, -1, 12.0),
    "axis_out_outward": (0.0, 2.0, 1, 12.0),
    "axis_in_outward": (0.0, 0.5, 1, 12.0),
    "axis_in_inward": (0.0, 0.5, -1, 0.375),
    "small_out_inward": (1e-9, 2.0, -1, 12.0),
    "small_out_outward": (1e-9, 2.0, 1, 12.0),
    "small_in_outward": (1e-9, 0.5, 1, 12.0),
    "pi4_out_inward": (math.pi / 4, 3.0, -1, 4.0),
    "pi4_out_outward": (math.pi / 4, 3.0, 1, 12.0),
    "pi4_in_outward": (math.pi / 4, 0.2, 1, 0.0625),
    "pi4_in_inward": (math.pi / 4, 0.2, -1, 0.125),
    "equator_out_inward": (math.pi / 2, 3.0, -1, 1.0),
    "equator_out_outward": (math.pi / 2, 3.0, 1, 12.0),
}


@pytest.mark.parametrize("case", sorted(KERR_LAUNCHES))
def test_tracer_meets_the_exact_kerr_ray_at_its_nodes(case):
    theta, r0, direction, span = KERR_LAUNCHES[case]
    prof = kerr(theta)
    path = trace_null_geodesic(prof, BG, r0=r0, t0=T0, direction=direction, t_end=T0 + span, dt=span / ORACLE_STEPS)
    assert path.status == RAY_COMPLETED and len(path.t) == ORACLE_STEPS + 1
    exact = exact_ray(prof, r0, direction, path.t)
    assert np.all((exact > 1.0 + math.sin(theta)) if r0 > 1.0 else (exact < 1.0 - math.sin(theta)))
    # RK4's truncation error is below round-off at these steps: measured at
    # most 7.5e-14 (pi4_out_outward), on |r| <= 9.1
    assert np.max(np.abs(path.r - exact)) <= 1e-12


def test_exact_kerr_ray_ends_at_the_ergoregion_edge_like_the_tracer():
    # the kerr_pi4 section launched inward from r0 = 3 reaches the edge
    # r = M + b at a finite time, where the tracer stops at speed_sq < 0
    prof, b = kerr(math.pi / 4), math.sin(math.pi / 4)
    path = trace_null_geodesic(prof, 1.0, r0=3.0, direction=-1, t_end=20.0, dt=20.0 / ORACLE_STEPS)
    assert path.status == RAY_NEGATIVE_SPEED_SQ
    ts = np.linspace(0.0, 20.0, 401)
    got = exact_ray(prof, 3.0, -1, ts, t0=0.0, bg=1.0)
    # the samples up to the edge, falling towards it, and none after
    assert 1 < len(got) < len(ts)
    assert np.all(np.diff(got) < 0.0) and 1.0 + b <= got[-1] < 1.0 + b + 0.05
    # the trace stops less than one of its steps before the edge
    assert abs(len(got) - np.count_nonzero(ts <= path.t[-1])) <= 1


# the oracle's cases that once traced Kerr: one that runs into speed_sq < 0
KERR_ORACLE_CASES = {"kerr_theta0": (0.0, 2.0), "kerr_pi4": (math.pi / 4, 3.0)}


@pytest.mark.parametrize("case", sorted(KERR_ORACLE_CASES))
def test_exact_kerr_oracle_keeps_to_the_traced_one(case):
    theta, r0 = KERR_ORACLE_CASES[case]
    prof = kerr(theta)
    assert KINDS[prof.kind].ray(prof.params) is not None
    ts = np.linspace(0.25, 20.0, 201)
    got = oracle_positions(prof, 1.0, ts, r0, -1)
    want = reference_oracle(prof, 1.0, ts, r0, -1)
    # the exact oracle keeps within one sample of the trace's cut
    assert abs(len(got) - len(want)) <= 1
    assert len(got) == 201 if case == "kerr_theta0" else 1 < len(got) < 201
    n = min(len(got), len(want))
    # linear interpolation between 8192 RK4 steps: measured at most 5.0e-8
    # (kerr_pi4) and 2.7e-8 (kerr_theta0) apart
    np.testing.assert_allclose(got[:n], want[:n], rtol=0, atol=1e-7)
    assert got[0] == r0


@pytest.mark.parametrize(
    "prof",
    [flat_profile((0.0, 5.0)), godel_profile(GodelParams(a=0.7), (0.0, 5.0)), top_hat(1.5, (0.0, 5.0))],
    ids=["flat", "godel", "alcubierre_top_hat"],
)
def test_exact_oracle_refuses_a_launch_outside_the_range_like_the_tracer(prof):
    ts = np.linspace(0.0, 2.0, 11)
    with pytest.raises(ProfileDomainError):
        reference_oracle(prof, 1.0, ts, 6.0, 1)
    with pytest.raises(ProfileDomainError):
        oracle_positions(prof, 1.0, ts, 6.0, 1)
    with pytest.raises(ProfileDomainError):
        compare_front_to_ray(ts, np.full(11, 6.0), prof, 1.0)


@pytest.mark.parametrize(
    "prof, r0, direction",
    [
        (flat_profile((-1.0, 4.0)), 0.5, 1),
        (flat_profile((-1.0, 4.0)), 3.5, -1),
        (godel_profile(GodelParams(a=0.7), (-3.0, 3.0)), 0.2, 1),
        (top_hat(0.5, (0.0, 14.0)), 6.0, 1),
        (top_hat(1.5, (1.0, 20.0)), 9.0, -1),
    ],
    ids=["flat_fwd", "flat_back", "godel", "alcubierre_subluminal", "alcubierre_superluminal_back"],
)
def test_exact_oracle_keeps_the_samples_inside_a_finite_range(prof, r0, direction):
    bg = 1.0
    ts = np.linspace(0.0, 10.0, 161)
    got = oracle_positions(prof, bg, ts, r0, direction)
    want = reference_oracle(prof, bg, ts, r0, direction)
    lo, hi = prof.valid_range
    # the range cuts the ray off; every kept sample lies inside, and the
    # next one would not
    assert 10 < len(got) < len(ts)
    assert np.all((lo <= got) & (got <= hi))
    assert not lo <= exact_ray(prof, r0, direction, ts[len(got) : len(got) + 1], t0=0.0, bg=bg)[0] <= hi
    assert abs(len(got) - len(want)) <= 1
    n = min(len(got), len(want))
    np.testing.assert_allclose(got[:n], want[:n], rtol=0, atol=1e-3)
    # a front on the ray: the comparison keeps as many samples
    fronts = exact_ray(prof, r0, direction, ts, t0=0.0, bg=bg)
    worst, ts_used, rs_used, ray_at = compare_front_to_ray(ts, fronts, prof, bg, direction)
    assert len(ts_used) == len(rs_used) == len(ray_at) == len(got)
    assert worst == 0.0


def test_exact_oracle_starts_on_the_launch_point():
    # 2a sinh(asinh(r0 / 2a)) rounds one ulp above this r0, the range's upper
    # end; launched inward from there, the ray keeps every sample
    hi = 1.6615384615384616
    prof = godel_profile(GodelParams(a=0.7), (-3.0, hi))
    assert exact_ray(prof, hi, -1, [0.0], t0=0.0, bg=1.0)[0] > hi
    got = oracle_positions(prof, 1.0, np.linspace(0.0, 1.0, 21), hi, -1)
    assert len(got) == 21 and got[0] == hi


def test_overflowing_exact_godel_ray_raises_like_the_tracer():
    # sinh overflows: 2a = 2e-3 against a span of 10
    prof = godel_profile(GodelParams(a=1e-3))
    ts = np.linspace(0.0, 10.0, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProfileEvaluationError):
            reference_oracle(prof, 1.0, ts, 0.1, 1)
        with pytest.raises(ProfileEvaluationError, match="not finite"):
            oracle_positions(prof, 1.0, ts, 0.1, 1)
        with pytest.raises(ProfileEvaluationError, match="not finite"):
            compare_front_to_ray(ts, np.linspace(0.1, 10.1, 101), prof, 1.0)
