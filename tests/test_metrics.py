"""Profile evaluators against independent direct-substitution oracles."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxline.metrics import (
    AlcubierreParams,
    GodelParams,
    KerrExtremeParams,
    ProfileDomainError,
    ProfileEvaluationError,
    _shape,
    alcubierre_profile,
    flat_profile,
    godel_profile,
    kerr_extreme_profile,
    ricci_scalar,
    tabulated_profile,
)


# independent oracles, written straight from the closed forms
def oracle_shape(rs, R, sigma):
    return (math.tanh(sigma * (rs + R)) - math.tanh(sigma * (rs - R))) / (2 * math.tanh(sigma * R))


def oracle_godel(r, a):
    return 1.0 + (r / (2 * a)) ** 2


def oracle_kerr(r, M, theta):
    S = r * r + (M * math.cos(theta)) ** 2
    return (1.0 - 2.0 * M * r / S) * (M - r) ** 2 / S


def oracle_alcubierre(x, t, vs, R, sigma, x0):
    rs = abs(x - (x0 + vs * t))
    f = oracle_shape(rs, R, sigma)
    return (1.0 + vs * f) ** 2


def test_shape_function_center_is_one_for_any_steepness():
    p = AlcubierreParams(vs_over_c=1.0, bubble_radius_R=2.0, sigma=1.3)
    assert _shape(p)(0.0) == pytest.approx(1.0, abs=1e-15)


def test_shape_function_far_outside_vanishes():
    p = AlcubierreParams(vs_over_c=1.0, bubble_radius_R=1.0, sigma=8.0)
    assert _shape(p)(50.0) == pytest.approx(0.0, abs=1e-12)


def test_shape_function_wall_value_half_for_steep_walls():
    # sigma R = 20: tanh(2 sigma R) / (2 tanh(sigma R)) = 0.5 to machine precision
    p = AlcubierreParams(vs_over_c=1.0, bubble_radius_R=1.0, sigma=20.0)
    expected = math.tanh(40.0) / (2 * math.tanh(20.0))
    assert _shape(p)(1.0) == pytest.approx(expected, rel=1e-15)
    assert _shape(p)(1.0) == pytest.approx(0.5, abs=1e-12)


def test_shape_function_top_hat_closed_at_wall():
    p = AlcubierreParams(vs_over_c=1.0, bubble_radius_R=1.0, top_hat=True)
    rs = np.array([0.0, 0.999, 1.0, 1.001, 5.0])
    assert np.array_equal(_shape(p)(rs), [1.0, 1.0, 1.0, 0.0, 0.0])


def test_shape_function_bounded_and_decreasing():
    p = AlcubierreParams(vs_over_c=1.0, bubble_radius_R=1.0, sigma=5.0)
    rs = np.linspace(0.0, 4.0, 500)
    f = _shape(p)(rs)
    assert np.all(f >= 0.0) and np.all(f <= 1.0 + 1e-12)
    assert np.all(np.diff(f) <= 0.0)


def test_alcubierre_bubble_center_superluminal():
    p = AlcubierreParams(vs_over_c=1.5, bubble_radius_R=1.0, x_s0=0.0, top_hat=True)
    assert alcubierre_profile(p).speed_sq(0.0, 0.0) == pytest.approx(6.25, abs=1e-15)


def test_alcubierre_bubble_center_subluminal():
    p = AlcubierreParams(vs_over_c=0.5, bubble_radius_R=1.0, x_s0=0.0, top_hat=True)
    assert alcubierre_profile(p).speed_sq(0.0, 0.0) == pytest.approx(2.25, abs=1e-15)


def test_alcubierre_far_outside_flat():
    p = AlcubierreParams(vs_over_c=1.5, bubble_radius_R=1.0, sigma=8.0, x_s0=0.0)
    assert alcubierre_profile(p).speed_sq(80.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_alcubierre_zero_velocity_is_flat_everywhere():
    p = AlcubierreParams(vs_over_c=0.0, bubble_radius_R=1.0, sigma=8.0)
    prof = alcubierre_profile(p)
    xs = np.linspace(-5.0, 5.0, 101)
    for t in (0.0, 1.7, 12.0):
        assert np.allclose(prof.speed_sq(xs, t), 1.0, rtol=0, atol=1e-15)


def test_alcubierre_center_moves_with_background_speed():
    p = AlcubierreParams(vs_over_c=1.5, bubble_radius_R=0.5, x_s0=2.0, top_hat=True)
    prof = alcubierre_profile(p)
    bg = 0.4
    t = 3.0
    center = 2.0 + 1.5 * bg * t
    assert prof.speed_sq(center, t, background_c=bg) == pytest.approx(6.25)
    # far from the translated center the profile is flat again
    assert prof.speed_sq(2.0, t, background_c=bg) == pytest.approx(1.0)


def test_godel_examples():
    prof = godel_profile(GodelParams(a=1.0))
    assert prof.speed_sq(0.0) == 1.0
    assert prof.speed_sq(2.0) == pytest.approx(2.0, rel=1e-15)
    assert prof.speed_sq(4.0) == pytest.approx(5.0, rel=1e-15)


def test_kerr_horizon_and_axis_values():
    prof = kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=0.0))
    assert prof.speed_sq(1.0) == 0.0
    assert prof.speed_sq(3.0) == pytest.approx(0.16, rel=1e-15)


def test_kerr_equatorial_ergoregion_negative():
    prof = kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=math.pi / 2))
    val = prof.speed_sq(1.5)
    assert val == pytest.approx((1 - 2 / 1.5) * 0.25 / 2.25, rel=1e-14)
    assert val < 0.0


def test_kerr_axis_profile_bounded():
    prof = kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=0.0))
    r = np.linspace(0.0, 50.0, 2001)
    s = prof.speed_sq(r)
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert s[0] == 1.0
    assert prof.speed_sq(1e6) == pytest.approx(1.0, abs=1e-5)
    interior = s[(r > 0.01) & (r < 40.0)]
    assert np.all(interior < 1.0)


@pytest.mark.parametrize("kind", ["flat", "alcubierre", "godel", "kerr0", "kerr45"])
def test_direct_substitution_oracle_on_grid(kind):
    # every built-in matches the written-out formula to 1e-12 relative
    r = np.linspace(0.05, 8.0, 1000)
    if kind == "flat":
        prof, oracle = flat_profile(), lambda x: 1.0
    elif kind == "alcubierre":
        p = AlcubierreParams(vs_over_c=1.2, bubble_radius_R=2.0, sigma=4.0, x_s0=3.0)
        prof = alcubierre_profile(p)
        oracle = lambda x: oracle_alcubierre(x, 0.7, 1.2, 2.0, 4.0, 3.0)
        got = prof.speed_sq(r, 0.7)
        want = np.array([oracle(x) for x in r])
        np.testing.assert_allclose(got, want, rtol=1e-12)
        return
    elif kind == "godel":
        prof, oracle = godel_profile(GodelParams(a=0.7)), lambda x: oracle_godel(x, 0.7)
    elif kind == "kerr0":
        prof = kerr_extreme_profile(KerrExtremeParams(mass_M=1.3, theta=0.0))
        oracle = lambda x: oracle_kerr(x, 1.3, 0.0)
    else:
        prof = kerr_extreme_profile(KerrExtremeParams(mass_M=1.3, theta=math.pi / 4))
        oracle = lambda x: oracle_kerr(x, 1.3, math.pi / 4)
    got = prof.speed_sq(r)
    want = np.array([oracle(x) for x in r])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_smooth_profile_converges_to_top_hat():
    R = 1.0
    top = AlcubierreParams(vs_over_c=1.0, bubble_radius_R=R, top_hat=True)
    # grid keeps clear of the wall itself, where the sharp limit jumps
    rs = np.concatenate([np.linspace(0.0, 0.94, 120), np.linspace(1.06, 3.0, 120)])
    devs = []
    for sigma_R in (5.0, 20.0, 80.0):
        smooth = AlcubierreParams(vs_over_c=1.0, bubble_radius_R=R, sigma=sigma_R / R)
        devs.append(np.max(np.abs(_shape(smooth)(rs) - _shape(top)(rs))))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-4


def test_params_validation():
    with pytest.raises(ValueError):
        AlcubierreParams(vs_over_c=-0.1, bubble_radius_R=1.0, sigma=1.0)
    with pytest.raises(ValueError):
        AlcubierreParams(vs_over_c=1.0, bubble_radius_R=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        AlcubierreParams(vs_over_c=1.0, bubble_radius_R=1.0)  # smooth needs sigma
    AlcubierreParams(vs_over_c=1.0, bubble_radius_R=1.0, top_hat=True)  # sigma optional
    with pytest.raises(ValueError):
        GodelParams(a=0.0)
    with pytest.raises(ValueError):
        KerrExtremeParams(mass_M=1.0, theta=2.0)
    with pytest.raises(ValueError):
        KerrExtremeParams(mass_M=-1.0)


def test_tabulated_interpolates_and_rejects_outside():
    prof = tabulated_profile([0.0, 1.0, 2.0], [1.0, 2.0, 5.0])
    assert prof.speed_sq(0.5) == pytest.approx(1.5)
    assert prof.speed_sq(1.5) == pytest.approx(3.5)
    np.testing.assert_allclose(prof.speed_sq(np.array([0.0, 2.0])), [1.0, 5.0])
    with pytest.raises(ProfileDomainError):
        prof.speed_sq(2.1)
    with pytest.raises(ProfileDomainError):
        prof.speed_sq(np.array([0.5, -0.2]))


def test_tabulated_rejects_bad_samples():
    with pytest.raises(ValueError):
        tabulated_profile([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        tabulated_profile([0.0], [1.0])


def test_ricci_flat_profile_zero():
    prof = flat_profile()
    assert ricci_scalar(prof, 1.0, 3.0, h=0.01) == pytest.approx(0.0, abs=1e-10)


def test_ricci_godel_matches_closed_form():
    a = 1.0
    prof = godel_profile(GodelParams(a=a))

    def exact(r):
        u = r / (2 * a)
        return -(1.0 / (2 * a * a)) / (1.0 + u * u) ** 2

    for r in (0.0, 2.0):
        got = ricci_scalar(prof, 1.0, r, h=1e-3)
        assert got == pytest.approx(exact(r), rel=1e-5)
    assert exact(0.0) == pytest.approx(-0.5)
    assert exact(2.0) == pytest.approx(-0.125)


def test_ricci_independent_of_background_speed():
    # the overall speed scale cancels in -2 c''/c; agreement is limited only
    # by the stencil's rounding noise, well below its O(h^2) truncation
    prof = godel_profile(GodelParams(a=1.0))
    r1 = ricci_scalar(prof, 1.0, 1.0, h=1e-3)
    r2 = ricci_scalar(prof, 0.3, 1.0, h=1e-3)
    assert r1 == pytest.approx(r2, rel=1e-6)


def test_ricci_second_order_convergence():
    a = 1.0
    prof = godel_profile(GodelParams(a=a))
    exact = -(1.0 / 2.0) / (1.0 + 1.0) ** 2  # r = 2a
    e1 = abs(ricci_scalar(prof, 1.0, 2.0, h=0.08) - exact)
    e2 = abs(ricci_scalar(prof, 1.0, 2.0, h=0.04) - exact)
    assert e1 / e2 == pytest.approx(4.0, abs=0.6)


def test_ricci_stencil_domain_error():
    prof = tabulated_profile([0.0, 1.0, 2.0], [1.0, 1.2, 1.5])
    with pytest.raises(ProfileDomainError):
        ricci_scalar(prof, 1.0, 0.0, h=0.01)


def test_ricci_negative_speed_sq_error():
    prof = kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=math.pi / 2))
    with pytest.raises(ProfileEvaluationError):
        ricci_scalar(prof, 1.0, 1.5, h=0.01)


def test_sup_speed_sq():
    assert flat_profile().sup_speed_sq((0.0, 5.0)) == 1.0
    g = godel_profile(GodelParams(a=1.0))
    assert g.sup_speed_sq((0.0, 3.8)) == pytest.approx(1.0 + 1.9**2)
    alc = alcubierre_profile(AlcubierreParams(vs_over_c=1.5, bubble_radius_R=1.0, top_hat=True))
    assert alc.sup_speed_sq((0.0, 10.0)) == pytest.approx(6.25)
    k = kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=0.0))
    assert k.sup_speed_sq((0.5, 3.0)) <= 1.0


def test_tabulated_sup_is_exact_between_sample_points():
    # a linear interpolant peaks at a knot or a window end; a 4097-point
    # sampling of [4, 6] misses the knot at 5.000244 and once returned 1.0
    prof = tabulated_profile([0, 5.000044, 5.000244, 5.000444, 10], [1, 1, 4, 1, 1])
    assert prof.sup_speed_sq((4, 6)) == 4.0
    # no knot inside: the larger end
    assert prof.sup_speed_sq((5.000144, 5.000194)) == pytest.approx(3.25)


# one profile per evaluator formula; a float point and an array point must
# take the same arithmetic to the same bits
SCALAR_ARRAY_PROFILES = {
    "flat": flat_profile(),
    "alcubierre_top_hat": alcubierre_profile(
        AlcubierreParams(vs_over_c=1.5, bubble_radius_R=2.0, x_s0=6.0, top_hat=True)
    ),
    "alcubierre_smooth": alcubierre_profile(
        AlcubierreParams(vs_over_c=1.2, bubble_radius_R=2.0, sigma=4.0, x_s0=3.0)
    ),
    "godel": godel_profile(GodelParams(a=0.7)),
    "kerr_theta0": kerr_extreme_profile(KerrExtremeParams(mass_M=1.3, theta=0.0)),
    "kerr_pi4": kerr_extreme_profile(KerrExtremeParams(mass_M=1.3, theta=math.pi / 4)),
    "tabulated": tabulated_profile([0.0, 1.0, 2.5, 4.0], [1.0, 2.0, 0.5, 3.0]),
}


def bits(x):
    return np.float64(x).tobytes()


@st.composite
def profile_points(draw):
    kind = draw(st.sampled_from(sorted(SCALAR_ARRAY_PROFILES)))
    lo, hi = SCALAR_ARRAY_PROFILES[kind].valid_range
    if kind == "tabulated":
        points = st.floats(lo, hi)
    else:
        points = st.floats(allow_nan=False, allow_infinity=False)
    r = draw(st.lists(points, min_size=1, max_size=40))
    t = draw(st.floats(0.0, 50.0))
    bg = draw(st.floats(0.05, 2.0))
    return kind, r, t, bg


# points near the float maximum overflow to inf (and inf / inf to nan) on
# both paths; numpy warns where Python float arithmetic is silent
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(profile_points())
def test_scalar_point_matches_array_point_bitwise(case):
    kind, r, t, bg = case
    prof = SCALAR_ARRAY_PROFILES[kind]
    whole = prof.speed_sq(np.asarray(r), t, bg)
    assert isinstance(whole, np.ndarray) and whole.shape == (len(r),)
    for i, x in enumerate(r):
        got = prof.formula(float(x), t, bg)
        assert type(got) is float
        zero_d = prof.speed_sq(np.asarray(x), t, bg)
        assert type(zero_d) is float
        assert bits(got) == bits(zero_d) == bits(whole[i]), (kind, x)


@pytest.mark.parametrize("kind", sorted(SCALAR_ARRAY_PROFILES))
def test_profile_copies_and_pickles_with_its_formula(kind):
    prof = SCALAR_ARRAY_PROFILES[kind]
    r = np.linspace(*(prof.valid_range if kind == "tabulated" else (0.0, 4.0)), 9)
    for twin in (copy.deepcopy(prof), pickle.loads(pickle.dumps(prof))):
        assert (twin.kind, twin.valid_range) == (prof.kind, prof.valid_range)
        assert twin.speed_sq(r, 0.7, 0.9).tobytes() == prof.speed_sq(r, 0.7, 0.9).tobytes()
        assert bits(twin.speed_sq(1.5, 0.7, 0.9)) == bits(prof.speed_sq(1.5, 0.7, 0.9))


@pytest.mark.parametrize("kind", sorted(SCALAR_ARRAY_PROFILES))
def test_float_point_with_numpy_scalar_time_gives_python_float(kind):
    prof = SCALAR_ARRAY_PROFILES[kind]
    got = prof.speed_sq(1.5, np.float64(0.7), np.float64(0.9))
    assert type(got) is float
    assert bits(got) == bits(prof.speed_sq(1.5, 0.7, 0.9))


@pytest.mark.parametrize("kind", sorted(SCALAR_ARRAY_PROFILES))
def test_finite_speed_sq_time_column_matches_per_time_rows(kind):
    # the profile command once stacked one finite_speed_sq call per time sample
    prof = SCALAR_ARRAY_PROFILES[kind]
    r = np.linspace(*(prof.valid_range if kind == "tabulated" else (0.0, 12.0)), 37)
    times = np.linspace(0.0, 5.0, 6)
    grid = prof.finite_speed_sq(r, times[:, None], 0.9)
    rows = np.stack([prof.finite_speed_sq(r, float(t), 0.9) for t in times])
    assert grid.shape == (6, 37) and grid.flags.c_contiguous and grid.flags.writeable
    assert grid.tobytes() == rows.tobytes()


def test_finite_speed_sq_names_the_first_bad_value_by_its_own_r_and_t():
    # vs = 1e160 overflows the bubble to inf; it covers r = 8 at t = 0 and r = 3 at the second time
    prof = alcubierre_profile(AlcubierreParams(vs_over_c=1e160, bubble_radius_R=0.5, x_s0=8.0, top_hat=True))
    r, times = np.arange(12.0), np.array([0.0, -5e-160])
    with pytest.raises(ProfileEvaluationError, match=r"^speed_sq = inf at r = 8\.0, t = 0\.0 is not finite$"):
        prof.finite_speed_sq(r, times[:, None])
    # C order on a (cell, time) grid runs over the times of a cell first
    with pytest.raises(ProfileEvaluationError, match=r"^speed_sq = inf at r = 3\.0, t = -5e-160 is not finite$"):
        prof.finite_speed_sq(r[:, None], times)
