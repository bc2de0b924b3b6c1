"""Flux algebra, feasibility classification and program synthesis."""

import math
import tracemalloc

import numpy as np
import pytest

from fluxline.metrics import (
    KINDS,
    AlcubierreParams,
    GodelParams,
    Kind,
    KerrExtremeParams,
    SpeedProfile,
    alcubierre_profile,
    flat_profile,
    godel_profile,
    kerr_extreme_profile,
    tabulated_profile,
)
from fluxline.synthesis import (
    ArccosInfeasible,
    ArrayConfig,
    FluxProgram,
    HotCellBudgetExceeded,
    NegativeSpeedSquared,
    WINDOW_GUARD,
    Status,
    SynthesisError,
    SynthesisFailed,
    WindowViolation,
    _classify_grid,
    cell_midpoints,
    dc_feasibility_boundary,
    feasibility_scan,
    godel_max_radius,
    invert_speed_sq,
    kerr_forbidden_band,
    speed_sq_from_flux,
    synthesize_flux,
    synthesize_program,
)

HALF_PI = math.pi / 2


def test_speed_sq_from_flux_values():
    assert speed_sq_from_flux(0.0) == 1.0
    assert speed_sq_from_flux(math.pi / 3) == pytest.approx(0.5, rel=1e-15)
    # the deep DC working point: cos(0.44 pi) ~ 0.1874, i.e. c/c0 ~ 0.43
    v = speed_sq_from_flux(0.44 * math.pi)
    assert v == pytest.approx(math.cos(0.44 * math.pi), rel=1e-15)
    assert v == pytest.approx(0.1874, abs=5e-5)
    assert math.sqrt(v) == pytest.approx(0.433, abs=1e-3)
    # even in the angle
    assert speed_sq_from_flux(-0.3) == speed_sq_from_flux(0.3)


def test_dc_calibration_examples_and_roundtrip():
    # with no bias, inverting a background c^2 / c0^2 gives the DC angle that sets it
    def dc_angle(target):
        return invert_speed_sq(target, 0.0)[1]

    assert dc_angle(1.0) == 0.0
    assert dc_angle(0.5) == pytest.approx(math.pi / 3, rel=1e-15)
    # the speed is even in the angle, so the bias may sit on either side
    deep = -dc_angle(math.cos(0.44 * math.pi))
    assert deep == pytest.approx(-0.44 * math.pi, rel=1e-12)
    assert speed_sq_from_flux(deep) == pytest.approx(math.cos(0.44 * math.pi), abs=1e-12)
    for target in (1.0, 0.7, 0.1874, 0.02):
        theta = dc_angle(target)
        assert speed_sq_from_flux(theta) == pytest.approx(target, abs=1e-12)


def test_synthesize_flux_flat_no_drive():
    ac, total = synthesize_flux(1.0, 0.0)
    assert ac == 0.0 and total == 0.0


def test_synthesize_flux_superluminal_with_dc_headroom():
    # 2 * cos(pi/3) = 1 exactly; the float product overshoots by one ulp and
    # must still resolve to total = 0
    ac, total = synthesize_flux(2.0, -math.pi / 3)
    assert total == pytest.approx(0.0, abs=1e-6)
    assert ac == pytest.approx(math.pi / 3, rel=1e-6)


def test_synthesize_flux_superluminal_without_dc_fails():
    with pytest.raises(ArccosInfeasible):
        synthesize_flux(2.0, 0.0)


def test_synthesize_flux_negative_speed():
    with pytest.raises(NegativeSpeedSquared):
        synthesize_flux(-0.1, 0.0)


def test_synthesize_flux_window_violation_at_horizon():
    with pytest.raises(WindowViolation) as err:
        synthesize_flux(0.0, 0.0)
    assert err.value.theta_total == pytest.approx(HALF_PI, abs=1e-15)


def test_synthesize_flux_refuses_a_total_on_the_hot_edge():
    # the total is exactly pi/2 - WINDOW_GUARD, which the budget counts as hot
    speed_sq = 1.000000143972511e-09
    with pytest.raises(WindowViolation) as err:
        synthesize_flux(speed_sq, 0.0)
    assert err.value.theta_total == HALF_PI - 1e-9


def test_synthesize_flux_classifies_a_bias_at_the_window_as_a_scan_does():
    # once a total of 0.451 returned, for a bias that config and synthesize_program refuse
    dc = HALF_PI - 5e-10
    status, _ = _classify_grid(0.9 / math.cos(dc), dc, ArrayConfig())
    assert int(status) == int(Status.WINDOW_VIOLATION)
    with pytest.raises(WindowViolation) as err:
        synthesize_flux(0.9 / math.cos(dc), dc)
    assert err.value.theta_total == pytest.approx(math.acos(0.9), rel=1e-9)


def test_synthesize_flux_accepts_exactly_the_cells_the_budget_does_not_count():
    cfg = ArrayConfig(n_cells=2, max_hot_cells=2)
    accepted, counted = [], []
    for v in np.linspace(1.000000143972511e-09 - 2e-15, 1.000000143972511e-09 + 2e-15, 401):
        program = synthesize_program(tabulated_profile([0.0, 1.0], [v, v]), 0.0, cfg, (0.0, 1.0))
        counted.append(int(program.hot_cells[0]) == 2)
        try:
            _, total = synthesize_flux(float(v), 0.0)
        except WindowViolation as exc:
            total = exc.theta_total
            accepted.append(False)
        else:
            accepted.append(True)
        assert total == program.theta_total[0, 0]
    assert accepted == [not hot for hot in counted]
    assert True in accepted and False in accepted


def test_synthesize_flux_flat_region_no_ac_for_nonnegative_dc():
    for dc in np.linspace(0.0, 0.49 * math.pi, 40):
        ac, total = synthesize_flux(1.0, float(dc))
        assert ac == pytest.approx(0.0, abs=1e-12)
        assert total == pytest.approx(dc, rel=0, abs=1e-12)


def test_synthesize_flux_monotone_in_speed():
    dc = 0.3
    speeds = np.linspace(0.05, 1.0 / math.cos(dc) - 1e-9, 200)
    totals = [synthesize_flux(float(s), dc)[1] for s in speeds]
    assert np.all(np.diff(totals) < 0.0)


def test_round_trip_recovers_requested_speed():
    rng = np.random.default_rng(7)
    for _ in range(300):
        dc = float(rng.uniform(-0.49 * math.pi, 0.49 * math.pi))
        s = float(rng.uniform(1e-3, 1.0 / math.cos(dc)))
        _, total = synthesize_flux(s, dc)
        recovered = speed_sq_from_flux(total) / math.cos(dc)
        assert recovered == pytest.approx(s, rel=1e-10)


def test_dc_feasibility_boundary_values():
    assert dc_feasibility_boundary(1.0) == 0.0
    assert dc_feasibility_boundary(2.25) == pytest.approx(math.acos(1 / 2.25), rel=1e-15)
    assert dc_feasibility_boundary(6.25) == pytest.approx(math.acos(0.16), rel=1e-15)
    with pytest.raises(ValueError):
        dc_feasibility_boundary(0.9)


def test_dc_feasibility_boundary_is_sharp():
    b = dc_feasibility_boundary(6.25)
    ac, total = synthesize_flux(6.25, -b)  # at the boundary, total = 0
    assert total == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ArccosInfeasible):
        synthesize_flux(6.25, -(b - 1e-6))  # a hair less bias fails


def test_godel_max_radius():
    assert godel_max_radius(0.0) == 0.0
    assert godel_max_radius(math.pi / 3) == pytest.approx(1.0, abs=1e-12)
    assert godel_max_radius(0.44 * math.pi) == pytest.approx(
        math.sqrt(1 / math.cos(0.44 * math.pi) - 1), rel=1e-15
    )
    assert godel_max_radius(0.44 * math.pi) == pytest.approx(2.08, abs=5e-3)
    assert godel_max_radius(-math.pi / 3) == godel_max_radius(math.pi / 3)
    with pytest.raises(ValueError):
        godel_max_radius(HALF_PI)


def test_kerr_forbidden_band():
    lo, hi = kerr_forbidden_band(math.pi / 4, 1.0)
    assert lo == pytest.approx(1 - 1 / math.sqrt(2), rel=1e-15)
    assert hi == pytest.approx(1 + 1 / math.sqrt(2), rel=1e-15)
    assert kerr_forbidden_band(0.0, 1.0) is None
    lo2, hi2 = kerr_forbidden_band(HALF_PI, 2.0)
    assert lo2 == pytest.approx(0.0, abs=1e-15)
    assert hi2 == pytest.approx(4.0, rel=1e-15)


def test_classify_precedence_chain():
    cases = [
        # ergoregion value beats everything
        (-0.04, 0.0, Status.NEGATIVE_SPEED_SQ),
        # superluminal request without bias
        (6.25, 0.0, Status.ARCCOS_INFEASIBLE),
        # DC at the window edge is unusable regardless of the request
        (1.0, HALF_PI, Status.WINDOW_VIOLATION),
        # the horizon cell: total exactly pi/2, reported as the extreme
        # impedance case (hot cell), not as a window violation
        (0.0, 0.0, Status.IMPEDANCE_WARNING),
        # a deep but in-window total
        (math.cos(0.45 * math.pi), 0.0, Status.IMPEDANCE_WARNING),
        # comfortable points
        (1.0, 0.0, Status.FEASIBLE),
        (0.9, 0.3, Status.FEASIBLE),
    ]
    speed_sq, theta_dc, want = zip(*cases)
    status, _ = _classify_grid(speed_sq, theta_dc, ArrayConfig())
    assert status.tolist() == list(want)


def test_classify_feasible_at_exact_boundary():
    cfg = ArrayConfig()
    b = dc_feasibility_boundary(6.25)
    status, _ = _classify_grid(6.25, -b, cfg)
    assert status == Status.FEASIBLE
    _, total = synthesize_flux(6.25, -b)
    assert total == pytest.approx(0.0, abs=1e-6)


def test_cell_midpoints():
    mids = cell_midpoints((0.0, 4.0), 10)
    assert mids[0] == pytest.approx(0.2)
    assert mids[-1] == pytest.approx(3.8)
    assert mids[2] == pytest.approx(1.0)  # a cell midpoint sits exactly on r=1


def test_program_flat_is_all_zero_ac():
    cfg = ArrayConfig(n_cells=16)
    program = synthesize_program(flat_profile(), 0.0, cfg, (0.0, 8.0))
    assert np.all(program.theta_ac == 0.0)
    assert np.all(program.theta_total == 0.0)
    assert np.all(program.annotations == int(Status.FEASIBLE))
    assert program.background_c == pytest.approx(1.0)


def test_program_godel_window_decreasing_total():
    prof = godel_profile(GodelParams(a=1.0))
    # the window ends exactly at the boundary radius for this bias; the
    # last-cell total approaches 0 like the square root of the half-cell
    # distance to the boundary, so it shrinks as the array gets finer
    last = []
    for n in (32, 128):
        cfg = ArrayConfig(n_cells=n)
        program = synthesize_program(prof, math.pi / 3, cfg, (0.0, 2.0))
        total = program.theta_total[:, 0]
        assert np.all(np.diff(total) < 0.0)  # flux decreases outward from theta_dc
        assert program.theta_dc == pytest.approx(math.pi / 3)
        last.append(total[-1])
    assert last[1] < last[0] < 0.2
    assert last[1] == pytest.approx(0.0, abs=0.1)


def test_program_total_equals_dc_plus_ac_exactly():
    cfg = ArrayConfig(n_cells=32)
    prof = godel_profile(GodelParams(a=1.0))
    program = synthesize_program(prof, -0.8, cfg, (0.0, 1.2))
    assert np.array_equal(program.theta_total, program.theta_dc + program.theta_ac)


def test_program_roundtrip_tolerance():
    cfg = ArrayConfig(n_cells=64)
    prof = godel_profile(GodelParams(a=1.0))
    program = synthesize_program(prof, 0.45 * math.pi, cfg, (0.0, 3.8))
    recovered = np.cos(program.theta_total) / math.cos(program.theta_dc)
    np.testing.assert_allclose(recovered, program.speed_sq, rtol=1e-10)


def test_program_kerr_horizon_cell_budget():
    # n=10 over [0, 4] puts a cell midpoint exactly on the horizon
    prof = kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=0.0))
    cfg0 = ArrayConfig(n_cells=10, max_hot_cells=0)
    with pytest.raises(HotCellBudgetExceeded) as err:
        synthesize_program(prof, 0.0, cfg0, (0.0, 4.0))
    assert err.value.count == 1

    cfg1 = ArrayConfig(n_cells=10, max_hot_cells=1)
    program = synthesize_program(prof, 0.0, cfg1, (0.0, 4.0))
    assert list(program.hot_cells) == [1]
    hot = int(np.argmax(program.theta_total[:, 0]))
    assert program.cell_coords[hot] == pytest.approx(1.0)
    assert program.theta_total[hot, 0] == pytest.approx(HALF_PI, abs=1e-15)
    assert program.annotations[hot, 0] == int(Status.IMPEDANCE_WARNING)


def reference_synthesize_program(profile, theta_dc, config, coord_window, time_samples):
    """synthesize_program as a loop over time samples, as first written; the argument checks are left out."""
    times = np.asarray(list(time_samples), dtype=float)
    r = cell_midpoints(coord_window, config.n_cells)
    background_c = math.sqrt(math.cos(theta_dc))
    n, m = config.n_cells, len(times)
    speed = np.empty((n, m))
    theta_total = np.empty((n, m))
    annotations = np.empty((n, m), dtype=int)
    hot_cells = np.empty(m, dtype=np.intp)
    for j, t in enumerate(times):
        s = profile.finite_speed_sq(r, float(t), background_c=background_c)
        status, theta = _classify_grid(s, theta_dc, config)
        fatal = (status == int(Status.NEGATIVE_SPEED_SQ)) | (status == int(Status.ARCCOS_INFEASIBLE))
        if np.any(fatal):
            i = int(np.argmax(fatal))
            raise SynthesisFailed(i, j, Status(int(status[i])))
        hot = int(np.count_nonzero(theta >= HALF_PI - WINDOW_GUARD))
        if hot > config.max_hot_cells:
            raise HotCellBudgetExceeded(j, hot, config.max_hot_cells)
        speed[:, j] = s
        theta_total[:, j] = theta
        annotations[:, j] = status
        hot_cells[j] = hot
    return FluxProgram(
        theta_dc=theta_dc,
        theta_ac=theta_total - theta_dc,
        cell_coords=r,
        times=times,
        speed_sq=speed,
        annotations=annotations,
        hot_cells=hot_cells,
        background_c=background_c,
        coord_window=(float(coord_window[0]), float(coord_window[1])),
    )


def outcome(synthesize, *args):
    try:
        return synthesize(*args)
    except SynthesisError as exc:
        return exc


def assert_same_outcome(got, want):
    """Equal programs bit for bit, or the same failure in type, fields and message."""
    assert type(got) is type(want)
    if isinstance(want, SynthesisError):
        fields = ("cell", "time_index", "status", "count", "budget")
        assert str(got) == str(want)
        assert [getattr(got, f, None) for f in fields] == [getattr(want, f, None) for f in fields]
        return
    for name in ("theta_ac", "theta_total", "speed_sq", "annotations", "hot_cells", "cell_coords", "times"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    for name in ("theta_dc", "background_c", "coord_window"):
        assert getattr(got, name) == getattr(want, name), name


ONE_PASS_CASES = {
    # profile, theta_dc, array, coord_window
    "flat": (flat_profile(), 0.3, ArrayConfig(n_cells=16), (0.0, 8.0)),
    "godel": (godel_profile(GodelParams(a=1.0)), math.pi / 3, ArrayConfig(n_cells=32), (0.0, 2.0)),
    # n = 10 over [0, 4] puts a cell midpoint on the horizon
    "kerr_theta0_budget0": (
        kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=0.0)), 0.0, ArrayConfig(n_cells=10, max_hot_cells=0), (0.0, 4.0)
    ),
    "kerr_theta0_budget1": (
        kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=0.0)), 0.0, ArrayConfig(n_cells=10, max_hot_cells=1), (0.0, 4.0)
    ),
    "kerr_pi2_negative": (
        kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=math.pi / 2)), 0.0, ArrayConfig(n_cells=8), (1.2, 1.8)
    ),
    "alcubierre_top_hat": (
        alcubierre_profile(AlcubierreParams(vs_over_c=0.5, bubble_radius_R=1.5, x_s0=4.0, top_hat=True)),
        -0.449 * math.pi, ArrayConfig(n_cells=64), (0.0, 40.0),
    ),
    "alcubierre_smooth": (
        alcubierre_profile(AlcubierreParams(vs_over_c=1.2, bubble_radius_R=1.5, sigma=4.0, x_s0=4.0)),
        -0.449 * math.pi, ArrayConfig(n_cells=64), (0.0, 40.0),
    ),
    # unbiased, the bubble is arccos-infeasible once it enters the window at t > 17.5
    "alcubierre_top_hat_unbiased": (
        alcubierre_profile(AlcubierreParams(vs_over_c=0.5, bubble_radius_R=1.5, x_s0=-10.0, top_hat=True)),
        0.0, ArrayConfig(n_cells=64), (0.0, 40.0),
    ),
}


@pytest.mark.parametrize("m", [1, 17, 64])
@pytest.mark.parametrize("case", sorted(ONE_PASS_CASES))
def test_program_one_pass_matches_per_time_loop(case, m):
    profile, theta_dc, cfg, window = ONE_PASS_CASES[case]
    times = np.linspace(0.0, 20.0, m)
    got = outcome(synthesize_program, profile, theta_dc, cfg, window, times)
    assert_same_outcome(got, outcome(reference_synthesize_program, profile, theta_dc, cfg, window, times))
    if case.startswith("alcubierre_top_hat") and m > 1 and isinstance(got, FluxProgram):
        # the bubble moves, so the program is not one column repeated
        assert not np.array_equal(got.theta_ac[:, 0], got.theta_ac[:, -1])


class Schedule:
    """speed_sq per cell i (at r = i + 1/2), from before to after at t = 1/2."""

    def __init__(self, before, after):
        self.before, self.after = np.asarray(before, dtype=float), np.asarray(after, dtype=float)

    def __call__(self, r, t, background_c):
        i = np.asarray(r).astype(int)
        return np.where(np.asarray(t) >= 0.5, self.after[i], self.before[i])


@pytest.fixture
def schedule_profile(monkeypatch):
    monkeypatch.setitem(KINDS, "schedule", Kind(Schedule, lambda params: params, lambda params, window: 4.0, True))
    return lambda before, after: SpeedProfile("schedule", Schedule(before, after), (0.0, len(before)))


# 1 is feasible, 0 a hot cell (total pi/2), -1 negative and 4 arccos-infeasible without bias
ORDER_CASES = [
    # cell 5 fails at time 0 and cell 2, with a lower index, at time 1
    ([1, 1, 1, 1, 1, -1, 1, 1], [1, 1, 4, 1, 1, 1, 1, 1], SynthesisFailed, {"cell": 5, "time_index": 0, "status": Status.NEGATIVE_SPEED_SQ}),
    # two hot cells over a budget of 1 at time 0, an infeasible cell at time 1
    ([1, 0, 0, 1, 1, 1, 1, 1], [-1, 1, 1, 1, 1, 1, 1, 1], HotCellBudgetExceeded, {"time_index": 0, "count": 2, "budget": 1}),
    # both at time 0: the infeasible cell wins over the budget
    ([1, 0, 0, 1, 1, 1, 4, 1], [1, 1, 1, 1, 1, 1, 1, 1], SynthesisFailed, {"cell": 6, "time_index": 0, "status": Status.ARCCOS_INFEASIBLE}),
    # both at time 1 only
    ([1, 1, 1, 1, 1, 1, 1, 1], [0, 0, 1, 1, -1, 1, 1, 1], SynthesisFailed, {"cell": 4, "time_index": 1, "status": Status.NEGATIVE_SPEED_SQ}),
    # the budget alone, at time 1
    ([1, 0, 1, 1, 1, 1, 1, 1], [1, 0, 1, 1, 1, 1, 0, 1], HotCellBudgetExceeded, {"time_index": 1, "count": 2, "budget": 1}),
]


@pytest.mark.parametrize("before, after, error, fields", ORDER_CASES)
def test_program_failure_order_matches_per_time_loop(schedule_profile, before, after, error, fields):
    profile = schedule_profile(before, after)
    cfg, window, times = ArrayConfig(n_cells=8, max_hot_cells=1), (0.0, 8.0), [0.0, 1.0]
    got = outcome(synthesize_program, profile, 0.0, cfg, window, times)
    assert_same_outcome(got, outcome(reference_synthesize_program, profile, 0.0, cfg, window, times))
    assert type(got) is error
    assert {name: getattr(got, name) for name in fields} == fields


def test_program_fails_on_first_negative_entry():
    prof = kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=math.pi / 2))
    cfg = ArrayConfig(n_cells=8)
    with pytest.raises(SynthesisFailed) as err:
        synthesize_program(prof, 0.0, cfg, (1.2, 1.8))
    assert err.value.status is Status.NEGATIVE_SPEED_SQ
    assert err.value.cell == 0 and err.value.time_index == 0


def test_program_fails_arccos_without_bias():
    prof = alcubierre_profile(
        AlcubierreParams(vs_over_c=1.5, bubble_radius_R=1.0, x_s0=2.0, top_hat=True)
    )
    cfg = ArrayConfig(n_cells=8)
    with pytest.raises(SynthesisFailed) as err:
        synthesize_program(prof, -0.40 * math.pi, cfg, (0.0, 4.0))
    assert err.value.status is Status.ARCCOS_INFEASIBLE


def test_program_rejects_bad_window_and_dc():
    prof = flat_profile(valid_range=(0.0, 2.0))
    cfg = ArrayConfig(n_cells=4)
    with pytest.raises(ValueError):
        synthesize_program(prof, 0.0, cfg, (0.0, 3.0))
    with pytest.raises(ValueError):
        synthesize_program(flat_profile(), HALF_PI, cfg, (0.0, 1.0))


def test_scan_statuses_flip_at_analytic_boundary():
    cfg = ArrayConfig()
    vs = 1.5
    prof = alcubierre_profile(
        AlcubierreParams(vs_over_c=vs, bubble_radius_R=1.0, x_s0=0.0, top_hat=True)
    )
    dc = np.linspace(-0.4999 * math.pi, 0.0, 2048)
    report = feasibility_scan([(vs, prof)], dc, [0.0], cfg)
    status = report.status[0, :, 0]
    boundary = dc_feasibility_boundary((1 + vs) ** 2)
    feasible = status != int(Status.ARCCOS_INFEASIBLE)
    # the flip from feasible to infeasible happens within one grid step
    flip = np.nonzero(np.diff(feasible.astype(int)))[0]
    assert len(flip) == 1
    step = dc[1] - dc[0]
    assert abs(abs(dc[flip[0]]) - boundary) <= abs(step) * 1.5


def test_scan_godel_feasible_region_bounded_by_max_radius():
    cfg = ArrayConfig()
    a = 1.0
    prof = godel_profile(GodelParams(a=a))
    dc = np.array([0.2 * math.pi, 0.4 * math.pi])
    r = np.linspace(0.0, 6.0, 1201)
    report = feasibility_scan([(a, prof)], dc, r, cfg)
    for j, d in enumerate(dc):
        r_max = 2 * a * godel_max_radius(float(d))
        ok = report.status[0, j, :] != int(Status.ARCCOS_INFEASIBLE)
        inside = r <= r_max - 0.01
        outside = r >= r_max + 0.01
        assert np.all(ok[inside])
        assert not np.any(ok[outside])


def test_scan_rows_deterministic_and_well_formed():
    cfg = ArrayConfig()
    prof = godel_profile(GodelParams(a=1.0))
    report = feasibility_scan([(1.0, prof)], [0.1, 0.3], np.linspace(0, 3, 7), cfg)
    rows1 = [line[:-1].split(",") for line in report.rows()]
    rows2 = [line[:-1].split(",") for line in report.rows()]
    assert repr(rows1) == repr(rows2)
    assert len(rows1) == 1 * 2 * 7
    codes = {int(row[3]) for row in rows1}
    assert codes <= {int(s) for s in Status}
    # thetas are NaN exactly where no principal-branch total exists
    for _, _, _, code, theta in rows1:
        assert (theta == "nan") == (int(code) in (3, 4))


def test_array_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(n_cells=1)
    with pytest.raises(ValueError):
        ArrayConfig(impedance_margin=2.0)
    with pytest.raises(ValueError):
        ArrayConfig(max_hot_cells=-1)


def test_synthesize_program_refuses_nan_dc():
    with pytest.raises(ValueError, match="theta_dc"):
        synthesize_program(flat_profile(), math.nan, ArrayConfig(n_cells=4), (0.0, 1.0))


def test_synthesize_flux_refuses_nan_dc():
    with pytest.raises(ValueError, match="theta_dc"):
        synthesize_flux(1.0, math.nan)


def test_scan_marks_nan_dc_window_violation():
    report = feasibility_scan([(0.0, flat_profile())], [math.nan, 0.1], [0.0, 1.0], ArrayConfig())
    assert report.status.tolist() == [[[int(Status.WINDOW_VIOLATION)] * 2, [int(Status.FEASIBLE)] * 2]]
    assert np.isnan(report.theta_total[0, 0]).all()
    assert report.theta_total[0, 1].tolist() == [math.acos(math.cos(0.1))] * 2


def test_godel_max_radius_refuses_nan():
    with pytest.raises(ValueError):
        godel_max_radius(math.nan)


def test_dc_feasibility_boundary_refuses_nan():
    with pytest.raises(ValueError):
        dc_feasibility_boundary(math.nan)


def test_kerr_forbidden_band_refuses_nan():
    with pytest.raises(ValueError):
        kerr_forbidden_band(math.nan)


def test_kerr_forbidden_band_refuses_nan_mass():
    # once (nan, nan)
    with pytest.raises(ValueError, match="mass_M"):
        kerr_forbidden_band(math.pi / 4, math.nan)


def test_kerr_forbidden_band_refuses_negative_mass():
    # once a reversed band of negative radii
    with pytest.raises(ValueError, match="mass_M"):
        kerr_forbidden_band(math.pi / 4, -1.0)


def test_invert_speed_sq_keeps_numpy_scalars_and_array_bits():
    arg, theta = invert_speed_sq(0.5, 0.3)
    assert type(arg) is type(theta) is np.float64
    s = np.linspace(-0.5, 1.5, 41)
    arg, theta = invert_speed_sq(s, 0.3)
    assert theta.tobytes() == np.arccos(np.clip(s * np.cos(0.3), -1.0, 1.0)).tobytes()


def test_scan_peak_holds_fewer_than_three_grid_sized_float_arrays():
    # the benchmark's fig1 grid: 3 bubble speeds x 512 theta_dc x 161 radii
    profiles = [(vs, alcubierre_profile(AlcubierreParams(vs_over_c=vs, bubble_radius_R=1.0, x_s0=0.0, top_hat=True)))
                for vs in (0.5, 1.0, 1.5)]
    dc = math.pi * np.linspace(-0.4999, 0.0, 512)
    tracemalloc.start()
    try:
        report = feasibility_scan(profiles, dc, np.linspace(-3.0, 3.0, 161), ArrayConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid_bytes = 8 * report.status.size
    # measured 2.63 grids (5.21 MB) with numpy 2.4; an arccos beside arg and its
    # clipped copy made it 3.00 (5.94 MB)
    assert peak < 2.8 * grid_bytes


def test_classify_writes_nan_into_a_0d_total():
    status, theta = _classify_grid(6.25, 0.0, ArrayConfig())
    assert status == Status.ARCCOS_INFEASIBLE and np.isnan(theta)
    status, theta = _classify_grid(-1.0, 0.0, ArrayConfig())
    assert status == Status.NEGATIVE_SPEED_SQ and np.isnan(theta)
    status, theta = _classify_grid(1.0, 0.0, ArrayConfig())
    assert status == Status.FEASIBLE and theta == 0.0


@pytest.mark.parametrize("family", ["alcubierre", "godel", "kerr"])
def test_scan_classifies_the_whole_grid_as_each_profile_alone(family):
    # one call on the stacked (P, 1, R) speeds gives each (D, R) slab's bits
    if family == "alcubierre":
        profiles = [(vs, alcubierre_profile(AlcubierreParams(vs_over_c=vs, bubble_radius_R=1.0, x_s0=0.0, top_hat=True)))
                    for vs in (0.5, 1.0, 1.5)]
        r = np.linspace(-3.0, 3.0, 161)
    elif family == "godel":
        profiles = [(a, godel_profile(GodelParams(a=a))) for a in (0.5, 1.0)]
        r = np.linspace(0.0, 6.0, 301)
    else:
        profiles = [(th, kerr_extreme_profile(KerrExtremeParams(mass_M=1.0, theta=th))) for th in (0.0, math.pi / 4, 1.5)]
        r = np.linspace(0.0, 4.0, 201)
    dc = np.r_[np.linspace(-0.5 * math.pi, 0.5 * math.pi, 37), math.nan]
    cfg = ArrayConfig()
    report = feasibility_scan(profiles, dc, r, cfg)
    for k, (_, prof) in enumerate(profiles):
        status, theta = _classify_grid(prof.finite_speed_sq(r)[None, :], dc[:, None], cfg)
        assert report.status[k].dtype == status.dtype and report.status[k].tobytes() == status.tobytes()
        assert report.theta_total[k].dtype == theta.dtype and report.theta_total[k].tobytes() == theta.tobytes()
    assert report.status.shape == report.theta_total.shape == (len(profiles), dc.size, r.size)
    assert report.theta_total.flags.c_contiguous
