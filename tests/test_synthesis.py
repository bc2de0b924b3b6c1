"""Flux algebra, feasibility classification and program synthesis."""

import math

import numpy as np
import pytest

from fluxline.metrics import (
    AlcubierreParams,
    GodelParams,
    KerrExtremeParams,
    alcubierre_profile,
    flat_profile,
    godel_profile,
    kerr_extreme_profile,
)
from fluxline.synthesis import (
    ArccosInfeasible,
    ArrayConfig,
    HotCellBudgetExceeded,
    NegativeSpeedSquared,
    Status,
    SynthesisFailed,
    WindowViolation,
    cell_midpoints,
    classify_point,
    dc_calibration,
    dc_feasibility_boundary,
    feasibility_scan,
    godel_max_radius,
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
    # even in the angle, and scaled by c0^2
    assert speed_sq_from_flux(-0.3, c0=2.0) == pytest.approx(4 * math.cos(0.3))


def test_dc_calibration_examples_and_roundtrip():
    assert dc_calibration(1.0) == 0.0
    assert dc_calibration(0.5) == pytest.approx(math.pi / 3, rel=1e-15)
    deep = dc_calibration(math.cos(0.44 * math.pi), sign=-1)
    assert deep == pytest.approx(-0.44 * math.pi, rel=1e-12)
    for target in (1.0, 0.7, 0.1874, 0.02):
        theta = dc_calibration(target)
        assert speed_sq_from_flux(theta) == pytest.approx(target, abs=1e-12)
    with pytest.raises(ValueError):
        dc_calibration(0.0)
    with pytest.raises(ValueError):
        dc_calibration(1.2)
    with pytest.raises(ValueError):
        dc_calibration(0.5, sign=2)


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
    cfg = ArrayConfig()
    # ergoregion value beats everything
    assert classify_point(-0.04, 0.0, cfg) is Status.NEGATIVE_SPEED_SQ
    # superluminal request without bias
    assert classify_point(6.25, 0.0, cfg) is Status.ARCCOS_INFEASIBLE
    # DC at the window edge is unusable regardless of the request
    assert classify_point(1.0, HALF_PI, cfg) is Status.WINDOW_VIOLATION
    # the horizon cell: total exactly pi/2, reported as the extreme
    # impedance case (hot cell), not as a window violation
    assert classify_point(0.0, 0.0, cfg) is Status.IMPEDANCE_WARNING
    # a deep but in-window total
    assert classify_point(math.cos(0.45 * math.pi), 0.0, cfg) is Status.IMPEDANCE_WARNING
    # comfortable point
    assert classify_point(1.0, 0.0, cfg) is Status.FEASIBLE
    assert classify_point(0.9, 0.3, cfg) is Status.FEASIBLE


def test_classify_feasible_at_exact_boundary():
    cfg = ArrayConfig()
    b = dc_feasibility_boundary(6.25)
    assert classify_point(6.25, -b, cfg) is Status.FEASIBLE
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
    assert list(program.hot_cell_counts(cfg1.window_epsilon)) == [1]
    hot = int(np.argmax(program.theta_total[:, 0]))
    assert program.cell_coords[hot] == pytest.approx(1.0)
    assert program.theta_total[hot, 0] == pytest.approx(HALF_PI, abs=1e-15)
    assert program.annotations[hot, 0] == int(Status.IMPEDANCE_WARNING)


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
    with pytest.raises(ValueError):
        ArrayConfig(window_epsilon=0.0)
