"""Acceptance suite: one test per release criterion.

Each test prints a single [ACCEPTANCE n] PASS/FAIL line (run with -s to see
them) and asserts the criterion at its stated tolerance. Oracles are
independent of the code paths they check: closed forms, brute-force
bisection, and the null-characteristic integrator.
"""

import math

import numpy as np

from fluxline.metrics import (
    AlcubierreParams,
    GodelParams,
    KerrExtremeParams,
    alcubierre_profile,
    flat_profile,
    godel_profile,
    kerr_extreme_profile,
    ricci_scalar,
)
from fluxline.synthesis import (
    ArccosInfeasible,
    ArrayConfig,
    Status,
    WindowViolation,
    dc_feasibility_boundary,
    feasibility_scan,
    godel_max_radius,
    kerr_forbidden_band,
    speed_sq_from_flux,
    synthesize_flux,
    synthesize_program,
)
from fluxline.wavelab import (
    GaussianPulse,
    LadderSim,
    SimulationSpec,
    measure_front_speed,
    trace_null_geodesic,
    verify_program,
)

HALF_PI = math.pi / 2


def report(n, desc, ok):
    print(f"\n[ACCEPTANCE {n}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_flux_algebra_identity():
    """cos(ac) - tan(dc) sin(ac) equals sec(dc) cos(dc + ac) for 1e4 draws."""
    rng = np.random.default_rng(20260810)
    n = 10_000
    dc = rng.uniform(-0.4999 * math.pi, 0.4999 * math.pi, n)
    total = rng.uniform(-HALF_PI, HALF_PI, n)  # keep the total in-window
    ac = total - dc
    lhs = np.abs(np.cos(ac) - np.tan(dc) * np.sin(ac))
    rhs = np.abs(1.0 / np.cos(dc)) * np.abs(np.cos(dc + ac))
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, rhs)))
    report(1, f"flux-algebra identity, worst relative gap {worst:.2e}", worst <= 1e-12)


def test_criterion_2_synthesis_round_trip():
    """1e3 random feasible requests recover c^2 * speed_sq to 1e-10."""
    rng = np.random.default_rng(42)
    worst = 0.0
    count = 0
    while count < 1000:
        dc = float(rng.uniform(-0.49 * math.pi, 0.49 * math.pi))
        s = float(rng.uniform(1e-3, 1.0 / math.cos(dc)))
        try:
            _, total = synthesize_flux(s, dc)
        except (ArccosInfeasible, WindowViolation):
            continue
        c_sq = speed_sq_from_flux(dc)  # background from the DC bias, c0 = 1
        recovered = speed_sq_from_flux(total)
        worst = max(worst, abs(recovered - c_sq * s) / (c_sq * s))
        count += 1
    report(2, f"synthesis round trip, worst relative error {worst:.2e}", worst <= 1e-10)


def test_criterion_3_bubble_velocity_boundaries():
    """Minimal |dc| for vs/c in {0.5, 1.0, 1.5} equals the arccos values."""
    oracle = {v: math.acos(1.0 / (1.0 + v) ** 2) for v in (0.5, 1.0, 1.5)}
    worst = max(abs(dc_feasibility_boundary((1 + v) ** 2) - b) for v, b in oracle.items())
    # the vs/c = 1.5 operating point quoted as ~ -0.44 pi: agreement to two
    # decimals in units of pi means within 0.01 of 0.44
    b15_over_pi = dc_feasibility_boundary(6.25) / math.pi
    consistent = abs(b15_over_pi - 0.44) < 0.01
    values = {v: round(oracle[v] / math.pi, 4) for v in oracle}
    report(
        3,
        f"boundaries {values} (in pi units), worst gap {worst:.2e}, 1.5 case {b15_over_pi:.4f} pi vs quoted 0.44 pi",
        worst <= 1e-9 and consistent,
    )


def test_criterion_4_rotating_universe_max_radius():
    """sqrt(sec - 1) law vs brute-force bisection on synthesize_flux."""

    def feasible(u, dc):
        try:
            synthesize_flux(1.0 + u * u, dc)
            return True
        except (ArccosInfeasible, WindowViolation):
            return False

    worst = 0.0
    for dc in np.linspace(0.02 * math.pi, 0.49 * math.pi, 50):
        dc = float(dc)
        lo, hi = 0.0, 10.0
        assert feasible(lo, dc) and not feasible(hi, dc)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if feasible(mid, dc):
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs(godel_max_radius(dc) - 0.5 * (lo + hi)))
    exact_third = abs(godel_max_radius(math.pi / 3) - 1.0)
    report(
        4,
        f"max-radius law vs bisection, worst gap {worst:.2e}; r_max(pi/3) off by {exact_third:.1e}",
        worst <= 1e-8 and exact_third <= 1e-12,
    )


def test_criterion_5_extreme_hole_flux_structure():
    """Axis flux curve, horizon pin at pi/2, forbidden bands off-axis."""
    M = 1.0
    cfg = ArrayConfig()
    r = np.linspace(0.01, 4.0, 400)
    profiles = [
        (th, kerr_extreme_profile(KerrExtremeParams(mass_M=M, theta=th)))
        for th in (0.0, math.pi / 4, math.pi / 2)
    ]
    scan = feasibility_scan(profiles, [0.0], r, cfg, param_name="theta")

    axis_curve = scan.theta_total[0, 0, :]
    oracle_curve = np.arccos(((r - M) ** 2 / (r * r + M * M)) ** 2)
    curve_ok = np.allclose(axis_curve, oracle_curve, rtol=1e-12, atol=1e-12)
    horizon_exact = np.arccos(((1.0 - M) ** 2 / (1.0 + M * M)) ** 2) == HALF_PI

    lo, hi = kerr_forbidden_band(math.pi / 4, M)
    band_ok = abs(lo - (1 - 1 / math.sqrt(2)) * M) <= 1e-9 and abs(hi - (1 + 1 / math.sqrt(2)) * M) <= 1e-9
    # and the scan agrees with the quadratic roots to within one grid step;
    # compare first/last negative radii because the exact horizon point
    # inside the band evaluates to -0.0 and classifies as a hot cell
    pi4_status = scan.status[1, 0, :]
    negative_r = r[pi4_status == int(Status.NEGATIVE_SPEED_SQ)]
    step = r[1] - r[0]
    scan_band_ok = (
        negative_r.size > 0
        and abs(negative_r[0] - lo) <= 1.5 * step
        and abs(negative_r[-1] - hi) <= 1.5 * step
    )

    equatorial = scan.status[2, 0, :]
    inside = (r > M + 1e-9) & (r < 2 * M - 1e-9)
    eq_ok = np.all(equatorial[inside] == int(Status.NEGATIVE_SPEED_SQ))

    report(
        5,
        "axis curve to 1e-12, horizon flux exactly pi/2, band ends (1 +- 1/sqrt2) M, equatorial slice all negative",
        curve_ok and horizon_exact and band_ok and scan_band_ok and eq_ok,
    )


def test_criterion_6_background_reduction_numbers():
    """Deep-bias numbers: c/c0 ~ 0.433 ('about 0.4'), pattern ~ 0.65 c0 ('about 0.6')."""
    c_ratio = math.sqrt(speed_sq_from_flux(0.44 * math.pi))
    pattern = 1.5 * c_ratio
    interior = 2.5 * c_ratio  # recorded alongside, not adjudicated
    ok = (
        abs(c_ratio - 0.433) < 1e-3
        and abs(c_ratio - 0.4) < 0.05
        and abs(pattern - 0.65) < 5e-3
        and abs(pattern - 0.6) < 0.05
    )
    report(
        6,
        f"c/c0 = {c_ratio:.4f}, pattern speed = {pattern:.4f} c0, interior light speed = {interior:.4f} c0",
        ok,
    )


def test_criterion_7_ray_oracle_closed_form():
    """Rotating-universe characteristic matches 2a sinh(t/2a + asinh(r0/2a))."""
    worst = 0.0
    for a, r0 in ((1.0, 0.0), (1.0, 0.6), (0.7, 0.3)):
        prof = godel_profile(GodelParams(a=a))
        t_end = 2 * a
        path = trace_null_geodesic(prof, 1.0, r0=r0, t_end=t_end)
        exact = 2 * a * math.sinh(t_end / (2 * a) + math.asinh(r0 / (2 * a)))
        worst = max(worst, abs(path.r[-1] - exact) / exact)
    report(7, f"sinh trajectory, worst relative error {worst:.2e}", worst <= 1e-6)


def _convergence_case(profile, theta_dc, window, spec_kw, n_list):
    cfg = ArrayConfig(n_cells=128)
    times = np.linspace(0.0, spec_kw["t_end"], 9) if profile.time_dependent else [0.0]
    program = synthesize_program(profile, theta_dc, cfg, window, times)
    errs = []
    for n in n_list:
        spec = SimulationSpec(n_points=n, solver="continuum", **spec_kw)
        rep = verify_program(program, profile, spec)
        errs.append(rep.solvers["continuum"].max_rel_deviation)
    return errs


def test_criterion_8_wave_front_converges_to_ray():
    """Nested grids: >= 1.8x error reduction per refinement, finest <= 2%."""
    cases = {
        "flat": _convergence_case(
            flat_profile(), 0.0, (0.0, 10.0),
            dict(pulse_center=1.0, pulse_width=0.18, t_end=7.0), [200, 400, 800],
        ),
        "godel": _convergence_case(
            godel_profile(GodelParams(a=1.0)), 0.45 * math.pi, (0.0, 3.8),
            dict(pulse_center=0.35, pulse_width=0.09, t_end=4.5), [128, 256, 512],
        ),
        "alcubierre": _convergence_case(
            alcubierre_profile(AlcubierreParams(vs_over_c=0.5, bubble_radius_R=2.0, x_s0=6.0, top_hat=True)),
            -0.36 * math.pi, (0.0, 40.0),
            dict(pulse_center=6.0, pulse_width=0.35, t_end=42.0), [400, 800, 1600],
        ),
    }
    ok = True
    summary = []
    for name, errs in cases.items():
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        case_ok = all(rr >= 1.8 for rr in ratios) and errs[-1] <= 0.02
        ok = ok and case_ok
        summary.append(f"{name}: errors {[f'{e:.4f}' for e in errs]}, ratios {[f'{rr:.1f}' for rr in ratios]}")
    report(8, "; ".join(summary), ok)


def test_criterion_9_ladder_physics():
    """Group speed scales as sqrt|cos theta|; energy drift < 0.1% per 1e4 steps."""

    def speed(theta):
        sim = LadderSim(n_cells=700, pitch=1.0, boundary="absorbing")
        sim.set_flux(theta)
        sim.initialize_pulse(GaussianPulse(80.0, 10.0), 1)
        n_steps = int(0.8 * (700 - 200) / sim.dt)
        snaps = sim.run(n_steps, max(1, n_steps // 60))
        return measure_front_speed(snaps).mean

    v0 = speed(0.0)
    worst_ratio = 0.0
    for theta in (math.pi / 6, math.pi / 3):
        got = speed(theta) / v0
        want = math.sqrt(math.cos(theta))
        worst_ratio = max(worst_ratio, abs(got - want) / want)
    speed_ok = worst_ratio <= 0.02 and abs(v0 - 1.0) <= 0.02

    sim = LadderSim(n_cells=300, pitch=1.0, boundary="reflecting", stability_factor=0.4)
    sim.set_flux(math.pi / 5)
    sim.initialize_pulse(GaussianPulse(150.0, 8.0), 1)
    sim.step()
    e0 = sim.energy()
    drift = 0.0
    for k in range(10_000):
        sim.step()
        if k % 500 == 0:
            drift = max(drift, abs(sim.energy() - e0) / abs(e0))
    drift = max(drift, abs(sim.energy() - e0) / abs(e0))
    energy_ok = drift < 1e-3
    report(
        9,
        f"sqrt-cos scaling off by {worst_ratio:.4f}, v(0) = {v0:.4f}, energy drift {drift:.2e}",
        speed_ok and energy_ok,
    )


def test_criterion_10_curvature_diagnostic():
    """Finite-difference scalar curvature matches the closed form at O(h^2)."""
    a = 1.0
    prof = godel_profile(GodelParams(a=a))

    def exact(r):
        return -(1.0 / (2 * a * a)) / (1.0 + (r / (2 * a)) ** 2) ** 2

    ok = True
    details = []
    for r in (0.0, 2.0):
        e_h = abs(ricci_scalar(prof, 1.0, r, h=0.08) - exact(r))
        e_h2 = abs(ricci_scalar(prof, 1.0, r, h=0.04) - exact(r))
        ratio = e_h / e_h2
        details.append(f"r={r}: ratio {ratio:.2f}")
        ok = ok and 3.3 <= ratio <= 4.7 and e_h2 < 1e-4
    report(10, "curvature halving ratios " + ", ".join(details), ok)
