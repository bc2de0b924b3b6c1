"""Command-line front end.

Commands: profile, synth, feasibility, simulate, raytrace. Each takes
--config FILE or --preset NAME, plus repeatable --set KEY=VALUE overrides
("--set synthesis.theta_dc_over_pi=-0.44") and --out DIR to redirect the
output directory.

Exit codes: 0 success, 1 configuration error, 2 synthesis infeasible,
3 hot-cell budget exceeded, 4 simulation or verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_raw_config, validate_config
from .csvio import column_rows, write_csv, write_json
from .metrics import (
    ProfileDomainError,
    ProfileEvaluationError,
    alcubierre_profile,
    kerr_extreme_profile,
)
from .synthesis import (
    HotCellBudgetExceeded,
    Status,
    SynthesisError,
    SynthesisFailed,
    dc_feasibility_boundary,
    feasibility_scan,
    godel_max_radius,
    kerr_forbidden_band,
    synthesize_program,
)
from .wavelab import (
    CflViolation,
    FrontNotFound,
    SingularInductance,
    StabilityViolation,
    trace_null_geodesic,
    verify_program,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_HOT_BUDGET = 3
EXIT_SIMULATION = 4

# Exit code and stderr prefix per failure. The first row an exception
# matches wins: ConfigError comes before the ValueError it derives from,
# and the hot-cell budget before every other synthesis error.
FAILURES = (
    ((ConfigError,), EXIT_CONFIG, "config error"),
    ((HotCellBudgetExceeded,), EXIT_HOT_BUDGET, "hot-cell budget exceeded"),
    ((SynthesisError,), EXIT_INFEASIBLE, "synthesis infeasible"),
    ((CflViolation, StabilityViolation, SingularInductance, FrontNotFound), EXIT_SIMULATION, "simulation failed"),
    ((ProfileDomainError, ProfileEvaluationError, ValueError), EXIT_CONFIG, "config error"),
)


def _failure(exc: Exception) -> tuple[int, str]:
    """Exit code and stderr prefix of the first FAILURES row exc matches."""
    return next((code, prefix) for types, code, prefix in FAILURES if isinstance(exc, types))


PROGRAM_COLUMNS = (
    "cell_index",
    "time_index",
    "r",
    "t",
    "theta_dc",
    "theta_ac",
    "theta_total",
    "ctilde_sq",
    "status",
)


def _outdir(run: RunConfig) -> Path:
    return Path(run.output.directory)


def cmd_profile(run: RunConfig) -> int:
    if run.sampling is None:
        raise ConfigError("sampling", "required block for the profile command")
    profile = run.profile()
    r, times = run.sampling.r, run.sampling.t
    s = [np.asarray(profile.speed_sq(r, float(t)), dtype=float) for t in times]
    rows = column_rows(np.tile(r, len(times)), np.repeat(times, len(r)), np.concatenate(s))
    path = write_csv(_outdir(run) / "profile.csv", ("r", "t", "ctilde_sq"), rows, run.hash)
    print(f"wrote {path}")
    return EXIT_OK


def _program_rows(program):
    """Cell-major rows of PROGRAM_COLUMNS, time index varying fastest."""
    n, m = program.n_cells, len(program.times)
    return column_rows(
        np.repeat(np.arange(n), m),
        np.tile(np.arange(m), n),
        np.repeat(program.cell_coords, m),
        np.tile(program.times, n),
        np.full(n * m, program.theta_dc),
        program.theta_ac.ravel(),
        program.theta_total.ravel(),
        program.speed_sq.ravel(),
        program.annotations.ravel(),
    )


def _synthesize(run: RunConfig, profile, times):
    s = run.synthesis
    if s.coord_window is None:
        raise ConfigError("synthesis.coord_window", "required for this command")
    return synthesize_program(profile, s.theta_dc, s.array, s.coord_window, times)


def _write_synth_failure(run: RunConfig, exc) -> Path:
    """synth_failure.json for a failed synthesis, one schema for every command."""
    payload = {"feasible": False, "reason": str(exc)}
    if isinstance(exc, SynthesisFailed):
        payload.update(cell=exc.cell, time_index=exc.time_index, status=exc.status.name.lower())
    else:
        payload.update(time_index=exc.time_index, hot_cells=exc.count, budget=exc.budget)
    return write_json(_outdir(run) / "synth_failure.json", payload, run.hash)


def cmd_synth(run: RunConfig) -> int:
    out = _outdir(run)
    try:
        program = _synthesize(run, run.profile(), run.synthesis.time_samples)
    except (SynthesisFailed, HotCellBudgetExceeded) as exc:
        path = _write_synth_failure(run, exc)
        print(f"synthesis failed ({exc}); wrote {path}")
        return _failure(exc)[0]
    counts = {status.name.lower(): int(np.count_nonzero(program.annotations == int(status))) for status in Status}
    summary = {
        "feasible": True,
        "n_cells": program.n_cells,
        "n_times": len(program.times),
        "theta_dc": program.theta_dc,
        "background_c": program.background_c,
        "c0": program.c0,
        "coord_window": list(program.coord_window),
        "hot_cells_per_time": [int(x) for x in program.hot_cell_counts(run.synthesis.array.window_epsilon)],
        "status_counts": counts,
    }
    csv_path = write_csv(out / "program.csv", PROGRAM_COLUMNS, _program_rows(program), run.hash)
    json_path = write_json(out / "synth_summary.json", summary, run.hash)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def _fig_profiles(run: RunConfig):
    """Profile family and analytic boundary rows for one scan."""
    fz = run.feasibility
    if fz is None:
        raise ConfigError("feasibility", "required block for the feasibility command")
    profile = run.profile()
    if fz.figure == "fig1":
        if profile.kind != "alcubierre":
            raise ConfigError("metric.kind", "fig1 needs an alcubierre metric")
        profiles = [
            (float(v), alcubierre_profile(replace(profile.params, vs_over_c=float(v))))
            for v in fz.vs_values
        ]
        boundary = (
            ("vs_over_c", "theta_dc_min"),
            [(float(v), dc_feasibility_boundary((1.0 + float(v)) ** 2)) for v in fz.vs_values],
        )
        return "vs_over_c", profiles, boundary
    if fz.figure == "fig2":
        if profile.kind != "godel":
            raise ConfigError("metric.kind", "fig2 needs a godel metric")
        profiles = [(profile.params.a, profile)]
        dense = np.linspace(0.005 * math.pi, 0.4999 * math.pi, 400)
        boundary = (
            ("theta_dc", "r_max_over_2a"),
            [(float(d), godel_max_radius(float(d))) for d in dense],
        )
        return "a", profiles, boundary
    if fz.figure == "fig3":
        if profile.kind != "kerr_extreme":
            raise ConfigError("metric.kind", "fig3 needs a kerr_extreme metric")
        M = profile.params.mass_M
        profiles = [
            (float(th), kerr_extreme_profile(replace(profile.params, theta=float(th))))
            for th in fz.theta_values
        ]
        rows = []
        for th in fz.theta_values:
            band = kerr_forbidden_band(float(th), M)
            lo, hi = band if band is not None else (math.nan, math.nan)
            rows.append((float(th), lo, hi))
        boundary = (("theta", "r_forbidden_low", "r_forbidden_high"), rows)
        return "theta", profiles, boundary
    # custom scan over the configured metric
    profiles = [(0.0, profile)]
    return "metric", profiles, None


def cmd_feasibility(run: RunConfig) -> int:
    out = _outdir(run)
    param_name, profiles, boundary = _fig_profiles(run)
    fz = run.feasibility
    report = feasibility_scan(profiles, fz.theta_dc, fz.r, run.synthesis.array, param_name=param_name)
    path = write_csv(
        out / "feasibility.csv",
        ("param_1", "param_2", "r", "status_code", "theta_total_or_nan"),
        report.rows(),
        run.hash,
    )
    print(f"wrote {path}")
    if boundary is not None:
        columns, rows = boundary
        bpath = write_csv(out / "boundary.csv", columns, rows, run.hash)
        print(f"wrote {bpath}")
    return EXIT_OK


def cmd_simulate(run: RunConfig) -> int:
    if run.simulation is None:
        raise ConfigError("simulation", "required block for the simulate command")
    out = _outdir(run)
    spec = run.simulation
    profile = run.profile()
    # feasibility must hold over the whole run for a moving profile
    times = run.synthesis.time_samples
    if profile.time_dependent:
        times = np.linspace(0.0, spec.t_end, 17)
    try:
        program = _synthesize(run, profile, times)
    except (SynthesisFailed, HotCellBudgetExceeded) as exc:
        path = _write_synth_failure(run, exc)
        print(f"refusing to simulate: {exc}; wrote {path}")
        return _failure(exc)[0]
    report = verify_program(program, profile, spec)
    for solver, snaps in report.snapshots.items():
        rows = column_rows(
            np.repeat([s.time for s in snaps], [len(s.r) for s in snaps]),
            np.concatenate([s.r for s in snaps]),
            np.concatenate([s.values for s in snaps]),
        )
        path = write_csv(out / f"snapshots_{solver}.csv", ("t", "r", "value"), rows, run.hash)
        print(f"wrote {path}")
    jpath = write_json(out / "verification.json", report.to_dict(), run.hash)
    print(f"wrote {jpath}")
    worst = max((res.max_rel_deviation for res in report.solvers.values()), default=math.nan)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"verification: {verdict} (max relative deviation {worst:.4f}, tolerance {report.tolerance})")
    return EXIT_OK if report.passed else EXIT_SIMULATION


def cmd_raytrace(run: RunConfig) -> int:
    if run.rays is None:
        raise ConfigError("rays", "required block for the raytrace command")
    profile = run.profile()
    paths = [
        trace_null_geodesic(
            profile,
            launch.background_c,
            r0=launch.r0,
            t0=launch.t0,
            direction=launch.direction,
            t_end=launch.t_end,
            dt=launch.dt,
        )
        for launch in run.rays
    ]
    counts = [len(path.t) for path in paths]
    rows = column_rows(
        np.repeat(np.arange(len(paths)), counts),
        np.repeat([launch.direction for launch in run.rays], counts),
        np.concatenate([path.t for path in paths]),
        np.concatenate([path.r for path in paths]),
        np.repeat([path.status for path in paths], counts),
    )
    out = write_csv(
        _outdir(run) / "rays.csv",
        ("launch_index", "direction", "t", "r", "status"),
        rows,
        run.hash,
    )
    print(f"wrote {out}")
    return EXIT_OK


COMMANDS = {
    "profile": (cmd_profile, "sample the speed profile over an (r, t) grid"),
    "synth": (cmd_synth, "synthesize the flux program for the configured window"),
    "feasibility": (cmd_feasibility, "scan feasibility over a parameter grid"),
    "simulate": (cmd_simulate, "synthesize, simulate and verify against the ray oracle"),
    "raytrace": (cmd_raytrace, "integrate null characteristics"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxline",
        description="Flux programs for a SQUID-array transmission line mimicking curved-section light propagation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--preset", help="named built-in configuration")
        p.add_argument("--out", help="override output directory")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config field by dotted path (repeatable)",
        )
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = list(args.set)
    if args.out is not None:
        overrides.append(f"output.directory={args.out}")
    try:
        run = validate_config(load_raw_config(args.config, args.preset, overrides))
        return args.func(run)
    except tuple(t for types, _, _ in FAILURES for t in types) as exc:
        code, prefix = _failure(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
