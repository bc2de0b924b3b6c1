"""Command-line front end.

Commands: profile, synth, feasibility, simulate, raytrace. Each takes
--config FILE or --preset NAME, plus repeatable --set KEY=VALUE overrides
("--set synthesis.theta_dc_over_pi=-0.44") and --out DIR to redirect the
output directory.

Exit codes: 0 success, 1 configuration error, 2 synthesis infeasible,
3 hot-cell budget exceeded, 4 simulation or verification failure. A
command raises on failure; main maps the exception to its exit code and
prints "<prefix>: <message>" on stderr (FAILURES). The one code a command
returns itself is 4 for a verification that fails. A synthesis failure
first writes synth_failure.json. Each COMMANDS entry names the config block
its command requires, which main checks once.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import FIGURES, ConfigError, RunConfig, load_raw_config, validate_config
from .csvio import emission, grid_lines, write_csv, write_json
from .metrics import ParamError, ProfileDomainError, ProfileEvaluationError
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
    # a profile value that cannot be used is a fault of the metric block
    ((ProfileEvaluationError,), EXIT_CONFIG, "config error: metric"),
    ((ProfileDomainError, ValueError), EXIT_CONFIG, "config error"),
)


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
    grid_r, grid_t = run.sampling.r, run.sampling.t[:, None]
    try:
        s = run.profile.finite_speed_sq(grid_r, grid_t)
    except ProfileDomainError as exc:
        # only a tabulated profile refuses a radius; analytic ones are sampled anywhere
        raise ConfigError("sampling.r", str(exc)) from None
    rows = grid_lines(grid_r, grid_t, s)
    path = write_csv(_outdir(run) / "profile.csv", ("r", "t", "ctilde_sq"), rows, run.hash)
    print(f"wrote {path}")
    return EXIT_OK


def _program_rows(program):
    """Cell-major lines of PROGRAM_COLUMNS, time index varying fastest."""
    return grid_lines(
        np.arange(program.n_cells)[:, None],
        np.arange(len(program.times)),
        program.cell_coords[:, None],
        program.times,
        program.theta_dc,
        program.theta_ac,
        program.theta_total,
        program.speed_sq,
        program.annotations,
    )


def _synthesize(run: RunConfig, profile, times):
    """The program over the configured window; a failure writes synth_failure.json and re-raises."""
    s = run.synthesis
    if s.coord_window is None:
        raise ConfigError("synthesis.coord_window", "required for this command")
    try:
        return synthesize_program(profile, s.theta_dc, s.array, s.coord_window, times)
    except (SynthesisFailed, HotCellBudgetExceeded) as exc:
        if isinstance(exc, SynthesisFailed):
            detail = {"cell": exc.cell, "time_index": exc.time_index, "status": exc.status.name.lower()}
        else:
            detail = {"time_index": exc.time_index, "hot_cells": exc.count, "budget": exc.budget}
        path = write_json(_outdir(run) / "synth_failure.json", {"feasible": False, "reason": str(exc), **detail}, run.hash)
        print(f"wrote {path}")
        raise


def cmd_synth(run: RunConfig) -> int:
    out = _outdir(run)
    program = _synthesize(run, run.profile, run.synthesis.time_samples)
    counts = {status.name.lower(): int(np.count_nonzero(program.annotations == int(status))) for status in Status}
    summary = {
        "feasible": True,
        "n_cells": program.n_cells,
        "n_times": len(program.times),
        "theta_dc": program.theta_dc,
        "background_c": program.background_c,
        "c0": 1.0,  # the unit of speed; the key stays so that no artifact byte moves
        "coord_window": list(program.coord_window),
        "hot_cells_per_time": program.hot_cells.tolist(),
        "status_counts": counts,
    }
    csv_path = write_csv(out / "program.csv", PROGRAM_COLUMNS, _program_rows(program), run.hash)
    json_path = write_json(out / "synth_summary.json", summary, run.hash)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def _fig_profiles(run: RunConfig):
    """Config path of the scanned profiles and the (value, profile) family."""
    fz = run.feasibility
    profile = run.profile
    if fz.figure is None:
        # custom scan over the configured metric
        return "metric", [(0.0, profile)]
    kind, family, param = FIGURES[fz.figure]
    if profile.kind != kind:
        raise ConfigError("metric.kind", f"{fz.figure} needs {kind!r}, got {profile.kind!r}")
    if family is None:
        return "metric", [(getattr(profile.params, param), profile)]
    path = f"feasibility.{family}"
    members = []
    for v in map(float, getattr(fz, family)):
        try:
            members.append((v, replace(profile, params=replace(profile.params, **{param: v}))))
        except ParamError as exc:
            raise ConfigError(path, f"entry {v!r}: {exc}") from None
    return path, members


def _fig_boundary(run: RunConfig):
    """Header and columns of the figure's analytic boundary, or None for a custom scan."""
    fz = run.feasibility
    if fz.figure == "fig1":
        vs = [float(v) for v in fz.vs_values]
        return ("vs_over_c", "theta_dc_min"), (vs, [dc_feasibility_boundary((1.0 + v) ** 2) for v in vs])
    if fz.figure == "fig2":
        dense = np.linspace(0.005 * math.pi, 0.4999 * math.pi, 400)
        return ("theta_dc", "r_max_over_2a"), (dense, [godel_max_radius(float(d)) for d in dense])
    if fz.figure == "fig3":
        M = run.profile.params.mass_M
        bands = [kerr_forbidden_band(float(th), M) or (math.nan, math.nan) for th in fz.theta_values]
        lo, hi = zip(*bands)
        return ("theta", "r_forbidden_low", "r_forbidden_high"), (fz.theta_values, lo, hi)
    return None


def cmd_feasibility(run: RunConfig) -> int:
    out = _outdir(run)
    source, profiles = _fig_profiles(run)
    fz = run.feasibility
    try:
        report = feasibility_scan(profiles, fz.theta_dc, fz.r, run.synthesis.array)
    except ProfileEvaluationError as exc:
        if source == "metric":
            raise
        raise ConfigError(source, f"entry {exc.entry!r}: {exc}") from None
    except ProfileDomainError as exc:
        # a tabulated profile refuses a radius outside its table, as in cmd_profile
        raise ConfigError("feasibility.r", str(exc)) from None
    path = write_csv(
        out / "feasibility.csv",
        ("param_1", "param_2", "r", "status_code", "theta_total_or_nan"),
        report.rows(),
        run.hash,
    )
    print(f"wrote {path}")
    # built after the scan, which refuses a family entry the boundary would overflow on
    boundary = _fig_boundary(run)
    if boundary is not None:
        columns, values = boundary
        bpath = write_csv(out / "boundary.csv", columns, grid_lines(*values), run.hash)
        print(f"wrote {bpath}")
    return EXIT_OK


def cmd_simulate(run: RunConfig) -> int:
    out = _outdir(run)
    spec = run.simulation
    profile = run.profile
    # feasibility must hold over the whole run for a moving profile
    times = run.synthesis.time_samples
    if profile.time_dependent:
        times = np.linspace(0.0, spec.t_end, 17)
    program = _synthesize(run, profile, times)
    paths = []

    def emit(solver, s):
        rows = grid_lines(s.times[:, None], s.r, s.values)
        paths.append(write_csv(out / f"snapshots_{solver}.csv", ("t", "r", "value"), rows, run.hash))

    # a solver's snapshot CSV is formatted while the solvers after it and the ray oracle run
    with emission():
        report = verify_program(program, profile, spec, emit)
    for path in paths:
        print(f"wrote {path}")
    jpath = write_json(out / "verification.json", asdict(report), run.hash)
    print(f"wrote {jpath}")
    worst = max(res.max_rel_deviation for res in report.solvers.values())
    verdict = "PASS" if report.passed else "FAIL"
    print(f"verification: {verdict} (max relative deviation {worst:.4f}, tolerance {report.tolerance})")
    return EXIT_OK if report.passed else EXIT_SIMULATION


def cmd_raytrace(run: RunConfig) -> int:
    # a launch's fields are trace_null_geodesic's keyword parameters
    paths = [trace_null_geodesic(run.profile, **vars(launch)) for launch in run.rays]
    # one row per sample of every path, each tagged with its launch
    tag = lambda values: np.repeat(values, [len(path.t) for path in paths])
    rows = grid_lines(
        tag(np.arange(len(paths))),
        tag([launch.direction for launch in run.rays]),
        np.concatenate([path.t for path in paths]),
        np.concatenate([path.r for path in paths]),
        tag([path.status for path in paths]),
    )
    out = write_csv(_outdir(run) / "rays.csv", ("launch_index", "direction", "t", "r", "status"), rows, run.hash)
    print(f"wrote {out}")
    return EXIT_OK


# name -> (command, help text, the RunConfig block it requires or None)
COMMANDS = {
    "profile": (cmd_profile, "sample the speed profile over an (r, t) grid", "sampling"),
    "synth": (cmd_synth, "synthesize the flux program for the configured window", None),
    "feasibility": (cmd_feasibility, "scan feasibility over a parameter grid", "feasibility"),
    "simulate": (cmd_simulate, "synthesize, simulate and verify against the ray oracle", "simulation"),
    "raytrace": (cmd_raytrace, "integrate null characteristics", "rays"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxline",
        description="Flux programs for a SQUID-array transmission line mimicking curved-section light propagation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, block) in COMMANDS.items():
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
        p.set_defaults(func=fn, block=block)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = list(args.set)
    if args.out is not None:
        overrides.append(f"output.directory={args.out}")
    try:
        run = validate_config(load_raw_config(args.config, args.preset, overrides))
        if args.block is not None and getattr(run, args.block) is None:
            raise ConfigError(args.block, f"required block for the {args.command} command")
        return args.func(run)
    except tuple(t for types, _, _ in FAILURES for t in types) as exc:
        code, prefix = next((code, prefix) for types, code, prefix in FAILURES if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
