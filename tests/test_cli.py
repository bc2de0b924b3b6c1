"""Command-line contract: exit codes, CSV schemas, determinism, presets."""

import hashlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fluxline import cli
from fluxline.cli import main
from fluxline import config
from fluxline.config import PRESETS, ConfigError
from fluxline.csvio import read_table_csv
from fluxline.metrics import ProfileDomainError, ProfileEvaluationError
from fluxline.synthesis import (
    ArccosInfeasible,
    HotCellBudgetExceeded,
    NegativeSpeedSquared,
    Status,
    SynthesisFailed,
    WindowViolation,
    godel_max_radius,
)
from fluxline.wavelab import CflViolation, FrontNotFound, SingularInductance, StabilityViolation
from fluxline.wavelab import verify
from fluxline.wavelab.continuum import snapshot_count
from fluxline.wavelab.verify import MAX_CELL_STEPS


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def cols(path, header, rows=None):
    h, r = read_csv(path)
    assert h == list(header)
    return r


def test_profile_godel_matches_closed_form(tmp_path):
    rc = main(["profile", "--preset", "godel", "--out", str(tmp_path)])
    assert rc == 0
    rows = cols(tmp_path / "profile.csv", ("r", "t", "ctilde_sq"))
    for r, t, s in ((float(a), float(b), float(c)) for a, b, c in rows):
        assert s == pytest.approx(1.0 + (r / 2.0) ** 2, rel=1e-12)
        assert t == 0.0


def test_profile_kerr_axis_values_bounded(tmp_path):
    rc = main(["profile", "--preset", "kerr_theta0", "--out", str(tmp_path),
               "--set", "sampling.r={\"start\": 0.01, \"stop\": 4.0, \"num\": 200}"])
    assert rc == 0
    rows = cols(tmp_path / "profile.csv", ("r", "t", "ctilde_sq"))
    vals = [float(c) for _, _, c in rows]
    assert all(0.0 <= v <= 1.0 for v in vals)


@pytest.mark.parametrize(
    "preset, assignment, error",
    [
        # both overflowed to inf in most rows of profile.csv, with exit 0
        ("godel", "metric.a=1e-310", "config error: metric: speed_sq = inf at r = 0.01, t = 0.0 is not finite"),
        ("alcubierre", "metric.vs_over_c=1e300", "config error: metric: speed_sq = inf at r = 4.0, t = 0.0 is not finite"),
    ],
)
def test_profile_overflow_exits_1_writing_nothing(tmp_path, capsys, preset, assignment, error):
    assert main(["profile", "--preset", preset, "--set", assignment, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.strip() == error
    assert not (tmp_path / "out").exists()


LATE_BUBBLE = ("--preset", "alcubierre", "--set", "metric.vs_over_c=1e160", "--set", "metric.x_s0=-1e160")


@pytest.mark.parametrize(
    "argv, error",
    [
        # these printed numpy's overflow warning and reported cell 0 as
        # ARCCOS_INFEASIBLE, exiting 2 with a synth_failure.json
        (["synth", "--preset", "godel", "--set", "metric.a=1e-310"], "metric: speed_sq = inf at r = 0.007421875, t = 0.0"),
        (["simulate", "--preset", "godel", "--set", "metric.a=1e-310"], "metric: speed_sq = inf at r = 0.007421875, t = 0.0"),
        (["synth", "--preset", "alcubierre", "--set", "metric.vs_over_c=1e300"], "metric: speed_sq = inf at r = 4.0234375, t = 0.0"),
        (["simulate", "--preset", "alcubierre", "--set", "metric.vs_over_c=1e300"], "metric: speed_sq = inf at r = 4.0234375, t = 0.0"),
        # these exited 0 with status-3 rows, and the fig1 boundary raised OverflowError
        (["feasibility", "--preset", "fig2", "--set", "metric.a=1e-310"], "metric: speed_sq = inf at r = 0.02, t = 0.0"),
        (["feasibility", "--preset", "fig1", "--set", "feasibility.vs_values=[0.5, 1e300]"],
         "feasibility.vs_values: entry 1e+300: speed_sq = inf at r = 0.0, t = 0.0"),
        (["raytrace", "--preset", "godel", "--set", "metric.a=1e-310"], "metric: speed_sq = inf at r = 0.000244140625"),
        # the bubble reaches the window only at the last time sample, which the error names
        (["synth", *LATE_BUBBLE, "--set", "synthesis.theta_dc_over_pi=0", "--set", "synthesis.time_samples=[0.0, 0.5, 1.0]"],
         "metric: speed_sq = inf at r = 0.0390625, t = 1.0 is not finite\n"),
        (["profile", *LATE_BUBBLE, "--set", "sampling.t=[0.0, 0.5, 1.0]"], "metric: speed_sq = inf at r = 0.0, t = 1.0 is not finite\n"),
    ],
)
def test_overflowing_profile_exits_1_writing_nothing(tmp_path, capsys, argv, error):
    # a warning would fail the test: pytest turns warnings into errors
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {error}")
    assert not (tmp_path / "out").exists()


def test_profile_bubble_translates_with_time(tmp_path):
    rc = main(["profile", "--preset", "alcubierre_superluminal", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "profile.csv")
    data = np.array([[float(a), float(b), float(c)] for a, b, c in rows])
    for t in np.unique(data[:, 1]):
        sub = data[data[:, 1] == t]
        plateau = sub[sub[:, 2] > 6.0, 0]  # sharp-wall interior, speed_sq = 6.25
        center = 0.5 * (plateau.min() + plateau.max())
        # profile sampling is in background units: center at x_s0 + vs * t
        assert abs(center - (6.0 + 1.5 * t)) < 0.15


def test_synth_flat_all_zero_ac(tmp_path):
    rc = main(["synth", "--preset", "flat", "--out", str(tmp_path)])
    assert rc == 0
    rows = cols(
        tmp_path / "program.csv",
        ("cell_index", "time_index", "r", "t", "theta_dc", "theta_ac", "theta_total", "ctilde_sq", "status"),
    )
    assert all(float(row[5]) == 0.0 for row in rows)
    assert all(row[8] == "0" for row in rows)
    summary = json.loads((tmp_path / "synth_summary.json").read_text())
    assert summary["feasible"] is True
    assert summary["status_counts"]["feasible"] == len(rows)


def test_synth_superluminal_feasible_with_deep_bias(tmp_path):
    rc = main(["synth", "--preset", "alcubierre_superluminal", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "program.csv")
    totals = np.array([float(r[6]) for r in rows])
    speeds = np.array([float(r[7]) for r in rows])
    inside = speeds > 6.0
    assert inside.any()
    assert np.all(np.abs(totals[inside]) < 0.09)  # bubble interior flux near zero
    summary = json.loads((tmp_path / "synth_summary.json").read_text())
    assert summary["background_c"] == pytest.approx(math.sqrt(math.cos(0.449 * math.pi)))


def test_synth_insufficient_bias_exits_2(tmp_path):
    rc = main([
        "synth", "--preset", "alcubierre_superluminal", "--out", str(tmp_path),
        "--set", "synthesis.theta_dc_over_pi=-0.40",
    ])
    assert rc == 2
    failure = json.loads((tmp_path / "synth_failure.json").read_text())
    assert failure["feasible"] is False
    assert failure["status"] == "arccos_infeasible"
    assert not (tmp_path / "program.csv").exists()


def test_synth_hot_cell_budget_exits_3(tmp_path):
    rc = main([
        "synth", "--preset", "kerr_theta0", "--out", str(tmp_path),
        "--set", "synthesis.coord_window=[0.0, 4.0]",
        "--set", "synthesis.n_cells=10",
        "--set", "synthesis.max_hot_cells=0",
    ])
    assert rc == 3
    failure = json.loads((tmp_path / "synth_failure.json").read_text())
    assert failure["hot_cells"] == 1


# kerr_theta0 over [0, 4] in 10 cells: cell 2 sits on the horizon r = M, where the total is exactly pi/2
HORIZON_CELL = ["--set", "synthesis.coord_window=[0.0,4.0]", "--set", "synthesis.n_cells=10"]


def test_synth_summary_counts_the_hot_cell_on_the_horizon(tmp_path):
    assert main(["synth", "--preset", "kerr_theta0", *HORIZON_CELL, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "synth_summary.json").read_text())
    assert summary["hot_cells_per_time"] == [1]


def test_hot_cell_is_the_cell_the_ladder_refuses_as_singular(tmp_path, capsys):
    # one guard defines both: the budgeted hot cell is singular to the ladder, not to the continuum
    argv = ["simulate", "--preset", "kerr_theta0", *HORIZON_CELL]
    assert main([*argv, "--set", "simulation.solver=ladder", "--out", str(tmp_path / "ladder")]) == 4
    cos = math.cos(math.pi / 2)
    assert capsys.readouterr().err == f"simulation failed: |cos theta| = {cos} < 1e-09 at cell 2\n"
    assert main([*argv, "--set", "simulation.solver=continuum", "--out", str(tmp_path / "continuum")]) == 0
    report = json.loads((tmp_path / "continuum" / "verification.json").read_text())
    assert report["passed"]
    assert report["solvers"]["continuum"]["max_rel_deviation"] == pytest.approx(0.0048, abs=5e-5)


def test_feasibility_fig1_boundary_values(tmp_path):
    rc = main(["feasibility", "--preset", "fig1", "--out", str(tmp_path)])
    assert rc == 0
    rows = cols(tmp_path / "boundary.csv", ("vs_over_c", "theta_dc_min"))
    got = {float(v): float(b) for v, b in rows}
    for vs in (0.5, 1.0, 1.5):
        assert got[vs] == pytest.approx(math.acos(1.0 / (1.0 + vs) ** 2), abs=1e-9)
    # scan statuses flip at the boundary for each velocity
    _, scan = read_csv(tmp_path / "feasibility.csv")
    data = np.array([[float(a), float(b), float(d)] for a, b, _, d, _ in scan])
    for vs in (0.5, 1.0, 1.5):
        sub = data[data[:, 0] == vs]
        infeasible = sub[:, 2] == 3.0
        feasible_dc = sub[~infeasible, 1]
        assert np.max(feasible_dc) <= -math.acos(1.0 / (1.0 + vs) ** 2) + 0.01


def test_feasibility_fig2_boundary_law(tmp_path):
    rc = main(["feasibility", "--preset", "fig2", "--out", str(tmp_path)])
    assert rc == 0
    rows = cols(tmp_path / "boundary.csv", ("theta_dc", "r_max_over_2a"))
    for dc_s, rmax_s in rows:
        dc, rmax = float(dc_s), float(rmax_s)
        assert rmax == pytest.approx(math.sqrt(1.0 / math.cos(dc) - 1.0), rel=1e-12)


def test_feasibility_without_figure_scans_the_configured_metric(tmp_path):
    argv = ["feasibility", "--preset", "godel", "--set", "feasibility.theta_dc_over_pi=[0.1,0.3]",
            "--set", 'feasibility.r={"start":0,"stop":3,"num":31}', "--out", str(tmp_path)]
    assert main(argv) == 0
    # a custom scan has no analytic boundary to write
    assert sorted(p.name for p in tmp_path.iterdir()) == ["feasibility.csv"]
    rows = cols(tmp_path / "feasibility.csv", ("param_1", "param_2", "r", "status_code", "theta_total_or_nan"))
    assert len(rows) == 2 * 31
    assert {row[0] for row in rows} == {"0"}  # one member, the metric itself
    for dc_over_pi in (0.1, 0.3):
        dc = dc_over_pi * math.pi
        scan = [(float(r), int(code)) for _, d, r, code, _ in rows if float(d) == dc]
        # godel with a = 1: feasible out to r = 2 r_max/(2a), arccos-infeasible beyond
        edge = 2.0 * godel_max_radius(dc)
        assert [code for _, code in scan] == [
            Status.FEASIBLE if r <= edge else Status.ARCCOS_INFEASIBLE for r, _ in scan
        ]


def test_feasibility_fig3_structure(tmp_path):
    rc = main(["feasibility", "--preset", "fig3", "--out", str(tmp_path)])
    assert rc == 0
    rows = cols(tmp_path / "boundary.csv", ("theta", "r_forbidden_low", "r_forbidden_high"))
    by_theta = {round(float(a), 6): (b, c) for a, b, c in rows}
    lo, hi = by_theta[round(math.pi / 4, 6)]
    assert float(lo) == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-9)
    assert float(hi) == pytest.approx(1 + 1 / math.sqrt(2), abs=1e-9)
    assert by_theta[0.0][0] == "nan"

    _, scan = read_csv(tmp_path / "feasibility.csv")
    data = np.array([[float(a), float(c), float(d)] for a, _, c, d, _ in scan])
    equatorial = data[np.isclose(data[:, 0], math.pi / 2)]
    band = equatorial[(equatorial[:, 1] > 1.0001) & (equatorial[:, 1] < 1.9999)]
    assert len(band) > 50
    assert np.all(band[:, 2] == 4.0)  # negative speed_sq status code


def test_simulate_flat_passes(tmp_path):
    rc = main(["simulate", "--preset", "flat", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["passed"] is True
    assert report["solvers"]["continuum"]["max_rel_deviation"] < 0.01
    header, rows = read_csv(tmp_path / "snapshots_continuum.csv")
    assert header == ["t", "r", "value"]
    assert len(rows) > 1000


def test_simulate_godel_preset_passes(tmp_path):
    rc = main(["simulate", "--preset", "godel", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["passed"] is True
    assert report["tolerance"] == 0.05
    assert report["background_c"] == pytest.approx(math.sqrt(math.cos(0.45 * math.pi)))


def test_simulate_runs_ladder_solver_too(tmp_path):
    rc = main(["simulate", "--preset", "flat", "--out", str(tmp_path),
               "--set", "simulation.solver=both"])
    assert rc == 0
    assert (tmp_path / "snapshots_ladder.csv").exists()
    report = json.loads((tmp_path / "verification.json").read_text())
    assert set(report["solvers"]) == {"continuum", "ladder"}


def test_verification_json_schema(tmp_path):
    # verification.json holds the report's dataclass fields, so a new field shows here
    argv = ["simulate", "--preset", "godel", "--set", "simulation.solver=both", "--out", str(tmp_path)]
    assert main(argv) == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    assert set(report) == {"background_c", "config_hash", "passed", "solvers", "speeds", "tolerance"}
    assert set(report["solvers"]) == {"continuum", "ladder"}
    grids = {"continuum": {"n_points", "dx", "dt", "snapshots"}, "ladder": {"n_cells", "pitch", "dt", "snapshots"}}
    for solver, grid in grids.items():
        res = report["solvers"][solver]
        assert set(res) == {
            "solver",
            "passed",
            "max_rel_deviation",
            "n_compared",
            "grid",
            "front_times",
            "front_positions",
            "ray_positions",
        }
        assert res["solver"] == solver
        assert set(res["grid"]) == grid
        for key in ("front_times", "front_positions", "ray_positions"):
            assert len(res[key]) == res["n_compared"]


def test_simulate_snapshot_csv_is_the_run_record(tmp_path):
    rc = main(["simulate", "--preset", "flat", "--out", str(tmp_path),
               "--set", "simulation.solver=both", "--set", "simulation.n_points=64"])
    # the verdict at this coarse grid is not the point here
    assert rc in (cli.EXIT_OK, cli.EXIT_SIMULATION)
    report = json.loads((tmp_path / "verification.json").read_text())
    for solver, spacing, points in (("continuum", "dx", 64), ("ladder", "pitch", 257)):
        grid = report["solvers"][solver]["grid"]
        rows = cols(tmp_path / f"snapshots_{solver}.csv", ("t", "r", "value"))
        assert len(rows) == grid["snapshots"] * points
        table = np.array(rows, dtype=float).reshape(grid["snapshots"], points, 3)
        # one block per snapshot: t constant within it, r the solver's grid in every block
        assert np.all(table[:, :, 0] == table[:, :1, 0])
        assert np.all(np.diff(table[:, 0, 0]) > 0)
        np.testing.assert_array_equal(table[:, :, 1], np.broadcast_to(np.arange(points) * grid[spacing], table.shape[:2]))


def test_spatially_varying_dc_rejected_at_config(tmp_path):
    rc = main(["synth", "--preset", "flat", "--out", str(tmp_path),
               "--set", "synthesis.theta_dc=[0.1, 0.2]"])
    assert rc == 1


def test_simulate_kerr_equatorial_refuses_before_simulation(tmp_path):
    rc = main(["simulate", "--preset", "kerr_pi2", "--out", str(tmp_path)])
    assert rc == 2
    assert (tmp_path / "synth_failure.json").exists()
    assert not (tmp_path / "verification.json").exists()
    assert not list(tmp_path.glob("snapshots_*.csv"))


def test_synth_and_simulate_write_one_failure_schema(tmp_path):
    assert main(["synth", "--preset", "kerr_pi2", "--out", str(tmp_path / "synth")]) == 2
    assert main(["simulate", "--preset", "kerr_pi2", "--out", str(tmp_path / "simulate")]) == 2
    synth, simulate = (
        json.loads((tmp_path / d / "synth_failure.json").read_text()) for d in ("synth", "simulate")
    )
    # the hashes differ only because --out is part of the config
    assert synth.pop("config_hash") != simulate.pop("config_hash")
    assert synth == simulate
    assert set(synth) == {"feasible", "reason", "cell", "time_index", "status"}


NEGATIVE_CELL = "synthesis failed at cell 0, time index 0: NEGATIVE_SPEED_SQ"
TWO_HOT_CELLS = "2 hot cells at time index 0, budget 1"


@pytest.mark.parametrize(
    "argv, code, stderr, failure",
    [
        (["synth", "--preset", "kerr_pi2"], 2, f"synthesis infeasible: {NEGATIVE_CELL}",
         {"reason": NEGATIVE_CELL, "cell": 0, "time_index": 0, "status": "negative_speed_sq"}),
        (["simulate", "--preset", "kerr_pi2"], 2, f"synthesis infeasible: {NEGATIVE_CELL}",
         {"reason": NEGATIVE_CELL, "cell": 0, "time_index": 0, "status": "negative_speed_sq"}),
        (["synth", "--preset", "kerr_theta0", "--set", "synthesis.n_cells=200"], 3,
         f"hot-cell budget exceeded: {TWO_HOT_CELLS}",
         {"reason": TWO_HOT_CELLS, "time_index": 0, "hot_cells": 2, "budget": 1}),
    ],
)
def test_synthesis_failure_writes_its_artifact_and_exits_through_failures(tmp_path, capsys, argv, code, stderr, failure):
    assert main([*argv, "--out", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    # the artifact is announced as every other one is; the refusal goes to stderr with its FAILURES prefix
    assert out == f"wrote {tmp_path / 'synth_failure.json'}\n"
    assert err == f"{stderr}\n"
    written = json.loads((tmp_path / "synth_failure.json").read_text())
    assert written.pop("config_hash")
    assert written == {"feasible": False, **failure}
    assert [p.name for p in tmp_path.iterdir()] == ["synth_failure.json"]


@pytest.mark.parametrize(
    "command, preset, block",
    [("profile", "fig1", "sampling"), ("feasibility", "godel", "feasibility"),
     ("simulate", "fig1", "simulation"), ("raytrace", "fig2", "rays")],
)
def test_command_without_its_block_exits_1(tmp_path, capsys, command, preset, block):
    assert main([command, "--preset", preset, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {block}: required block for the {command} command\n"
    assert not (tmp_path / "out").exists()


def test_simulate_reads_a_tabulated_table_once(tmp_path, monkeypatch):
    reads = []

    def counting_read(path):
        reads.append(path)
        return read_table_csv(path)

    monkeypatch.setattr(config, "read_table_csv", counting_read)
    table = tmp_path / "table.csv"
    # negative everywhere: synthesis refuses, after the one read
    table.write_text("r,ctilde_sq\n0.0,-1.0\n10.0,-1.0\n")
    doc = {
        "metric": {"kind": "tabulated", "csv_path": str(table)},
        "synthesis": {"coord_window": [0.0, 10.0], "n_cells": 64},
        "simulation": {"n_points": 200, "t_end": 3.0, "pulse": {"center": 1.0, "width": 0.3}},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert reads == [str(table)]


def test_raytrace_flat_straight_line(tmp_path):
    rc = main(["raytrace", "--preset", "flat", "--out", str(tmp_path)])
    assert rc == 0
    rows = cols(tmp_path / "rays.csv", ("launch_index", "direction", "t", "r", "status"))
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[2]), abs=1e-9)
        assert row[4] == "completed"


def test_raytrace_godel_sinh(tmp_path):
    rc = main(["raytrace", "--preset", "godel", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "rays.csv")
    t_last, r_last = float(rows[-1][2]), float(rows[-1][3])
    assert r_last == pytest.approx(2.0 * math.sinh(t_last / 2.0), rel=1e-6)


def test_config_error_exits_1(tmp_path):
    rc = main(["synth", "--preset", "flat", "--out", str(tmp_path), "--set", "metric.bogus=1"])
    assert rc == 1


def test_missing_source_exits_1():
    assert main(["synth"]) == 1


# a width whose 2 width^2 overflows once raised OverflowError, and a subnormal one a
# numpy RuntimeWarning; 1.5e-154 passes that check but overflows the exponent far out
@pytest.mark.parametrize("width", ["1e-300", "1e-160", "1.5e-154", "1e-153", "1e154", "1e155", "1e300"])
def test_extreme_pulse_width_exits_with_one_line(tmp_path, capsys, width):
    argv = ["simulate", "--preset", "flat", "--set", "simulation.solver=both", "--set", f"simulation.pulse.width={width}"]
    code = main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (1, 4)
    assert len(err.splitlines()) == 1
    if code == 1:
        assert err.startswith("config error: simulation.pulse.width: ")
        assert not (tmp_path / "out").exists()


# sup speed_sq of about 1.6e308 on the window: the sum of two node speeds
# squared overflows the continuum's face average (a numpy RuntimeWarning).
# The fault is the window's, and the message once named synthesis.c0, a key
# the document never set
@pytest.mark.parametrize("solver", ["continuum", "ladder"])
def test_simulate_refuses_a_window_whose_face_average_overflows(tmp_path, capsys, solver):
    argv = ["simulate", "--preset", "godel", "--set", "metric.a=1.5e-154", "--set", "synthesis.theta_dc_over_pi=0"]
    assert main([*argv, "--set", f"simulation.solver={solver}", "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("config error: synthesis.coord_window: 2 * background_c**2 * sup speed_sq")
    assert len(err.splitlines()) == 1
    assert out == ""
    assert not (tmp_path / "out").exists()


# windows whose steps the solvers cannot evaluate: dx**2 and dt**2 overflowed in the
# continuum solver (OverflowError) and L0 = pitch**2 overflowed in the ladder (exit 4);
# a subnormal dx raised a numpy RuntimeWarning in the continuum solver and L0 underflowed
# in the ladder (exit 4). On godel with a = 1e-153 only dt**2 is subnormal, the speed
# being about 1e153: that run went on to synthesis and exited 2
@pytest.mark.parametrize("solver", ["continuum", "ladder"])
@pytest.mark.parametrize(
    "preset, assignments",
    [
        ("flat", ["synthesis.coord_window=[0,1e160]"]),
        ("flat", ["synthesis.coord_window=[0,1e-200]", "simulation.pulse.center=0"]),
        ("godel", ["metric.a=1e-153"]),
    ],
    ids=["overflow", "underflow", "dt_underflow"],
)
def test_simulate_refuses_a_window_whose_steps_the_solvers_cannot_evaluate(tmp_path, capsys, preset, assignments, solver):
    assignments = [*assignments, f"simulation.solver={solver}"]
    argv = ["simulate", "--preset", preset, *(arg for a in assignments for arg in ("--set", a))]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("config error: synthesis.coord_window: ") and len(err.splitlines()) == 1
    assert out == ""
    assert not (tmp_path / "out").exists()


# a negative speed once traced a ray against its launch direction, and 0 one that never moved
@pytest.mark.parametrize("background_c", ["-1", "0"])
def test_raytrace_refuses_a_background_speed_that_is_not_positive(tmp_path, capsys, background_c):
    argv = ["raytrace", "--preset", "godel", "--set", f"rays.background_c={background_c}"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: rays.background_c: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        # each of these once exited 0 or 4 and wrote NaN artifacts
        (["synth", "--preset", "godel", "--set", "synthesis.theta_dc_over_pi=NaN"], "synthesis.theta_dc_over_pi"),
        (["synth", "--preset", "godel", "--set", "metric.a=Infinity"], "metric.a"),
        (["simulate", "--preset", "godel", "--set", "simulation.tolerance=NaN"], "simulation.tolerance"),
        (["profile", "--preset", "alcubierre", "--set", "metric.x_s0=-Infinity"], "metric.x_s0"),
        (["profile", "--preset", "godel", "--set", "metric.valid_range=[0, Infinity]"], "metric.valid_range"),
        (["profile", "--preset", "godel", "--set", "sampling.r=[0, NaN]"], "sampling.r"),
    ],
)
def test_non_finite_config_value_exits_1_naming_field(tmp_path, capsys, argv, field):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "launch, field",
    [
        # 5e9 RK4 steps: once validated and ran until killed
        ({"r0": 0, "t_end": 5, "dt": 1e-9}, "rays.launches[0].dt"),
        # once exited 1 from the tracer, without a field path
        ({"r0": 0, "t_end": 5, "dt": -1}, "rays.launches[0].dt"),
        ({"r0": 0, "t0": 5, "t_end": 5}, "rays.launches[0].t_end"),
        # t_end - t0 overflows, and so would the default dt
        ({"r0": 0, "t0": -1e308, "t_end": 1e308}, "rays.launches[0].t_end"),
    ],
)
def test_unbounded_ray_launch_exits_1_naming_field(tmp_path, capsys, launch, field):
    argv = ["raytrace", "--preset", "flat", "--set", f"rays.launches={json.dumps([launch])}"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        # t_end = 1e9 once ran until it was killed
        (["simulation.t_end=1e9"], "simulation.t_end"),
        (["simulation.t_end=1e9", "simulation.solver=ladder"], "simulation.t_end"),
        (["simulation.t_end=1e308", "simulation.solver=ladder"], "simulation.t_end"),
        # past the snapshot bound, which names the grid whose values a snapshot holds
        (["simulation.n_points=60000", "simulation.t_end=0.3"], "simulation.n_points"),
        (["synthesis.n_cells=60000", "simulation.t_end=0.25", "simulation.solver=ladder"], "synthesis.n_cells"),
    ],
)
def test_unbounded_simulation_exits_1_naming_field(tmp_path, capsys, overrides, field):
    argv = ["simulate", "--preset", "godel", *(a for o in overrides for a in ("--set", o))]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        # validated, then stepped 2e5 steps x 1e5 points: about 1,000 s
        (["simulation.n_points=100000"], "simulation.n_points"),
        (["simulation.solver=ladder", "synthesis.n_cells=100000"], "synthesis.n_cells"),
    ],
)
def test_run_beyond_cell_step_budget_exits_1_naming_grid(tmp_path, capsys, overrides, field):
    argv = ["simulate", "--preset", "godel", *(a for o in overrides for a in ("--set", o))]
    start = time.perf_counter()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")
    assert f"exceed the limit of {MAX_CELL_STEPS}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        # finite endpoints whose span overflows: each exited 0 and wrote inf or nan cells
        (["profile", "--preset", "flat", "--set", 'sampling.r={"start": -1e308, "stop": 1e308, "num": 3}'],
         "sampling.r: "),
        (["synth", "--preset", "flat", "--set", "synthesis.coord_window=[-1e308, 1e308]",
          "--set", "synthesis.n_cells=4"], "synthesis.coord_window: "),
        (["feasibility", "--preset", "fig2", "--set", "feasibility.theta_dc_over_pi=[1e308]",
          "--set", "feasibility.r=[0.0, 1.0]"], "feasibility.theta_dc_over_pi: "),
        # grid sizes: refused before anything of that size is allocated
        (["simulate", "--preset", "godel", "--set", "simulation.n_points=8"], "simulation.n_points: "),
        (["simulate", "--preset", "godel", "--set", "simulation.n_points=100000000"], "simulation.n_points: "),
        (["profile", "--preset", "godel", "--set", "sampling.r.num=1000000000"], "sampling.r.num: "),
        (["synth", "--preset", "godel", "--set", "synthesis.n_cells=2000000"], "synthesis.n_cells: "),
        # refused by the step bound, which names the grid that sets dt
        (["simulate", "--preset", "godel", "--set", "simulation.n_points=1000000"],
         "simulation.t_end: t_end / dt = 1.9666e+06 steps (dt = 2.23737e-06, set by simulation.n_points)"),
        (["simulate", "--preset", "godel", "--set", "simulation.n_points=100000", "--set", "simulation.t_end=0.1"],
         "simulation.n_points: 161 snapshots of 100000 values exceed the limit of 8388608 values\n"),
        # the ladder's bounds, checked on t_end / dt before its step count is rounded up
        (["simulate", "--preset", "godel", "--set", "simulation.solver=ladder", "--set", "simulation.t_end=1e6"],
         "simulation.t_end: t_end / dt = 1.34737e+08 steps (dt = 0.00742187, set by synthesis.n_cells)"
         " exceeds the limit of 1048576\n"),
        (["simulate", "--preset", "godel", "--set", "simulation.solver=ladder", "--set", "simulation.t_end=1e308"],
         "simulation.t_end: t_end / dt = inf steps (dt = 0.00742187, set by synthesis.n_cells)"
         " exceeds the limit of 1048576\n"),
        (["simulate", "--preset", "godel", "--set", "simulation.solver=ladder", "--set", "synthesis.n_cells=60000",
          "--set", "simulation.t_end=0.25"],
         "synthesis.n_cells: 163 snapshots of 60001 values exceed the limit of 8388608 values\n"),
        # outside the profile's range or the window: each was refused only by the library, naming no field,
        # and the pulse ran to exit 4 with an identically zero field
        (["synth", "--preset", "kerr_pi4", "--set", "synthesis.coord_window=[-1,2]"],
         "synthesis.coord_window: [-1.0, 2.0] not contained in profile range [0.0, inf]\n"),
        (["raytrace", "--preset", "kerr_pi4", "--set", 'rays.launches=[{"r0":-1,"t_end":1}]'],
         "rays.launches[0].r0: -1.0 outside profile range [0.0, inf]\n"),
        (["simulate", "--preset", "godel", "--set", "simulation.pulse.center=50"],
         "simulation.pulse.center: 50.0 outside synthesis.coord_window [0.0, 3.8]\n"),
    ],
)
def test_unbounded_or_non_finite_grid_exits_1_naming_field(tmp_path, capsys, argv, error):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {error}")
    assert not (tmp_path / "out").exists()


# the presets whose program synthesizes, so that simulate runs both solvers
SIMULATED = ("flat", "godel", "alcubierre", "alcubierre_superluminal", "kerr_theta0", "kerr_pi4")


def bounded_runs(monkeypatch):
    """{solver: (snapshot count, points, grid field)} of each run that _check_work lets through, as it bounded them."""
    bounded = {}
    check = verify._check_work

    def record(spec, solver, points, grid):
        steps, stride = check(spec, solver, points, grid)
        name = "continuum" if grid == "simulation.n_points" else "ladder"
        bounded[name] = (snapshot_count(steps, stride), points, grid)
        return steps, stride

    monkeypatch.setattr(verify, "_check_work", record)
    return bounded


@pytest.mark.parametrize("preset", SIMULATED)
def test_each_run_records_the_snapshot_count_it_was_bounded_by(tmp_path, monkeypatch, preset):
    bounded = bounded_runs(monkeypatch)
    assert main(["simulate", "--preset", preset, "--set", "simulation.solver=both", "--out", str(tmp_path)]) in (0, 4)
    solvers = json.loads((tmp_path / "verification.json").read_text())["solvers"]
    assert {name: result["grid"]["snapshots"] for name, result in solvers.items()} == {
        name: count for name, (count, *_) in bounded.items()
    }


# godel's continuum takes 1374 steps at the derived stride 9, 154 levels; the
# kerr_theta0 ladder 960 at stride 6, which divides them, where an estimate of
# steps // stride + 2 counted the last level twice
@pytest.mark.parametrize("preset, solver", [("godel", "continuum"), ("kerr_theta0", "ladder")])
def test_snapshot_bound_is_the_exact_count_of_values(tmp_path, capsys, monkeypatch, preset, solver):
    argv = ["simulate", "--preset", preset, "--set", f"simulation.solver={solver}"]
    bounded = bounded_runs(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "first")]) == 0
    count, points, grid = bounded[solver]
    assert count == {"godel": 154, "kerr_theta0": 161}[preset]
    monkeypatch.setattr(verify, "MAX_SNAPSHOT_VALUES", count * points)
    assert main([*argv, "--out", str(tmp_path / "at")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(verify, "MAX_SNAPSHOT_VALUES", count * points - 1)
    assert main([*argv, "--out", str(tmp_path / "below")]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: {grid}: {count} snapshots of {points} values exceed the limit"
    )
    assert not (tmp_path / "below").exists()


@pytest.mark.parametrize(
    "preset, key, field",
    [
        ("fig1", "vs_values", "vs_values"),
        ("fig1", "theta_dc_over_pi", "theta_dc"),
        ("fig2", "r", "r"),
        ("fig3", "theta_values_over_pi", "theta_values"),
    ],
)
def test_feasibility_scan_names_a_missing_grid(tmp_path, capsys, preset, key, field):
    doc = json.loads(json.dumps(PRESETS[preset]))
    del doc["feasibility"][key]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["feasibility", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: feasibility.{field}: ")


@pytest.mark.parametrize(
    "preset, assignment, error",
    [
        # each entry builds one family member; its refusal once named only the
        # profile parameter, not the feasibility field the entry came from
        ("fig1", "feasibility.vs_values=[0.5, -1]", "feasibility.vs_values: entry -1.0: vs_over_c must be >= 0"),
        ("fig3", "feasibility.theta_values_over_pi=[0.25, 0.75]",
         f"feasibility.theta_values: entry {0.75 * math.pi!r}: theta must lie in [0, pi/2]"),
    ],
)
def test_feasibility_family_entry_exits_1_naming_field(tmp_path, capsys, preset, assignment, error):
    assert main(["feasibility", "--preset", preset, "--set", assignment, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.strip() == f"config error: {error}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset, kind", [("fig1", "alcubierre"), ("fig2", "godel"), ("fig3", "kerr_extreme")])
def test_feasibility_figure_on_another_metric_kind_exits_1(tmp_path, capsys, preset, kind):
    rc = main(["feasibility", "--preset", preset, "--set", 'metric={"kind": "flat"}', "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"config error: metric.kind: {preset} needs {kind!r}, got 'flat'"
    assert not (tmp_path / "out").exists()


def test_feasibility_theta_values_in_radians_match_units_of_pi(tmp_path):
    doc = json.loads(json.dumps(PRESETS["fig3"]))
    doc["feasibility"]["theta_values"] = [x * math.pi for x in doc["feasibility"].pop("theta_values_over_pi")]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["feasibility", "--preset", "fig3", "--out", str(tmp_path / "pi")]) == 0
    assert main(["feasibility", "--config", str(cfg), "--out", str(tmp_path / "rad")]) == 0
    for name in ("feasibility.csv", "boundary.csv"):
        # line 0 is the config hash, which differs
        pi = (tmp_path / "pi" / name).read_text().splitlines()[1:]
        assert (tmp_path / "rad" / name).read_text().splitlines()[1:] == pi


BAD_TABLES = {
    "nan": "r,ctilde_sq\n0.0,1.0\n1.0,nan\n",
    "three_columns": "r,ctilde_sq\n0.0,1.0\n1.0,2.0,3.0\n",
    "late_header": "0.0,1.0\nr,ctilde_sq\n1.0,2.0\n",
    "one_row": "# a comment\nr,ctilde_sq\n0.0,1.0\n",
}


@pytest.mark.parametrize("table", ["missing", "directory", *BAD_TABLES])
def test_unreadable_tabulated_table_exits_1_at_validation(tmp_path, capsys, table):
    csv = tmp_path / "table.csv"
    if table == "directory":
        csv.mkdir()
    elif table in BAD_TABLES:
        csv.write_text(BAD_TABLES[table])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"metric": {"kind": "tabulated", "csv_path": str(csv)},
                               "sampling": {"r": [0.0, 0.5]}}))
    assert main(["profile", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: metric.csv_path: ")
    assert not (tmp_path / "out").exists()


def test_tabulated_range_refusals_name_their_field(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("r,ctilde_sq\n0.0,1.0\n2.0,1.5\n")
    metric = json.dumps({"kind": "tabulated", "csv_path": str(table)})
    for assignment, error in [
        ("sampling.r=[0.0, 3.0]", "sampling.r: tabulated profile evaluated outside [0.0, 2.0]"),
        ("synthesis.coord_window=[0.0, 3.0]", "synthesis.coord_window: [0.0, 3.0] not contained in profile range [0.0, 2.0]"),
    ]:
        # the flat preset's window, launch and pulse centre lie inside the table's [0, 2] once the window is
        argv = ["profile", "--preset", "flat", "--set", f"metric={metric}", "--set", "synthesis.coord_window=[0.0, 2.0]"]
        assert main([*argv, "--set", assignment, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not (tmp_path / "out").exists()
    # an analytic profile is sampled outside its valid_range
    assert main(["profile", "--preset", "kerr_pi4", "--set", "sampling.r=[-1,1]", "--out", str(tmp_path / "out")]) == 0


def test_custom_scan_past_a_tabulated_table_names_feasibility_r(tmp_path, capsys):
    # once "config error: tabulated profile evaluated outside [0.0, 2.0]", naming no field
    table = tmp_path / "table.csv"
    table.write_text("r,ctilde_sq\n0.0,1.0\n2.0,1.5\n")
    metric = json.dumps({"kind": "tabulated", "csv_path": str(table)})
    scan = json.dumps({"theta_dc": [0.1], "r": [0.0, 3.0]})
    argv = ["feasibility", "--preset", "flat", "--set", f"metric={metric}", "--set", "synthesis.coord_window=[0.0, 2.0]"]
    assert main([*argv, "--set", f"feasibility={scan}", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "config error: feasibility.r: tabulated profile evaluated outside [0.0, 2.0]\n"
    assert not (tmp_path / "out").exists()


def test_front_threshold_cannot_turn_a_failing_verdict_into_a_pass(tmp_path, capsys):
    # this run fails at the fixed threshold (exit 4); at 0.01 it once exited 0
    argv = ["simulate", "--preset", "alcubierre_superluminal", "--set", "simulation.solver=both"]
    assert main([*argv, "--set", "simulation.front_threshold=0.01", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: simulation: unknown keys ['front_threshold']; ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "preset, r0, extra, error",
    [
        # Sigma = r^2 + (M cos theta)^2 underflowed to 0 at r = 0: an
        # uncaught ZeroDivisionError (and NaN rows with exit 0 before that)
        ("kerr_theta0", 0, ["--set", "metric.mass_M=1e-200"], "config error: metric.mass_M: "),
        # far out the profile overflows; these wrote inf and nan rows with
        # status completed and exit 0
        ("godel", 1e200, [], "config error: metric: speed_sq = inf at r = 1e+200"),
        ("kerr_theta0", 1e200, [], "config error: metric: speed_sq = nan at r = 1e+200"),
    ],
)
def test_non_finite_ray_speed_exits_1(tmp_path, capsys, preset, r0, extra, error):
    launch = json.dumps([{"r0": r0, "t_end": 1}])
    argv = ["raytrace", "--preset", preset, "--set", f"rays.launches={launch}", *extra]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(error)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (ConfigError("metric.a", "must be > 0"), 1, "config error"),
        (HotCellBudgetExceeded(0, 2, 1), 3, "hot-cell budget exceeded"),
        (SynthesisFailed(4, 0, Status.NEGATIVE_SPEED_SQ), 2, "synthesis infeasible"),
        (NegativeSpeedSquared("speed_sq = -1 < 0"), 2, "synthesis infeasible"),
        (ArccosInfeasible("arccos argument 2 > 1"), 2, "synthesis infeasible"),
        (WindowViolation("total flux angle at pi/2", theta_total=math.pi / 2), 2, "synthesis infeasible"),
        (CflViolation("dt too large"), 4, "simulation failed"),
        (StabilityViolation("dt too large"), 4, "simulation failed"),
        (SingularInductance("cos(theta) = 0"), 4, "simulation failed"),
        (FrontNotFound("no front"), 4, "simulation failed"),
        (ProfileDomainError("r outside range"), 1, "config error"),
        (ProfileEvaluationError("speed_sq = nan"), 1, "config error: metric"),
        (ValueError("bad value"), 1, "config error"),
    ],
)
def test_failure_maps_to_exit_code_and_stderr_prefix(monkeypatch, capsys, tmp_path, exc, code, prefix):
    def fail(run):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "profile", (fail, "raise", None))
    assert main(["profile", "--preset", "flat", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"{prefix}: {exc}\n"


def test_unmapped_failure_propagates(monkeypatch, tmp_path):
    def fail(run):
        raise ZeroDivisionError("not a documented failure")

    monkeypatch.setitem(cli.COMMANDS, "profile", (fail, "raise", None))
    with pytest.raises(ZeroDivisionError):
        main(["profile", "--preset", "flat", "--out", str(tmp_path)])


def test_commands_deterministic_and_idempotent(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--preset", "godel", "--out", str(a)]) == 0
    assert main(["synth", "--preset", "godel", "--out", str(b)]) == 0
    ca = (a / "program.csv").read_text()
    cb = (b / "program.csv").read_text()
    # the hash line differs (the directory override is part of the config);
    # every data byte must match
    assert ca.splitlines()[1:] == cb.splitlines()[1:]
    assert main(["synth", "--preset", "godel", "--out", str(a)]) == 0
    assert (a / "program.csv").read_text() == ca


def test_simulate_writes_the_same_bytes_on_one_and_two_cpus(tmp_path, monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    # the CPU sets below are pretended: place this process on none of them
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    digests = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        argv = ["simulate", "--preset", "alcubierre", "--set", "simulation.solver=both", "--out", str(tmp_path)]
        assert main(argv) == 0
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()})
    assert digests[0] == digests[1]
    assert {"snapshots_continuum.csv", "snapshots_ladder.csv"} <= set(digests[0])
    # no fork on one CPU; on two, the continuum snapshot CSV forks one child, and the
    # ladder's 513 x 155 rows hold fewer cells than _Units.MIN_CELL_CHUNKS chunks do
    assert len(forks) == 1


def on_two_cpus(monkeypatch) -> list:
    """Pretend a two-CPU affinity set, placing this process on none of it; returns the forks."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    return forks


def test_simulate_prints_wrote_for_files_in_place_in_order(tmp_path, monkeypatch):
    on_two_cpus(monkeypatch)
    printed = []

    def recorded_print(*args, **kwargs):
        line = " ".join(map(str, args))
        if line.startswith("wrote "):
            path = Path(line[len("wrote "):])
            printed.append((path.name, path.is_file(), sorted(p.name for p in path.parent.iterdir())))

    monkeypatch.setattr(cli, "print", recorded_print, raising=False)
    argv = ["simulate", "--preset", "alcubierre", "--set", "simulation.solver=both", "--out", str(tmp_path)]
    assert main(argv) == 0
    csvs = ["snapshots_continuum.csv", "snapshots_ladder.csv"]
    # both snapshot CSVs are in place, with no temporary or part file beside them, before either is named
    assert printed == [
        ("snapshots_continuum.csv", True, csvs),
        ("snapshots_ladder.csv", True, csvs),
        ("verification.json", True, [*csvs, "verification.json"]),
    ]


def test_simulate_failing_after_a_queued_snapshot_csv_writes_no_snapshot(tmp_path, monkeypatch, capsys):
    forks = on_two_cpus(monkeypatch)

    def singular(*args):
        raise SingularInductance("a cell sits at the pi/2 window")

    monkeypatch.setattr(verify, "_run_ladder", singular)
    # the forks made when each solver's ray oracle starts
    forks_at_ray, oracle = [], verify.oracle_positions
    monkeypatch.setattr(verify, "oracle_positions", lambda *a, **k: forks_at_ray.append(len(forks)) or oracle(*a, **k))
    argv = ["simulate", "--preset", "alcubierre", "--set", "simulation.solver=both", "--out", str(tmp_path)]
    assert main(argv) == 4
    # the continuum snapshot CSV was queued, with one helper, before its ray oracle ran
    assert forks_at_ray == [1] and len(forks) == 1
    # no snapshots_*.csv, .part or .tmp file, and no helper left
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "simulation failed: a cell sits at the pi/2 window\n"


def test_output_files_carry_config_hash(tmp_path):
    assert main(["synth", "--preset", "flat", "--out", str(tmp_path)]) == 0
    first = (tmp_path / "program.csv").read_text().splitlines()[0]
    assert first.startswith("# config_hash=")
    summary = json.loads((tmp_path / "synth_summary.json").read_text())
    assert summary["config_hash"] == first.split("=", 1)[1]
