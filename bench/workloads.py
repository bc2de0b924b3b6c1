"""The benchmark's workloads: which CLI commands each one runs, from a seed.

A seed perturbs only inputs that leave every count unchanged: the pulse
centre of a simulation (by at most 2% of the pulse width; not for
alcubierre_superluminal, see build), the endpoints of a feasibility scan
grid, and the end of a synthesis time grid. Grid sizes,
presets and tolerances are never touched, so rows written, ray steps and
solver cell-steps are the same for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

PROGRAM_COLUMNS = (
    "cell_index", "time_index", "r", "t", "theta_dc", "theta_ac",
    "theta_total", "ctilde_sq", "status",
)
FEASIBILITY_COLUMNS = ("param_1", "param_2", "r", "status_code", "theta_total_or_nan")
SNAPSHOT_COLUMNS = ("t", "r", "value")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its artifacts must look like.

    kind selects the artifact check (simulate, feasibility or synth);
    expect holds the sizes the command's grid implies; group is the command
    group (see GROUPS) the command belongs to.
    """

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    group: str = ""

    @property
    def label(self) -> str:
        return f"{self.argv[0]}:{self.argv[2]}"


def _set(key: str, value) -> tuple[str, str]:
    return ("--set", f"{key}={json.dumps(value)}")


def _grid(start: float, stop: float, num: int) -> dict:
    return {"start": start, "stop": stop, "num": num}


# preset -> (pulse centre, pulse width, continuum n_points, ladder n_cells,
# continuum snapshots, ladder snapshots), as the presets configure and
# produce them; the check compares them with verification.json and the CSVs
SIMULATE_PRESETS = {
    "godel": (0.4, 0.12, 700, 256, 154, 150),
    "kerr_pi4": (2.3, 0.08, 900, 100, 160, 168),
    "alcubierre": (6.0, 0.35, 800, 512, 166, 155),
    "alcubierre_superluminal": (6.0, 0.35, 900, 512, 136, 155),
}


def _simulate(preset: str, rng: random.Random, jitter: float = 0.02) -> Command:
    centre, width, n_points, n_cells, continuum_snaps, ladder_snaps = SIMULATE_PRESETS[preset]
    shifted = centre + rng.uniform(-jitter, jitter) * width
    argv = (
        "simulate", "--preset", preset,
        "--set", "simulation.solver=both",
        *_set("simulation.pulse.center", shifted),
    )
    # solver -> (values per snapshot, snapshots); the ladder writes one
    # voltage per node, n_cells + 1 of them
    expect = {"continuum": (n_points, continuum_snaps), "ladder": (n_cells + 1, ladder_snaps)}
    return Command("simulate", argv, expect)


def _scan_fig2(rng: random.Random) -> Command:
    dc = _grid(0.01 + rng.uniform(0, 1e-3), 0.49 - rng.uniform(0, 1e-3), 256)
    r = _grid(0.0, 6.0 + rng.uniform(-1e-3, 1e-3), 1001)
    argv = (
        "feasibility", "--preset", "fig2",
        *_set("feasibility.theta_dc_over_pi", dc),
        *_set("feasibility.r", r),
    )
    expect = {
        "feasibility.csv": (FEASIBILITY_COLUMNS, 1 * 256 * 1001),
        "boundary.csv": (("theta_dc", "r_max_over_2a"), 400),
    }
    return Command("feasibility", argv, expect)


def _scan_fig1(rng: random.Random) -> Command:
    r = _grid(-3.0 + rng.uniform(0, 1e-3), 3.0 - rng.uniform(0, 1e-3), 161)
    argv = ("feasibility", "--preset", "fig1", *_set("feasibility.r", r))
    # three bubble speeds x the preset's 512 theta_dc samples x 161 radii
    expect = {
        "feasibility.csv": (FEASIBILITY_COLUMNS, 3 * 512 * 161),
        "boundary.csv": (("vs_over_c", "theta_dc_min"), 3),
    }
    return Command("feasibility", argv, expect)


def _synth(rng: random.Random) -> Command:
    times = _grid(0.0, 20.0 + rng.uniform(-0.05, 0.05), 64)
    argv = ("synth", "--preset", "alcubierre", *_set("synthesis.time_samples", times))
    return Command("synth", argv, {"n_cells": 512, "n_times": 64})


GROUPS = ("verify_static", "verify_moving", "scan_dense", "synth_moving")
# The benchmark's workloads pair the groups so that each optimisation in
# sight has a workload that exercises it and one that bypasses it: the
# static-profile ray oracle and per-row theta_total run only in
# static_synth, the moving-profile solvers and FeasibilityReport.rows only in
# moving_scan. Two long workloads rather than four short ones, because the
# speed of a shared host drifts over seconds and minutes, and longer runs
# hold more samples within the same total benchmark time.
WORKLOADS = {
    "static_synth": ("verify_static", "synth_moving"),
    "moving_scan": ("verify_moving", "scan_dense"),
}


def _group(name: str, rng: random.Random) -> tuple[Command, ...]:
    if name == "verify_static":
        # static profiles: snapshot CSV emission and the fixed-step scalar
        # RK4 ray oracle dominate
        return (_simulate("godel", rng), _simulate("kerr_pi4", rng))
    if name == "verify_moving":
        # moving bubble: both solvers re-evaluate the profile every step,
        # while the ray oracle stays RK4.
        # The superluminal ladder deviation (0.056) sits 12% above the 0.05
        # tolerance, and a pulse shift of 2% of its width can bring it under;
        # its input stays the preset's so the failure it records is the preset's
        return (_simulate("alcubierre", rng), _simulate("alcubierre_superluminal", rng, jitter=0.0))
    if name == "scan_dense":
        # 503,552 scan rows and no solver work: FeasibilityReport.rows and
        # CSV formatting take the time
        return (_scan_fig2(rng), _scan_fig1(rng))
    if name == "synth_moving":
        # 32,768 program rows, each reading theta_total, which rebuilds the
        # whole program array: cost grows with rows squared
        return (_synth(rng),)
    raise KeyError(f"unknown workload {name!r}; have {sorted(WORKLOADS) + sorted(GROUPS)}")


def build(name: str, seed: int) -> tuple[Command, ...]:
    """The commands of a workload or of one group; same seed, same commands.

    A group gets the same inputs whether it runs alone or in a workload.
    """
    return tuple(
        replace(cmd, group=group)
        for group in WORKLOADS.get(name, (name,))
        for cmd in _group(group, random.Random(f"{group}:{seed}"))
    )
