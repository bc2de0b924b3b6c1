"""Print the sha256 of every artifact each CLI command writes on each preset.

Usage, from any directory:

    python tools/preset_hashes.py

Runs profile, synth, synth over the benchmark's 64 time samples
(synth-moving), synth over [0, 4] in 10 cells, with a hot cell on
kerr_theta0 and fig3 (synth-horizon), feasibility, feasibility over the
benchmark's 161 radii (feasibility-dense), feasibility over two DC angles
and 31 radii, a scan of the configured metric on every preset without a
figure (feasibility-custom), raytrace, raytrace of three launches into one
file (raytrace-multi), simulate, simulate with simulation.solver=both,
simulate with both solvers and simulation.boundary=reflecting
(simulate-reflecting), and simulate with both solvers over [0, 4] in 102
cells, with a hot cell on kerr_theta0 (simulate-horizon), on every preset,
in-process through fluxline.cli.main from this checkout's src/. Each run
writes to out/preset_hashes/<run> under the checkout root. --out enters the
config hash that every artifact carries, so the path is the same relative
path on every tree, and the tables that two checkouts print compare line by
line.

Prints one markdown row per artifact: run, exit code, the first line the
run printed on stderr (its refusal, if any), file, sha256 and, on a
verification.json row, each solver's max_rel_deviation (%.6g), so a
by-design byte change shows how far it moved each verdict, and a moved
refusal message shows too. A run that writes nothing, and every other
artifact, prints "-" where it has no value.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path("out") / "preset_hashes"
RUNS = (
    ("profile", ()),
    ("synth", ()),
    # every preset's own synth writes one time sample; this run writes a (cell, time) table
    ("synth-moving", ("--set", 'synthesis.time_samples={"start":0,"stop":20,"num":64}')),
    # on kerr_theta0 and fig3 cell 2 sits on the horizon r = M: a hot cell, within the budget of 1
    ("synth-horizon", ("--set", "synthesis.coord_window=[0.0,4.0]", "--set", "synthesis.n_cells=10")),
    ("feasibility", ()),
    # the preset fig1 scans one r; this run writes the benchmark's fig1 grid of 161 radii per block
    ("feasibility-dense", ("--set", 'feasibility.r={"start":-3,"stop":3,"num":161}')),
    # a scan of the configured metric, which writes no boundary.csv
    (
        "feasibility-custom",
        ("--set", "feasibility.theta_dc_over_pi=[0.1,0.3]", "--set", 'feasibility.r={"start":0,"stop":3,"num":31}'),
    ),
    ("raytrace", ()),
    # one rays.csv over launches of different lengths, one of which stops early on kerr_pi4
    (
        "raytrace-multi",
        (
            "--set",
            'rays.launches=[{"r0":2.3,"t_end":5.0},{"r0":0.5,"direction":-1,"t_end":5.0},'
            '{"r0":3.0,"direction":-1,"t_end":3.0,"dt":0.01}]',
        ),
    ),
    ("simulate", ()),
    ("simulate-both", ("--set", "simulation.solver=both")),
    # both solvers' reflecting ends, which no other run reaches
    ("simulate-reflecting", ("--set", "simulation.solver=both", "--set", "simulation.boundary=reflecting")),
    # on kerr_theta0 cell 25 sits on the horizon r = M: both solvers step through a hot cell
    (
        "simulate-horizon",
        ("--set", "synthesis.coord_window=[0.0,4.0]", "--set", "synthesis.n_cells=102", "--set", "simulation.solver=both"),
    ),
)


def _deviations(path: Path) -> str:
    if path.name != "verification.json":
        return "-"
    solvers = json.loads(path.read_text())["solvers"]
    return " ".join(f"{name}={result['max_rel_deviation']:.6g}" for name, result in solvers.items())


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fluxline.cli import main as cli_main
    from fluxline.config import PRESETS

    os.chdir(ROOT)
    print("| run | exit | stderr | file | sha256 | max_rel_deviation |")
    print("|---|---|---|---|---|---|")
    for name, extra in RUNS:
        command = name.split("-")[0]
        for preset in PRESETS:
            run = f"{name}-{preset}"
            out = OUT / run
            shutil.rmtree(out, ignore_errors=True)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli_main([command, "--preset", preset, "--out", str(out), *extra])
            stderr = next(iter(err.getvalue().splitlines()), "-")
            files = sorted(out.iterdir()) if out.is_dir() else []
            for path in files:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"| `{run}` | {code} | {stderr} | `{path.name}` | `{digest}` | {_deviations(path)} |")
            if not files:
                print(f"| `{run}` | {code} | {stderr} | - | - | - |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
