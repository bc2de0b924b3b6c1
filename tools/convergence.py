"""Refine every simulated preset and check that each solver's deviation falls.

Usage, from any directory:

    python tools/convergence.py

Runs simulate with simulation.solver=both on each preset whose program
synthesizes, at 1x, 2x and 4x its simulation.n_points and synthesis.n_cells,
in-process through fluxline.cli.main from this checkout's src/. Each run
writes to out/convergence/<preset>-<k>x under the checkout root.

Prints one markdown row per preset and solver: the max_rel_deviation at each
refinement (%.6g, or the exit code of a run that wrote no
verification.json), the ratio of each entry to the next, and the ROADMAP
item that owns a known failure. Exits 1 when a row that should converge does
not fall at some refinement, or when a known failure now falls at every one,
so that KNOWN_FAILURES can only shrink.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path("out") / "convergence"
PRESETS = ("flat", "godel", "alcubierre", "alcubierre_superluminal", "kerr_theta0", "kerr_pi4")
SOLVERS = ("continuum", "ladder")
FACTORS = (1, 2, 4)
# (preset, solver) -> why its row does not fall at every refinement
KNOWN_FAILURES = {
    ("alcubierre_superluminal", "continuum"): "item 17: moving superluminal wall",
    ("alcubierre_superluminal", "ladder"): "item 17: moving superluminal wall",
    ("godel", "continuum"): "item 9: pulse-width floor",
    ("godel", "ladder"): "item 9: pulse-width floor",
    ("kerr_pi4", "continuum"): "item 9: pulse-width floor",
    ("kerr_theta0", "continuum"): "item 8: hot-cell budget, exit 3 past 1x",
    ("kerr_theta0", "ladder"): "item 8: hot-cell budget, exit 3 past 1x",
}


def _deviations(cli_main, preset: str, doc: dict, factor: int) -> dict:
    """{solver: max_rel_deviation, or the exit code of a run that verified nothing}."""
    out = OUT / f"{preset}-{factor}x"
    shutil.rmtree(out, ignore_errors=True)
    argv = [
        "simulate", "--preset", preset, "--out", str(out),
        "--set", "simulation.solver=both",
        "--set", f"simulation.n_points={doc['simulation']['n_points'] * factor}",
        "--set", f"synthesis.n_cells={doc['synthesis']['n_cells'] * factor}",
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    path = out / "verification.json"
    if not path.exists():
        return dict.fromkeys(SOLVERS, f"exit {code}")
    solvers = json.loads(path.read_text())["solvers"]
    return {name: solvers[name]["max_rel_deviation"] for name in SOLVERS}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fluxline.cli import main as cli_main
    from fluxline.config import PRESETS as docs

    os.chdir(ROOT)
    runs = {(p, k): _deviations(cli_main, p, docs[p], k) for p in PRESETS for k in FACTORS}
    head = " | ".join(f"{k}x" for k in FACTORS)
    print(f"| preset | solver | {head} | ratios | known failure |")
    print("|---|---|" + "---|" * len(FACTORS) + "---|---|")
    bad = []
    for preset in PRESETS:
        for solver in SOLVERS:
            row = [runs[preset, k][solver] for k in FACTORS]
            numbers = all(isinstance(v, float) for v in row)
            falls = numbers and all(b < a for a, b in zip(row, row[1:]))
            ratios = " / ".join(f"{a / b:.3g}" if numbers and b else "-" for a, b in zip(row, row[1:]))
            known = KNOWN_FAILURES.get((preset, solver))
            cells = " | ".join(v if isinstance(v, str) else f"{v:.6g}" for v in row)
            print(f"| `{preset}` | {solver} | {cells} | {ratios} | {known or '-'} |")
            if known is None and not falls:
                bad.append(f"{preset} {solver} does not fall at every refinement")
            if known is not None and falls:
                bad.append(f"{preset} {solver} now falls at every refinement; remove it from KNOWN_FAILURES")
    for line in bad:
        print(f"error: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
