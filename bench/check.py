"""Artifact checks for one CLI command.

Each check reads the files a command wrote and returns the data rows per
CSV, the sha256 per file and a list of problems. A CSV must start with its
'# config_hash=' line and header and hold the row count its grid implies;
every JSON must parse strictly, NaN and Infinity rejected. Files are read in
fixed-size blocks, so the check adds little to the peak memory of the
process that runs the command.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from workloads import PROGRAM_COLUMNS, SNAPSHOT_COLUMNS, Command


@dataclass
class Outcome:
    rows: int = 0
    sha256: dict = field(default_factory=dict)
    # findings that make an artifact malformed or inconsistent
    problems: list = field(default_factory=list)
    # well-formed results that still mean the command did not succeed
    failures: list = field(default_factory=list)
    max_rel_deviation: float | None = None


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _read_json(path: Path, out: Outcome):
    try:
        return json.loads(path.read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        out.problems.append(f"{path.name}: {exc}")
        return None


CHUNK = 1 << 20


@dataclass
class Scan:
    """One pass over a file: its hash, first two lines and separator counts."""

    sha256: str
    head: list  # the first two lines, without their newlines
    newlines: int
    commas: int  # after the first two lines
    ends_with_newline: bool


def scan(path: Path) -> Scan:
    digest = hashlib.sha256()
    newlines = commas = 0
    head = b""
    last = b""
    with path.open("rb") as fh:
        while block := fh.read(CHUNK):
            digest.update(block)
            newlines += block.count(b"\n")
            commas += block.count(b",")
            if head.count(b"\n") < 2:
                head += block
            last = block[-1:]
    lines = head.split(b"\n", 2)[:2]
    if len(lines) == 2:
        commas -= lines[0].count(b",") + lines[1].count(b",")
    return Scan(digest.hexdigest(), lines, newlines, commas, last == b"\n")


def _check_csv(scans: dict, name: str, columns, expect_rows: int, out: Outcome, config_hash: str | None):
    found = scans.get(name)
    if found is None:
        out.problems.append(f"{name}: missing")
        return
    if found.newlines < 2 or not found.ends_with_newline:
        out.problems.append(f"{name}: truncated")
        return
    hash_line, header = found.head
    if not re.fullmatch(r"[0-9a-f]{16}", config_hash or ""):
        out.problems.append(f"{name}: config hash {config_hash!r} is not 16 hex digits")
    elif hash_line != f"# config_hash={config_hash}".encode():
        out.problems.append(f"{name}: first line {hash_line[:60]!r} is not the config hash")
    if header != ",".join(columns).encode():
        out.problems.append(f"{name}: header {header[:80]!r}")
    rows = found.newlines - 2
    # every row has len(columns) fields, so the separators are counted whole
    if found.commas != rows * (len(columns) - 1):
        out.problems.append(f"{name}: ragged rows")
    if rows != expect_rows:
        out.problems.append(f"{name}: {rows} rows, the grid implies {expect_rows}")
    out.rows += rows


def check_command(cmd: Command, exit_code: int, outdir: Path) -> Outcome:
    out = Outcome()
    files = sorted(p for p in outdir.iterdir() if p.is_file()) if outdir.is_dir() else []
    scans = {p.name: scan(p) for p in files}
    out.sha256 = {name: found.sha256 for name, found in scans.items()}
    if exit_code != 0:
        out.failures.append(f"exit code {exit_code}")
        if not (outdir / "verification.json").exists():
            # a refused command writes at most a failure report, still standard JSON
            for p in files:
                if p.suffix == ".json":
                    _read_json(p, out)
            return out
    if cmd.kind == "simulate":
        _check_simulate(cmd, exit_code, outdir, scans, out)
    elif cmd.kind == "feasibility":
        doc_hash = _csv_hash(scans.get("feasibility.csv"))
        for name, (columns, rows) in cmd.expect.items():
            _check_csv(scans, name, columns, rows, out, doc_hash)
    elif cmd.kind == "synth":
        _check_synth(cmd, outdir, scans, out)
    else:
        raise ValueError(f"no check for command kind {cmd.kind!r}")
    return out


def _csv_hash(found: Scan | None) -> str | None:
    prefix = b"# config_hash="
    if found is None or not found.head or not found.head[0].startswith(prefix):
        return None
    return found.head[0][len(prefix):].decode(errors="replace")


def _check_simulate(cmd: Command, exit_code: int, outdir: Path, scans: dict, out: Outcome):
    doc = _read_json(outdir / "verification.json", out)
    if doc is None:
        return
    config_hash = doc.get("config_hash")
    passed = doc.get("passed")
    if passed is not True:
        out.failures.append(f"verification.json passed={passed}")
    if (exit_code == 0) != (passed is True):
        out.problems.append(f"exit code {exit_code} disagrees with passed={passed}")
    solvers = doc.get("solvers", {})
    if sorted(solvers) != sorted(cmd.expect):
        out.problems.append(f"solvers {sorted(solvers)}, expected {sorted(cmd.expect)}")
        return
    deviations = []
    for solver, (points, snapshots) in cmd.expect.items():
        res = solvers[solver]
        grid = res.get("grid", {})
        # the continuum writes n_points values per snapshot, the ladder n_cells + 1
        listed = grid.get("n_points", grid.get("n_cells", -1) + 1)
        if listed != points:
            out.problems.append(f"{solver}: grid lists {listed} points per snapshot, expected {points}")
        if grid.get("snapshots") != snapshots:
            out.problems.append(f"{solver}: grid lists {grid.get('snapshots')} snapshots, expected {snapshots}")
        deviation = res.get("max_rel_deviation")
        if isinstance(deviation, (int, float)):
            deviations.append(float(deviation))
        else:
            out.problems.append(f"{solver}: max_rel_deviation {deviation!r} is not a number")
        _check_csv(scans, f"snapshots_{solver}.csv", SNAPSHOT_COLUMNS, snapshots * points, out, config_hash)
    out.max_rel_deviation = max(deviations, default=None)


def _check_synth(cmd: Command, outdir: Path, scans: dict, out: Outcome):
    doc = _read_json(outdir / "synth_summary.json", out)
    if doc is None:
        return
    if doc.get("feasible") is not True:
        out.failures.append(f"synth_summary.json feasible={doc.get('feasible')}")
    for key in ("n_cells", "n_times"):
        if doc.get(key) != cmd.expect[key]:
            out.problems.append(f"synth_summary.json {key}={doc.get(key)}, expected {cmd.expect[key]}")
    rows = cmd.expect["n_cells"] * cmd.expect["n_times"]
    _check_csv(scans, "program.csv", PROGRAM_COLUMNS, rows, out, doc.get("config_hash"))
