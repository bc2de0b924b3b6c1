"""Checks of the benchmark itself; run from the repository root with

    python3 -m pytest bench/test_bench.py

A seed must change the inputs but no count the benchmark reports: rows
written, ray steps and solver cell-steps are compared across two seeds.
The artifact check is tried on small hand-made artifacts.
"""

import hashlib
import json
from pathlib import Path

import pytest

import check
import child
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

INVARIANT = (
    "csvio.rows",
    "rays.calls",
    "rays.steps",
    "continuum.cell_steps",
    "ladder.cell_steps",
    "fronts.snapshots",
    "synthesis.theta_total.calls",
)


@pytest.fixture(scope="module")
def cli():
    return child.load_cli()


@pytest.mark.parametrize("name", sorted(workloads.GROUPS))
def test_seed_changes_inputs_not_counts(cli, name):
    runs = [child.Run(cli, workloads.build(name, seed)) for seed in (1, 2)]
    assert runs[0].commands != runs[1].commands
    counts = []
    for run in runs:
        _, layer = child.traced_iteration(run)
        assert run.problems == []
        counts.append({key: layer[key] for key in INVARIANT})
    assert counts[0] == counts[1]
    assert counts[0]["csvio.rows"] == runs[0].rows > 0


def test_workload_is_its_groups():
    for name, groups in workloads.WORKLOADS.items():
        assert workloads.build(name, 7) == sum((workloads.build(g, 7) for g in groups), ())
        assert workloads.build(name, 7) == workloads.build(name, 7)


def test_traced_metrics_match_benchmark_json(cli):
    run = child.Run(cli, workloads.build("synth_moving", 1))
    _, layer = child.traced_iteration(run)
    # child.main adds these two from the whole run, not from one iteration
    emitted = set(layer) | {"trace.overhead_frac", "verify.max_rel_deviation"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert emitted == set(declared)
    assert all(child.unit_of(name) == unit for name, unit in declared.items())
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


HASH = "0123456789abcdef"


def _csv(path, rows):
    path.write_text(f"# config_hash={HASH}\nt,r,value\n" + "".join(f"{r}\n" for r in rows))
    return path


def test_csv_check_reads_in_blocks(tmp_path, monkeypatch):
    # a block size smaller than a line puts every boundary inside a row
    monkeypatch.setattr(check, "CHUNK", 7)
    path = _csv(tmp_path / "a.csv", ["1,2,3", "4,5,6"])
    found = check.scan(path)
    assert found.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    out = check.Outcome()
    check._check_csv({"a.csv": found}, "a.csv", workloads.SNAPSHOT_COLUMNS, 2, out, HASH)
    assert (out.problems, out.rows) == ([], 2)
    check._check_csv({"a.csv": found}, "a.csv", workloads.SNAPSHOT_COLUMNS, 3, out, HASH)
    assert out.problems == ["a.csv: 2 rows, the grid implies 3"]
    ragged = check.scan(_csv(tmp_path / "b.csv", ["1,2,3", "4,5"]))
    out = check.Outcome()
    check._check_csv({"b.csv": ragged}, "b.csv", workloads.SNAPSHOT_COLUMNS, 2, out, HASH)
    assert out.problems == ["b.csv: ragged rows"]


def test_snapshot_count_is_pinned_not_read_from_the_program(tmp_path):
    # the program reports 4 snapshots and writes them all; the workload expects 3
    cmd = workloads.Command("simulate", ("simulate", "--preset", "x"), {"continuum": (2, 3)})
    doc = {"config_hash": HASH, "passed": True,
           "solvers": {"continuum": {"grid": {"n_points": 2, "snapshots": 4}, "max_rel_deviation": 0.01}}}
    (tmp_path / "verification.json").write_text(json.dumps(doc))
    _csv(tmp_path / "snapshots_continuum.csv", ["0,0,0"] * 8)
    out = check.check_command(cmd, 0, tmp_path)
    assert out.problems == [
        "continuum: grid lists 4 snapshots, expected 3",
        "snapshots_continuum.csv: 8 rows, the grid implies 6",
    ]
