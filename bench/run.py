"""fluxline benchmark: end-to-end and per-layer metrics of the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The fluxline package is imported from the
checkout's src/ directory and nowhere else. A timed run (--trace 0) fills
--seconds with sequential workload interpreters of about 1/SEGMENTS of it
each (see child.py), each preceded by PROBES interpreters that import
fluxline.cli and stop, so set-up is sampled all through the run. Every time is scaled to reference
seconds by the reference kernel timed next to it (see reference.py). A
traced run (--trace 1) is one workload interpreter. Only one child
process runs at a time. The last line of stdout is one JSON object with
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A full record (samples,
artifact sha256, environment) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
import workloads

ROOT = Path.cwd()
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".bench_out"
SEGMENTS = 5
PROBES = 2
# the whole run, probes included, must end well inside 180 s
BUDGET_S = 170.0


class ChildFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # one thread per process: no BLAS pools, no fluxline process pool
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", FLUXLINE_WORKERS="1")
    return env


def _spawn(args, deadline: float):
    """Start a child; return (process, seconds until it printed 'ready')."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], stdout=subprocess.PIPE,
                            env=_child_env(), bufsize=0)
    line = b""
    try:
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
            chunk = os.read(proc.stdout.fileno(), 1) if ready else b""
            if not chunk:
                raise ChildFailed(f"child {args} ended or stalled before it was ready")
            line += chunk
    except BaseException:
        _stop(proc)
        raise
    if line != b"ready\n":
        _stop(proc)
        raise ChildFailed(f"child printed {line!r} instead of 'ready'")
    return proc, perf_counter() - t0


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc, deadline: float) -> bytes:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except BaseException:
        _stop(proc)
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    return out


def _source_identity() -> dict:
    """git commit when the checkout is a repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _merge(segments: list) -> dict:
    """One record from the results of a run's workload interpreters."""
    merged = dict(segments[0])
    for key in ("problems", "failures"):
        merged[key] = list(dict.fromkeys(x for seg in segments for x in seg[key]))
    for key in ("attempted", "failed"):
        merged[key] = sum(seg[key] for seg in segments)
    for key in ("reference_s_samples", "wall_s_samples", "scaled_wall_s_samples"):
        merged[key] = [x for seg in segments for x in seg[key]]
    merged["group_wall_s_samples"] = {
        group: [x for seg in segments for x in seg["group_wall_s_samples"][group]]
        for group in segments[0]["group_wall_s_samples"]
    }
    merged["peak_rss_mb_samples"] = [seg["peak_rss_mb"] for seg in segments]
    deviations = [seg["max_rel_deviation"] for seg in segments if seg["max_rel_deviation"] is not None]
    merged["max_rel_deviation"] = max(deviations, default=None)
    # the same inputs must give the same bytes and rows in every interpreter
    for seg in segments[1:]:
        if seg["rows"] != merged["rows"]:
            merged["problems"].append(f"rows written changed from {merged['rows']} to {seg['rows']}")
        for label, digests in seg["sha256"].items():
            if merged["sha256"].get(label) != digests:
                merged["problems"].append(f"{label}: artifacts differ between interpreters")
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + sorted(workloads.GROUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "fluxline" / "cli.py").is_file():
        print(f"error: no fluxline sources under {ROOT / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    deadline = perf_counter() + BUDGET_S

    def spawn(child_args):
        """Time the reference kernel, then start a child; return the child,
        its set-up time in raw seconds and the kernel's time."""
        before = reference.seconds()
        proc, seconds = _spawn(child_args, deadline)
        return proc, seconds, before

    def probe():
        proc, seconds, before = spawn(["--probe"])
        after = json.loads(_finish(proc, deadline).decode())["reference_s"]
        return seconds, seconds * reference.scale(before, after)

    segment_s = args.seconds if args.trace else args.seconds / SEGMENTS
    raw_setup, setup = [], []
    results = []
    started = perf_counter()
    try:
        while True:
            if not args.trace:
                for seconds, scaled in (probe() for _ in range(PROBES)):
                    raw_setup.append(seconds)
                    setup.append(scaled)
            proc, seconds, before = spawn([
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(segment_s), "--trace", str(args.trace),
            ])
            result = json.loads(_finish(proc, deadline).decode().strip().splitlines()[-1])
            raw_setup.append(seconds)
            setup.append(seconds * reference.scale(before, result["ready_reference_s"]))
            results.append(result)
            # like the segment's own loop: stop before a segment that would
            # overrun --seconds by more than half its length
            now = perf_counter()
            per_segment = (now - started) / len(results)
            if args.trace or now + per_segment / 2 >= started + args.seconds:
                break
    except (ChildFailed, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    child = _merge(results)
    attempted, failed = child["attempted"], child["failed"]
    if args.trace:
        metrics = child.pop("per_layer")
        samples = {name: len(child["traced_wall_s_samples"]) for name in metrics}
    else:
        wall = statistics.median(child["scaled_wall_s_samples"])
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_s": _metric(wall, "s"),
            "rows_per_s": _metric(child["rows"] / wall, "1/s"),
            "peak_rss_mb": _metric(statistics.median(child["peak_rss_mb_samples"]), "MB"),
            "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
        }
        walls = len(child["scaled_wall_s_samples"])
        samples = {"setup_s": len(setup), "wall_s": walls, "rows_per_s": walls,
                   "peak_rss_mb": len(results), "ok_frac": attempted}
    record = dict(child, trace=args.trace, seconds=args.seconds, segments=len(results),
                  reference_s=reference.REFERENCE_S, setup_s_samples=setup,
                  raw_setup_s_samples=raw_setup, metrics=metrics, samples=samples)
    for key in ("ready_reference_s", "peak_rss_mb"):
        record.pop(key)
    record["environment"].update(_source_identity())
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in child["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for failure in child["failures"]:
        print(f"failed: {failure}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not child["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
