"""One segment of a workload run inside a fresh interpreter; started by run.py.

Imports fluxline from the checkout's src/, prints "ready", times the
reference kernel (for the set-up time run.py measured), then runs the
workload's commands through fluxline.cli.main in-process for about
--seconds (at least once), checks every artifact, and prints one JSON line
with the samples. Each command is timed between two passes of the
reference kernel. With --trace 1 it alternates untraced and traced
iterations, so the tracing overhead is measured under the same conditions
as the traced split, and times no reference kernel.

With --probe it prints "ready", times the reference kernel and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import check
import reference
import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# a traced run pairs each untraced iteration with a traced one
MIN_TRACED_PAIRS = 2

# per-layer self-time metric -> span name it sums
SELF_TIMES = {
    "csvio.write_csv.self_s": "csvio.write_csv",
    "csvio.write_json.self_s": "csvio.write_json",
    "cli.rowgen.self_s": "cli.rowgen",
    "synthesis.report_rows.self_s": "synthesis.report_rows",
    "synthesis.theta_total.self_s": "synthesis.theta_total",
    "synthesis.synthesize_program.self_s": "synthesis.synthesize_program",
    "synthesis.feasibility_scan.self_s": "synthesis.feasibility_scan",
    "metrics.speed_sq.self_s": "metrics.speed_sq",
    "rays.self_s": "rays",
    "continuum.run.self_s": "continuum.run",
    "ladder.run.self_s": "ladder.run",
    "fronts.self_s": "fronts",
    "verify.self_s": "verify",
    "config.self_s": "config",
    "cli.main.self_s": "cli.main",
}
# counts taken from the wrapped calls' arguments and return values
COUNTS = (
    "csvio.rows",
    "csvio.bytes",
    "rays.steps",
    "continuum.cell_steps",
    "ladder.cell_steps",
    "fronts.snapshots",
)
# call-count metric -> span name
CALLS = {
    "synthesis.theta_total.calls": "synthesis.theta_total",
    "metrics.speed_sq.calls": "metrics.speed_sq",
    "rays.calls": "rays",
}


def load_cli():
    """fluxline.cli from the checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    from fluxline import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"fluxline was imported from {cli.__file__}, not from {SRC}")
    return cli


class Run:
    """The samples and checks of one workload run."""

    def __init__(self, cli, commands: tuple[workloads.Command, ...]):
        self.cli = cli
        self.commands = commands
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failures = []
        self.sha256 = {}
        self.rows = None
        self.max_rel_deviation = None
        self.group_walls = {}  # command group -> wall time per untraced iteration
        self.scaled_walls = []  # iteration wall times in reference seconds
        self.reference_s = []  # every pass of the reference kernel

    def iteration(self, tracer: tracing.Tracer | None = None, scaled: bool = False) -> float:
        """Run every command once; return the summed wall time of cli.main.

        With scaled, each command is timed between two passes of the
        reference kernel, and the iteration's time in reference seconds is
        appended to scaled_walls.
        """
        walls = {}
        rows = 0
        deviations = []
        total_scaled = 0.0
        if scaled:
            self.reference_s.append(reference.seconds())
        for i, cmd in enumerate(self.commands):
            # the same relative path in every interpreter and checkout: the
            # output directory is part of the configuration whose hash every
            # artifact carries
            outdir = OUT / "tmp" / f"command-{i}"
            shutil.rmtree(outdir, ignore_errors=True)
            argv = [*cmd.argv, "--out", str(outdir.relative_to(ROOT))]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = perf_counter()
                code = self._main(argv, tracer)
                wall = perf_counter() - t0
            walls[cmd.group] = walls.get(cmd.group, 0.0) + wall
            if scaled:
                self.reference_s.append(reference.seconds())
                total_scaled += wall * reference.scale(*self.reference_s[-2:])
            try:
                outcome = check.check_command(cmd, code, outdir)
            finally:
                shutil.rmtree(outdir, ignore_errors=True)
            self.attempted += 1
            if outcome.failures or outcome.problems:
                self.failed += 1
            self._note(cmd.label, outcome.failures, self.failures)
            self._note(cmd.label, outcome.problems, self.problems)
            # the same inputs must give the same bytes on every iteration
            if self.sha256.setdefault(cmd.label, outcome.sha256) != outcome.sha256:
                self._note(cmd.label, ["artifacts differ between iterations"], self.problems)
            rows += outcome.rows
            if outcome.max_rel_deviation is not None:
                deviations.append(outcome.max_rel_deviation)
        if self.rows is None:
            self.rows = rows
        elif rows != self.rows:
            self.problems.append(f"rows written changed from {self.rows} to {rows}")
        if deviations:
            self.max_rel_deviation = max(deviations)
        if tracer is None:
            for group, wall in walls.items():
                self.group_walls.setdefault(group, []).append(wall)
        if scaled:
            self.scaled_walls.append(total_scaled)
        return sum(walls.values())

    def _main(self, argv, tracer: tracing.Tracer | None) -> int:
        """cli.main(argv), with the exit code the installed CLI would give."""
        root = tracer.open(tracer.name_id("cli.main")) if tracer else None
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # an uncaught error ends the real CLI with exit 1
            traceback.print_exc(file=sys.__stderr__)
            return 1
        finally:
            if tracer:
                tracer.close(root)

    @staticmethod
    def _note(label, messages, into):
        for msg in messages:
            entry = f"{label}: {msg}"
            if entry not in into:
                into.append(entry)


def layer_metrics(tracer: tracing.Tracer, wall: float) -> dict:
    """Per-layer values of one traced iteration, before unit tagging."""
    self_s = tracer.self_times()
    total = tracer.total_times()
    out = {metric: self_s[name] for metric, name in SELF_TIMES.items()}
    out.update({name: tracer.counts[name] for name in COUNTS})
    out.update({metric: tracer.calls(name) for metric, name in CALLS.items()})
    for solver in ("continuum", "ladder"):
        busy = total[f"{solver}.run"]
        out[f"{solver}.cell_steps_per_s"] = out[f"{solver}.cell_steps"] / busy if busy else 0.0
    out["trace.wall_s"] = wall
    out["trace.attributed_frac"] = 1.0 - self_s["cli.main"] / wall
    return out


def traced_iteration(run: Run):
    """One iteration with every layer spanned; returns its tracer and metrics."""
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        wall = run.iteration(tracer)
    return tracer, layer_metrics(tracer, wall)


def unit_of(metric: str) -> str:
    if metric.endswith("_s") and not metric.endswith("per_s"):
        return "s"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("frac") or metric.endswith("deviation"):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "output_fs": _filesystem(OUT),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding path, from the longest matching mount."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def main() -> int:
    cli = load_cli()
    print("ready", flush=True)
    # the reference pass that closes the bracket around this interpreter's set-up
    ready_reference_s = reference.seconds()
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps({"reference_s": ready_reference_s}), flush=True)
        return 0
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    run = Run(cli, workloads.build(args.workload, args.seed))
    walls, traced_walls, layers = [], [], []
    tracer = None
    started = perf_counter()
    deadline = started + args.seconds
    while True:
        walls.append(run.iteration(scaled=not args.trace))
        if args.trace:
            tracer, layer = traced_iteration(run)
            traced_walls.append(layer["trace.wall_s"])
            layers.append(layer)
        # stop where the segment ends closest to --seconds: before a pass
        # that would overrun the deadline by more than half its length
        passes = len(walls)
        now = perf_counter()
        per_pass = (now - started) / passes
        enough = MIN_TRACED_PAIRS if args.trace else 1
        if passes >= enough and now + per_pass / 2 >= deadline:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "argv": [list(cmd.argv) for cmd in run.commands],
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "failures": run.failures,
        "sha256": run.sha256,
        "rows": run.rows,
        "ready_reference_s": ready_reference_s,
        "reference_s_samples": run.reference_s,
        "wall_s_samples": walls,
        "scaled_wall_s_samples": run.scaled_walls,
        "group_wall_s_samples": run.group_walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_rel_deviation": run.max_rel_deviation,
        "environment": environment(),
    }
    if args.trace:
        per_layer = {}
        for metric in layers[0]:
            values = [layer[metric] for layer in layers]
            if (metric in COUNTS or metric in CALLS) and len(set(values)) != 1:
                run.problems.append(f"{metric} differs between traced iterations: {values}")
            per_layer[metric] = statistics.median(values)
        per_layer["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        per_layer["verify.max_rel_deviation"] = run.max_rel_deviation or 0.0
        result["per_layer"] = {k: {"value": v, "unit": unit_of(k)} for k, v in per_layer.items()}
        result["traced_wall_s_samples"] = traced_walls
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_csv(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
