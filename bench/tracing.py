"""Spans around fluxline's layers, recorded from outside the package.

install() replaces the public functions listed in LAYERS, wherever a
fluxline module holds a reference to them, with wrappers that record a span
(name, parent, start, end) per call and take counts from the call's
arguments and return value. Row iterables handed to write_csv, and the
generator FeasibilityReport.rows returns, are consumed in batches of
BATCH rows with one span per batch, so row generation is timed without a
span per row. Nothing in fluxline itself is changed on disk.
"""

from __future__ import annotations

import inspect
import os
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from itertools import islice
from time import perf_counter

BATCH = 4096


class Tracer:
    """Spans of one traced iteration, kept in memory until written out.

    Spans live in flat arrays rather than one object each, so that a run
    with 10^5 spans does not add work for the garbage collector.
    """

    def __init__(self):
        self.names = []  # span name per name id
        self._ids = {}
        self.name_ids = array("i")
        self.parents = array("i")  # index of the enclosing span, or -1
        self.starts = array("d")
        self.ends = array("d")
        self.counts = Counter()  # the counts _layers takes from arguments and results
        self._stack = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        stack = self._stack
        idx = len(self.starts)
        self.parents.append(stack[-1] if stack else -1)
        stack.append(idx)
        self.name_ids.append(name_id)
        self.ends.append(0.0)
        # the clock is read last on open and first on close, so the
        # bookkeeping falls outside the span
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _spans(self):
        names = self.names
        return zip((names[i] for i in self.name_ids), self.parents, self.starts, self.ends)

    def calls(self, name: str) -> int:
        return self.name_ids.count(self._ids[name]) if name in self._ids else 0

    def self_times(self) -> Counter:
        """Per span name: summed duration minus the time its child spans cover."""
        child = [0.0] * len(self.starts)
        for _, parent, start, end in self._spans():
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, _, start, end), inner in zip(self._spans(), child):
            out[name] += (end - start) - inner
        return out

    def total_times(self) -> Counter:
        """Per span name: summed duration of the outermost spans of that name."""
        out = Counter()
        for name, parent, start, end in self._spans():
            if parent < 0 or self.name_ids[parent] != self._ids[name]:
                out[name] += end - start
        return out

    def write_csv(self, path):
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(self._spans()):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")


def _batches(tracer: Tracer, name: str, iterable, counter: str | None = None):
    name_id = tracer.name_id(name)
    it = iter(iterable)
    while True:
        idx = tracer.open(name_id)
        try:
            chunk = list(islice(it, BATCH))
        finally:
            tracer.close(idx)
        if counter:
            tracer.counts[counter] += len(chunk)
        if not chunk:
            return
        yield from chunk


def _spanned(tracer: Tracer, name: str, fn, before=None, after=None):
    """fn wrapped in a span; before(args) -> state, after(state, args, result)."""
    name_id = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        state = before(args) if before else None
        idx = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after:
            after(state, args, result)
        return result

    return wrapper


def _layers(tracer: Tracer):
    """(module, attribute path, replacement factory) for every traced layer."""
    c = tracer.counts

    def file_bytes(_, __, path):
        c["csvio.bytes"] += os.path.getsize(path)

    def write_csv(fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["rows"] = _batches(tracer, "cli.rowgen", bound.arguments["rows"], "csvio.rows")
            return fn(*bound.args, **bound.kwargs)

        return _spanned(tracer, "csvio.write_csv", wrapper, after=file_bytes)

    def report_rows(fn):
        return lambda self: _batches(tracer, "synthesis.report_rows", fn(self))

    def ray_steps(_, __, path):
        c["rays.steps"] += len(path.t) - 1

    def continuum_steps(state, args, _):
        solver = args[0]
        c["continuum.cell_steps"] += round((solver.time - state) / solver.dt) * solver.grid.n_points

    def ladder_steps(_, args, __):
        c["ladder.cell_steps"] += args[0].n_cells * args[1]

    def snapshots(_, args, __):
        c["fronts.snapshots"] += len(args[0])

    def span(name, before=None, after=None):
        return lambda fn: _spanned(tracer, name, fn, before, after)

    return [
        ("fluxline.config", "load_raw_config", span("config")),
        ("fluxline.config", "validate_config", span("config")),
        ("fluxline.csvio", "write_csv", write_csv),
        ("fluxline.csvio", "write_json", span("csvio.write_json", after=file_bytes)),
        ("fluxline.metrics", "SpeedProfile.speed_sq", span("metrics.speed_sq")),
        ("fluxline.synthesis", "FluxProgram.theta_total", span("synthesis.theta_total")),
        ("fluxline.synthesis", "FeasibilityReport.rows", report_rows),
        ("fluxline.synthesis", "synthesize_program", span("synthesis.synthesize_program")),
        ("fluxline.synthesis", "feasibility_scan", span("synthesis.feasibility_scan")),
        ("fluxline.wavelab.rays", "trace_null_geodesic", span("rays", after=ray_steps)),
        ("fluxline.wavelab.continuum", "ContinuumSolver.run",
         span("continuum.run", before=lambda args: args[0].time, after=continuum_steps)),
        ("fluxline.wavelab.ladder", "LadderSim.run", span("ladder.run", after=ladder_steps)),
        ("fluxline.wavelab.fronts", "front_trajectory", span("fronts", after=snapshots)),
        ("fluxline.wavelab.verify", "verify_program", span("verify")),
    ]


@contextmanager
def install(tracer: Tracer):
    """Route every reference fluxline holds to a layer function through a span."""
    undo = []
    modules = [m for n, m in list(sys.modules.items()) if n == "fluxline" or n.startswith("fluxline.")]
    try:
        for module_name, attr, factory in _layers(tracer):
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(sys.modules[module_name], owner_name)
                original = owner.__dict__[leaf]
                if isinstance(original, property):
                    replacement = property(factory(original.fget))
                else:
                    replacement = factory(original)
                undo.append((owner, leaf, original))
                setattr(owner, leaf, replacement)
                continue
            original = getattr(sys.modules[module_name], leaf)
            replacement = factory(original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, replacement)
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
