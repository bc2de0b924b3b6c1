"""Flat-file emission and ingestion.

CSV output uses '.' decimals and no thousands separators. A column's dtype
kind picks its format: any float prints with 17 significant digits ('%.17g'
of its float64 value, the same bytes as format_float, including nan, inf and
-0), so values round-trip exactly; int, uint and bool print as '%d'; every
other kind prints as '%s' (an object int as str(int)).

grid_lines is the one emission path: a producer hands it columns on one
(blocks, rows) grid, such as a snapshot time per block, the r grid per row and
the field values per cell, and it fills a '%' template per block instead of
formatting row by row. write_csv streams lines to disk in chunks of CHUNK_ROWS,
so a file is never held in memory whole. A grid's chunks are cut into units of
about CHUNK_ROWS rows (at most MAX_UNITS), whose indices fill a pipe, and
min(CPUs in the affinity set, units // 2) - 1 forked helpers on the other CPUs
each take the next index and format that unit into a part file. Inside an
emission() block write_csv returns once the helpers are forked, and the caller
keeps computing on the first CPU; at block exit it formats the units left,
reaps the helpers and joins the parts in order. Outside a block write_csv is a
block of its own. The bytes do not depend on who took which unit. One CPU, no
os.fork, a second thread when the block opens (a forked child could deadlock),
or a grid of fewer than 4 units means no helper: the caller writes that grid
whole at block exit. Every emitted file starts with a comment line (CSV) or a
field (JSON) carrying the hash of the configuration that produced it. CSV and
JSON files are written to a temporary sibling and moved into place with
os.replace, so a reader sees either the old file or the complete new one, and a
failed write leaves no partial file behind. JSON is standard: NaN and
infinities are refused.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain, islice
from pathlib import Path

import numpy as np

__all__ = [
    "emission",
    "format_float",
    "grid_lines",
    "write_csv",
    "write_json",
    "read_table_csv",
]

CHUNK_ROWS = 8192
# most units of one grid CSV: their 4-byte indices fill one PIPE_BUF
MAX_UNITS = 1024


def format_float(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def _spec(dtype: np.dtype) -> str:
    return {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}.get(dtype.kind, "%s")


def grid_lines(*columns) -> Grid:
    """The '\n'-terminated CSV lines of the rows of columns broadcast to one grid.

    The columns broadcast to a shape (..., R): the last axis runs over the R
    rows of a block and the leading axes, in C order, over the blocks. A
    column that varies along neither is a constant, along the rows only a
    row key, along the blocks only a block key, and along both a cell.
    Constants and row keys are formatted once per table into a '%' template,
    block keys once per block, and the cells of at most CHUNK_ROWS rows of
    one block go into that template with one '%' call. Text cells may hold
    '%'; lines are split on '\n' only.
    """
    return Grid(columns)


class Grid:
    """The lines of grid_lines: iterating yields them, texts(lo, hi) the text of chunks lo..hi."""

    def __init__(self, columns):
        columns = [np.asarray(c) for c in columns]
        shape = np.broadcast_shapes(*(c.shape for c in columns)) or (1,)
        *self.blocks, n_rows = shape
        self.rows, self.n_rows, self.chunk_rows = math.prod(shape), n_rows, CHUNK_ROWS
        # (argument slot, values, and for a key its spec); per column its field of every row
        self.keys, self.cells, fields = [], [], []
        for c in columns if self.rows else ():
            dims = (1,) * (len(shape) - c.ndim) + c.shape
            view, spec = np.broadcast_to(c, shape), _spec(c.dtype)
            if max(dims[:-1], default=1) > 1:
                slot = len(self.keys) + len(self.cells)
                if dims[-1] > 1:
                    self.cells.append((slot, view))
                    fields.append([spec] * n_rows)
                else:
                    self.keys.append((slot, view[..., 0], spec))
                    fields.append(["%s"] * n_rows)
                continue
            values = view[(0,) * len(self.blocks)][: n_rows if dims[-1] > 1 else 1].tolist()
            text = [(spec % (x,)).replace("%", "%%") for x in values]
            fields.append(text if dims[-1] > 1 else text * n_rows)
        lines = [",".join(f) + "\n" for f in zip(*fields)]
        self.templates = ["".join(lines[lo : lo + CHUNK_ROWS]) for lo in range(0, n_rows, CHUNK_ROWS)]

    def __iter__(self):
        # StringIO splits on '\n' alone, and chain yields its lines without a frame per line
        return chain.from_iterable(io.StringIO(text, newline="\n") for text in self.texts(0, None))

    def texts(self, lo: int, hi: int | None):
        """The '%'-filled texts of chunks lo..hi, each of at most CHUNK_ROWS rows of one block."""
        n_rows, chunk_rows, per_block = self.n_rows, self.chunk_rows, len(self.templates)
        args = np.empty((min(n_rows, chunk_rows), len(self.keys) + len(self.cells)), dtype=object)
        for c in range(lo, math.prod(self.blocks) * per_block if hi is None else hi):
            b, j = divmod(c, per_block)
            block = np.unravel_index(b, self.blocks)
            for slot, values, spec in self.keys:
                args[:, slot] = spec % (values.item(block),)
            part = args[: min(chunk_rows, n_rows - j * chunk_rows)]
            for slot, values in self.cells:
                part[:, slot] = values[block][j * chunk_rows : (j + 1) * chunk_rows]
            yield self.templates[j] % tuple(part.ravel().tolist())


@contextmanager
def _replaced_atomically(path: Path):
    """Text handle on a temporary sibling that replaces path on success."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, columns, rows, config_hash: str | None = None) -> Path:
    """Write rows ('\n'-terminated lines, or a Grid) to path under a header of columns.

    A Grid is queued in the open emission block, and its file is in place when the block exits.
    """
    path = Path(path)
    head = ("" if config_hash is None else f"# config_hash={config_hash}\n") + ",".join(columns) + "\n"
    if isinstance(rows, Grid):
        with emission():  # the open block, or one of its own
            _Units(path, head, rows, *_block.get())
        return path
    with _replaced_atomically(path) as fh:
        fh.write(head)
        rows = iter(rows)
        while chunk := "".join(islice(rows, CHUNK_ROWS)):
            fh.write(chunk)
    return path


# the open emission block's queued grid CSVs and CPU set, or None outside one
_block = ContextVar("emission_block", default=None)


@contextmanager
def emission():
    """A block in which write_csv queues each grid CSV and returns while forked helpers format it.

    At exit the caller formats the units left and moves each file into place;
    after an exception no queued file is written. A block inside a block is that block.
    """
    if _block.get() is not None:
        yield
        return
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1
    queue, cpus = [], sorted(os.sched_getaffinity(0)) if forks else [0]
    token = _block.set((queue, cpus))
    try:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus[:1])  # a kernel need not move a child off its parent's CPU
        yield
        for units in queue:
            units.take()
        for units in queue:
            units.join()
    finally:
        _block.reset(token)
        for units in queue:
            units.close()
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)


class _Units:
    """A queued grid CSV: its units, the pipe handing out their indices, and the helpers taking them."""

    def __init__(self, path: Path, head: str, grid: Grid, queue: list, cpus: list):
        self.path, self.head, self.grid, self.pids = path, head, grid, []
        n_units = min(-(-grid.rows // grid.chunk_rows), MAX_UNITS)
        if (n := min(len(cpus), n_units // 2)) < 2:
            n_units = 0  # no helper: the caller writes the grid whole at block exit
        starts = np.arange(math.prod(grid.blocks))[:, None] * grid.n_rows + range(0, grid.n_rows, grid.chunk_rows)
        self.bounds = [*np.searchsorted(starts.ravel(), np.arange(n_units) * grid.rows / n_units).tolist(), None]
        self.parts = [path.with_name(f".{path.name}.{os.getpid()}.{k}.part") for k in range(n_units)]
        path.parent.mkdir(parents=True, exist_ok=True)
        self.fd, w = os.pipe()  # at most PIPE_BUF bytes: one write, which cannot block
        os.write(w, b"".join(k.to_bytes(4, "little") for k in range(n_units)))
        os.close(w)
        queue.append(self)  # before any fork, so that the block reaps what a failed fork leaves
        for _ in range(n - 1):
            if not (pid := os.fork()):  # the helper never returns into its caller's stack
                try:
                    os.sched_setaffinity(0, cpus[1:])
                    self.take()
                except BaseException:
                    os._exit(1)
                os._exit(0)
            self.pids.append(pid)

    def take(self) -> None:
        """Format the next unit into its part file until the pipe is empty."""
        while k := os.read(self.fd, 4):
            k = int.from_bytes(k, "little")
            with open(self.parts[k], "w") as out:
                out.writelines(self.grid.texts(self.bounds[k], self.bounds[k + 1]))

    def join(self) -> None:
        """Reap the helpers, then move the header and the parts, in order, into place."""
        while self.pids:
            status = os.waitpid(self.pids[0], 0)[1]
            del self.pids[0]
            if code := os.waitstatus_to_exitcode(status):
                raise ChildProcessError(f"formatting {self.path.name}: a helper exited with {code}")
        with _replaced_atomically(self.path) as fh:
            fh.write(self.head)
            fh.writelines(() if self.parts else self.grid.texts(0, None))
            fh.flush()
            for part in self.parts:
                with open(part, "rb") as src:
                    while os.sendfile(fh.fileno(), src.fileno(), None, 1 << 30):
                        pass

    def close(self) -> None:
        """Kill and reap the helpers left, and remove every part file."""
        for pid in self.pids:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        os.close(self.fd)
        for part in self.parts:
            part.unlink(missing_ok=True)


def write_json(path, payload: dict, config_hash: str | None = None) -> Path:
    path = Path(path)
    doc = dict(payload)
    if config_hash is not None:
        doc["config_hash"] = config_hash
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _replaced_atomically(path) as fh:
        fh.write(text)
    return path


def read_table_csv(path):
    """Load a two-column (r, ctilde_sq) profile table.

    '#' lines are comments; an 'r,ctilde_sq' header row is accepted but not
    required.
    """
    r_vals, s_vals = [], []
    seen_data = False
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
        if not _is_number(parts[0]):
            if seen_data or parts[0].lower() != "r" or parts[1].lower() != "ctilde_sq":
                raise ValueError(f"{path}:{lineno}: expected 'r,ctilde_sq' header or numbers")
            continue
        seen_data = True
        r, s = float(parts[0]), float(parts[1])
        if not (math.isfinite(r) and math.isfinite(s)):
            raise ValueError(f"{path}:{lineno}: values must be finite")
        r_vals.append(r)
        s_vals.append(s)
    if len(r_vals) < 2:
        raise ValueError(f"{path}: need at least two sample rows")
    return np.asarray(r_vals), np.asarray(s_vals)


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False
