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
so a file is never held in memory whole. It cuts a grid's chunks into W =
min(CPUs in the affinity set, rows // (2 * CHUNK_ROWS)) ranges of about equal
rows. The parent formats range 0 on the first CPU; ranges 1..W-1 go to forked
processes on the other CPUs, whose part files follow range 0: the bytes do not
depend on W. One CPU, no os.fork, or a second thread (a forked child could
deadlock) means no fork. Every emitted file starts with a comment line
(CSV) or a field (JSON) carrying the hash of the configuration that produced
it. CSV and JSON files are written to a temporary sibling and moved into place
with os.replace, so a reader sees either the old file or the complete new one,
and a failed write leaves no partial file behind. JSON is standard: NaN and
infinities are refused.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

import numpy as np

__all__ = [
    "format_float",
    "grid_lines",
    "write_csv",
    "write_json",
    "read_table_csv",
]

CHUNK_ROWS = 8192


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
        n_rows, chunk_rows = self.n_rows, self.chunk_rows
        args = np.empty((min(n_rows, chunk_rows), len(self.keys) + len(self.cells)), dtype=object)
        chunks = ((block, j) for block in np.ndindex(*self.blocks) for j in range(len(self.templates)))
        for block, j in islice(chunks, lo, hi):
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
    """Stream rows ('\n'-terminated lines, or a Grid) to path under a header of columns."""
    path = Path(path)
    with _replaced_atomically(path) as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        fh.write(",".join(columns) + "\n")
        if isinstance(rows, Grid):
            _write_grid(fh, rows, path)
        else:
            rows = iter(rows)
            while chunk := "".join(islice(rows, CHUNK_ROWS)):
                fh.write(chunk)
    return path


def _write_grid(fh, grid: Grid, path: Path) -> None:
    """Write grid's chunks in W ranges of about equal rows, ranges 1..W-1 each from a forked child."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1
    cpus = sorted(os.sched_getaffinity(0)) if forks else [0]
    if (n := min(len(cpus), grid.rows // (2 * grid.chunk_rows))) < 2:
        return fh.writelines(grid.texts(0, None))
    starts = np.arange(math.prod(grid.blocks))[:, None] * grid.n_rows + range(0, grid.n_rows, grid.chunk_rows)
    bounds = [*np.searchsorted(starts.ravel(), np.arange(n) * grid.rows / n).tolist(), None]
    parts = [path.with_name(f".{path.name}.{os.getpid()}.{k}.part") for k in range(1, n)]
    children = []
    os.sched_setaffinity(0, cpus[:1])  # a kernel need not move a child off its parent's CPU
    try:
        for k, part in enumerate(parts, 1):
            if not (pid := os.fork()):  # the child never returns into its caller's stack
                try:
                    os.sched_setaffinity(0, cpus[1:])
                    with open(part, "w") as out:
                        out.writelines(grid.texts(bounds[k], bounds[k + 1]))
                except BaseException:
                    os._exit(1)
                os._exit(0)
            children.append(pid)
        fh.writelines(grid.texts(bounds[0], bounds[1]))
        fh.flush()
        for part in parts:
            status = os.waitpid(children[0], 0)[1]
            del children[0]
            if code := os.waitstatus_to_exitcode(status):
                raise ChildProcessError(f"formatting {path.name}: a forked range exited with {code}")
            with open(part, "rb") as src:
                while os.sendfile(fh.fileno(), src.fileno(), None, 1 << 30):
                    pass
    except BaseException:
        for pid in children:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        raise
    finally:
        os.sched_setaffinity(0, cpus)
        for part in parts:
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
