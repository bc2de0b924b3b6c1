"""Flat-file emission and ingestion.

CSV output uses '.' decimals and no thousands separators. A column's dtype
kind picks its format: any float prints with 17 significant digits ('%.17g'
of its float64 value, the same bytes as format_float, including nan, inf and
-0), so values round-trip exactly; int, uint and bool print as '%d'; every
other kind prints as '%s' (an object int as str(int)).

grid_lines is the one emission path: a producer hands it columns on one
(blocks, rows) grid, such as a snapshot time per block, the r grid per row
and the field values per cell, and it fills a '%' template per block instead
of formatting row by row. write_csv streams its lines to disk in chunks of
CHUNK_ROWS, so a file is never held in memory whole. Every emitted file starts with a comment line
(CSV) or a field (JSON) carrying the hash of the configuration that produced
it. CSV and JSON files are written to a temporary sibling and moved into
place with os.replace, so a reader sees either the old file or the complete
new one, and a failed write leaves no partial file behind. JSON is standard:
NaN and infinities are refused.
"""

from __future__ import annotations

import io
import json
import math
import os
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


def grid_lines(*columns):
    """One '\n'-terminated CSV line per row of columns broadcast to one grid.

    The columns broadcast to a shape (..., R): the last axis runs over the R
    rows of a block and the leading axes, in C order, over the blocks. A
    column that varies along neither is a constant, along the rows only a
    row key, along the blocks only a block key, and along both a cell.
    Constants and row keys are formatted once per table into a '%' template,
    block keys once per block, and the cells of at most CHUNK_ROWS rows of
    one block go into that template with one '%' call. Text cells may hold
    '%'; lines are split on '\n' only.
    """
    # StringIO splits on '\n' alone, and chain yields its lines without a
    # Python frame per line
    return chain.from_iterable(io.StringIO(text, newline="\n") for text in _grid_texts(columns))


def _grid_texts(columns):
    """The text of grid_lines, CHUNK_ROWS rows of one block at a time."""
    columns = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns)) or (1,)
    if 0 in shape:
        return
    *blocks, n_rows = shape
    chunk_rows = CHUNK_ROWS
    fields = []  # per column: its template field of every row
    keys, cells = [], []  # (argument slot, values, and for a key its spec)
    for c in columns:
        dims = (1,) * (len(shape) - c.ndim) + c.shape
        view, spec = np.broadcast_to(c, shape), _spec(c.dtype)
        if max(dims[:-1], default=1) > 1:
            slot = len(keys) + len(cells)
            if dims[-1] > 1:
                cells.append((slot, view))
                fields.append([spec] * n_rows)
            else:
                keys.append((slot, view[..., 0], spec))
                fields.append(["%s"] * n_rows)
            continue
        values = view[(0,) * len(blocks)][: n_rows if dims[-1] > 1 else 1].tolist()
        text = [(spec % (x,)).replace("%", "%%") for x in values]
        fields.append(text if dims[-1] > 1 else text * n_rows)
    lines = [",".join(f) + "\n" for f in zip(*fields)]
    starts = range(0, n_rows, chunk_rows)
    templates = ["".join(lines[lo : lo + chunk_rows]) for lo in starts]
    del fields, lines
    args = np.empty((min(n_rows, chunk_rows), len(keys) + len(cells)), dtype=object)
    for block in np.ndindex(*blocks):
        for slot, values, spec in keys:
            args[:, slot] = spec % (values.item(block),)
        for template, lo in zip(templates, starts):
            part = args[: min(chunk_rows, n_rows - lo)]
            for slot, values in cells:
                part[:, slot] = values[block][lo : lo + chunk_rows]
            yield template % tuple(part.ravel().tolist())


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
    """Stream rows ('\n'-terminated lines, see grid_lines) to path under a header of columns."""
    path = Path(path)
    rows = iter(rows)
    with _replaced_atomically(path) as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        fh.write(",".join(columns) + "\n")
        while chunk := "".join(islice(rows, CHUNK_ROWS)):
            fh.write(chunk)
    return path


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
