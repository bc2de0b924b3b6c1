"""Flat-file emission and ingestion.

CSV output uses '.' decimals and no thousands separators. Each column holds
one type, taken from the first row: ints print as integers, strings as they
are, and floats with 17 significant digits ('%.17g', the same bytes as
format_float, including nan, inf and -0), so values round-trip exactly.
Rows are formatted with one format string per file and streamed to disk in
chunks of CHUNK_ROWS, so a file is never held in memory whole. Rows built
by column_rows carry their float cells as that '%.17g' text already: most
columns repeat a few grid values, so each distinct bit pattern of a chunk
is formatted once. Every emitted file starts with a comment line (CSV) or
a field (JSON) carrying the hash of the configuration that produced it.
CSV and JSON files are written to a temporary sibling and moved into place
with os.replace, so a reader sees either the old file or the complete new
one, and a failed write leaves no partial file behind. JSON is standard:
NaN and infinities are refused.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

import numpy as np

__all__ = [
    "format_float",
    "column_rows",
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


def column_rows(*columns):
    """Rows of equal-length 1-D columns, as tuples of Python scalars and text.

    Columns are converted a chunk of CHUNK_ROWS at a time, without holding
    every row as Python objects at once. A float64 column gives its cells as
    '%.17g' text, the bytes write_csv would print for the float, and each
    distinct bit pattern in a chunk is formatted once, so 0.0 and -0.0 stay
    apart. Any other column goes through .tolist(): an int column gives
    ints and a str column strs.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    for lo in range(0, n, CHUNK_ROWS):
        yield from zip(*(_cells(c[lo : lo + CHUNK_ROWS]) for c in columns))


def _cells(chunk: np.ndarray) -> list:
    if chunk.dtype != np.float64:
        return chunk.tolist()
    bits, inverse = np.unique(chunk.view(np.int64), return_inverse=True)
    text = ("%.17g\n" * len(bits) % tuple(bits.view(np.float64).tolist())).split()
    return np.array(text, dtype=object)[inverse].tolist()


def _cell_format(x) -> str:
    if isinstance(x, (int, np.integer)):
        return "%d"
    if isinstance(x, str):
        return "%s"
    return "%.17g"


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
    """Stream rows (tuples, one type per column) to path; see the module doc."""
    path = Path(path)
    rows = iter(rows)
    with _replaced_atomically(path) as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        fh.write(",".join(columns) + "\n")
        first = next(rows, None)
        if first is not None:
            fmt = ",".join(map(_cell_format, first)) + "\n"
            fh.write(fmt % first)
            while chunk := "".join(map(fmt.__mod__, islice(rows, CHUNK_ROWS))):
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
