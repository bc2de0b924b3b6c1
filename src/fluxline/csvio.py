"""Flat-file emission and ingestion.

CSV output is UTF-8 with '.' decimals and no thousands separators. A
column's dtype kind picks its format: any float prints with 17 significant
digits ('%.17g' of its float64 value, including nan, inf and -0; a NaN of
either sign or any payload prints as nan), so values round-trip exactly;
int, uint and bool print as '%d'; every other kind prints as str (an object
int as str(int)).

grid_lines is the one emission path: a producer hands it columns on one
(blocks, rows) grid, such as a snapshot time per block, the r grid per row and
the field values per cell. A chunk of CHUNK_ROWS consecutive rows of the grid
has its cells formatted at once; its lines are then built LINE_ROWS at a time
as a uint8 matrix, a row per line, in which each field takes a fixed span of
bytes padded with NUL, and their text is that matrix with the NULs deleted (a
NUL inside a text cell is carried as 0xFF, which no UTF-8 text holds, and put
back). Float fields come from a vectorised kernel (_float_text)
that gives the bytes of '%.17g' from the 17-digit integer of x * 10**(16 - X),
formed as a double-double (Dekker's product against a table of 10**s); it
hands the values it cannot certify, those within 2**-32 of a rounding tie or
outside the table's range, to Python's own '%.17g'. A float cell column
formats each run of equal float64 bit patterns in a chunk once (0.0 and -0.0
differ, and so do NaNs of another sign or payload, though they print alike).

write_csv streams a grid to disk a chunk at a time, so a file is never held in
memory whole. A grid's chunks are cut into units (at most MAX_UNITS), and
min(CPUs in the affinity set, units // 2) - 1 forked helpers on the other CPUs
each take the next index from a pipe and format that unit, into the file as it
goes once the grid's token (the next unit the file lacks) says its turn has come;
one finished out of turn waits in memory or a part file. Units are queued as
their grid's rows become final: stream_csv queues a grid still being filled in
memory its helpers share, whose units its caller hands over as they become
final, and write_csv hands over the rest; a grid given to write_csv alone is
queued whole. Inside an emission() block write_csv returns once the helpers are
forked, and the caller keeps computing on the first CPU; at block exit it
formats the units left, reaps the helpers, appends what the chain still lacks
and moves the file into place. Outside a block write_csv is a block of its
own. The bytes do not depend on who took which unit. One CPU, no os.fork, a
second thread when the block opens (a forked child could deadlock), fewer than
4 units, or fewer cells (rows times columns formatted per chunk) than
_Units.MIN_CELL_CHUNKS chunks hold means no helper: such a grid is one unit,
which the caller formats at block exit before it takes units of grids that have
helpers, so that they keep the other CPUs busy meanwhile. Every emitted file
starts with a comment line (CSV) or a field (JSON) carrying the hash of the
configuration that produced it. Each file is written under a temporary sibling
name (a queued grid CSV under one of its own) and moved into place with os.replace,
so a reader sees either the old file or the complete new one, and a failed write
leaves no partial file behind. JSON is standard: NaN and infinities are
refused, also inside an ndarray, which is written as its list.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cache
from itertools import chain, count, islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np

__all__ = [
    "emission",
    "grid_lines",
    "stream_csv",
    "write_csv",
    "write_json",
    "read_table_csv",
]

CHUNK_ROWS = 8192
# lines built into one matrix and compacted into one bytes object: a chunk's matrix
# and text whole would hold several MB beside its formatted cells
LINE_ROWS = 1024
# most units of one grid CSV: their 4-byte indices fill one PIPE_BUF
MAX_UNITS = 1024


def grid_lines(*columns) -> Grid:
    """The '\n'-terminated CSV lines of the rows of columns broadcast to one grid.

    The columns broadcast to a shape (..., R): the last axis runs over the R
    rows of a block and the leading axes, in C order, over the blocks. A
    column that varies along neither is a constant, along the rows only a
    row key, along the blocks only a block key, and along both a cell; a key
    that would not repeat (a row key of one block, a block key of one-row
    blocks) is a cell. Constants and keys are formatted once per table, cells
    once per chunk. Lines are split on '\n' only.
    """
    return Grid(columns)


class Grid:
    """The lines of grid_lines: iterating yields them, texts(lo, hi) the bytes of chunks lo..hi."""

    def __init__(self, columns):
        columns = [np.asarray(c) for c in columns]
        shape = np.broadcast_shapes(*(c.shape for c in columns))
        shape = (1,) * (2 - len(shape)) + shape
        *self.blocks, n_rows = shape
        self.rows, self.n_rows, self.chunk_rows = math.prod(shape), n_rows, CHUNK_ROWS
        # a line is its parts in turn: bytes (separators and constants), the text of a row or
        # block key, which takes in the bytes and keys of its role after it, or a cell column
        self.parts = []
        for i, c in enumerate(columns if self.rows else ()):
            self._append("bytes", b"," * (i > 0))
            dims = (1,) * (len(shape) - c.ndim) + c.shape
            by_block, by_row = max(dims[:-1]) > 1, dims[-1] > 1
            view = np.broadcast_to(c, shape)
            if by_row and not by_block and math.prod(self.blocks) > 1:
                self._append("row", _tight(_text(view[(0,) * len(self.blocks)])))
            elif by_block and not by_row and n_rows > 1:
                self._append("block", _tight(_text(view[..., 0])))
            elif by_row or by_block:
                self.parts.append(("cell", view))
            else:
                self._append("bytes", _tight(_text(c)).tobytes())
        self._append("bytes", b"\n")
        # the values formatted per chunk, which set the work of writing the grid
        self.cells = self.rows * sum(role == "cell" for role, _ in self.parts)

    def _append(self, role: str, text) -> None:
        """Add bytes or a key's text to the line, into the last part where it is bytes or a key."""
        last, held = self.parts[-1] if self.parts else ("cell", None)
        if role == "bytes" and last in ("row", "block"):
            text = np.broadcast_to(np.frombuffer(text, np.uint8), (len(held), len(text)))
        if last == role or role == "bytes" and last in ("row", "block"):
            self.parts[-1] = (last, held + text if last == "bytes" else np.hstack([held, text]))
        elif len(text):
            self.parts.append((role, text))

    def __iter__(self):
        # StringIO splits on '\n' alone, and chain yields its lines without a frame per line
        return chain.from_iterable(io.StringIO(data.decode(), newline="\n") for data in self.texts(0, None))

    def texts(self, lo: int, hi: int | None):
        """The UTF-8 bytes of chunks lo..hi, in whole lines; chunk c holds rows c * CHUNK_ROWS on of the grid."""
        hi = -(-self.rows // self.chunk_rows) if hi is None else hi
        for c in range(lo, hi):
            yield from self._chunk(c * self.chunk_rows, min((c + 1) * self.chunk_rows, self.rows))

    def _chunk(self, lo: int, hi: int):
        """Rows lo..hi, LINE_ROWS lines at a time: a matrix of NUL-padded fields, a row per line,
        with the NULs deleted. The chunk's cells are formatted at once."""
        n_rows, first = self.n_rows, lo // self.n_rows
        blocks = np.unravel_index(np.arange(first, (hi - 1) // n_rows + 1), self.blocks)
        start = lo - first * n_rows
        formatted = [_text(v[blocks].reshape(-1)[start : start + hi - lo]) if r == "cell" else v for r, v in self.parts]
        for at in range(lo, hi, LINE_ROWS):
            rows = np.arange(at, min(at + LINE_ROWS, hi))
            parts = []
            for (role, _), text in zip(self.parts, formatted):
                if role == "bytes":
                    parts.append(np.frombuffer(text, np.uint8))
                elif role == "row":
                    parts.append(np.take(text, rows % n_rows, axis=0))
                elif role == "block":
                    parts.append(np.take(text, rows // n_rows, axis=0))
                else:
                    parts.append(text[at - lo : at - lo + len(rows)])
            ends = np.cumsum([part.shape[-1] for part in parts]).tolist()
            lines = np.empty((len(rows), ends[-1]), np.uint8)
            for part, end in zip(parts, ends):
                lines[:, end - part.shape[-1] : end] = part
            data = lines.tobytes().translate(None, b"\0")
            yield data.replace(b"\xff", b"\0") if b"\xff" in data else data


def _tight(text: np.ndarray) -> np.ndarray:
    """Rows of NUL-padded bytes left-aligned, as narrow as the longest."""
    return _packed([row.tobytes().replace(b"\0", b"") for row in text])


def _packed(rows: list) -> np.ndarray:
    """A matrix of byte strings, one a row, NUL-padded to the longest."""
    return np.array(rows, dtype=f"S{max(map(len, rows), default=0) or 1}").view(np.uint8).reshape(len(rows), -1)


def _text(values) -> np.ndarray:
    """Per value of values, in C order, a row of its NUL-padded UTF-8 bytes (a NUL byte as 0xFF)."""
    values = np.ravel(values)
    if values.dtype.kind == "f":
        # each run of equal float64 bits formatted once; a signalling NaN widens to a quiet one
        with np.errstate(invalid="ignore"):
            x = np.ascontiguousarray(values, dtype=np.float64)
        bits = x.view(np.int64)
        heads = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]]) if x.size else np.arange(0)
        if heads.size == x.size:
            return _float_text(x)
        return np.repeat(_float_text(x[heads]), np.diff(heads, append=x.size), axis=0)
    if values.dtype.kind in "iub":
        return _int_text(values)
    return _packed([str(v).encode().replace(b"\0", b"\xff") for v in values.tolist()])


def _int_text(values) -> np.ndarray:
    """'%d' of each of an int, uint or bool array: a sign byte if any is negative, then digits right-aligned."""
    neg = values < 0
    mag = values.astype(np.uint64)
    mag = np.where(neg, np.uint64(0) - mag, mag)
    width = len(str(int(mag.max()))) if mag.size else 1
    out = np.zeros((mag.size, width + neg.any()), np.uint8)
    out[:, 0] |= neg * np.uint8(ord("-"))
    for j in range(out.shape[1] - 1, out.shape[1] - 1 - width, -1):
        rest = mag // 10
        # a leading zero stays NUL; the units digit always prints
        out[:, j] = np.where((mag > 0) | (j == out.shape[1] - 1), mag - rest * 10 + ord("0"), 0)
        mag = rest
    return out


# exponents X of the 17-digit decade the kernel formats itself: 10**(16 - X)
# and its double-double tail are normal, and x * 10**(16 - X) cannot overflow
X_MIN, X_MAX = -292, 307
# The double-double p + t is x * 10**s with an error of at most 2**-104 of
# its size (the table's tail rounded, x times the tail rounded, their sum
# rounded; Dekker's product is exact), so below 2**-46 on a value under
# 10**17 < 2**57. A 17-digit integer is taken only when p + t lies this much
# farther than that from a rounding tie.
TIE_BAND = 2.0**-32


@cache
def _tables() -> SimpleNamespace:
    """Lookup tables of _float_text, built on first use."""

    def power(s):  # (10**s, its rounding error), each correctly rounded
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi = num / den
        n, d = hi.as_integer_ratio()
        return hi, (num * d - n * den) / (den * d)

    def words(texts, at=0):  # per text, placed from byte `at`, the little-endian words of its slot
        values = [int.from_bytes(t, "little") << 8 * at for t in texts]
        return np.array([[v >> 64 * i & (2**64 - 1) for v in values] for i in range(3)], dtype=np.uint64)

    hi, lo = np.array([power(16 - x) for x in range(X_MIN, X_MAX + 1)]).T
    # the 4 digits of each of 0 .. 9999, then the same with trailing zeros as NUL
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    kept = np.maximum.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    quads = np.concatenate([digits + ord("0"), np.where(kept, digits + ord("0"), 0)]).astype(np.uint64)
    # per X (from X_MIN through X_MAX + 1, a carry's), the bytes behind the sign byte up to
    # digit 0: -X leading zeros of fixed notation, or none, with a point after digit 0 if a
    # fraction follows; and the exponent of the other notation
    x_exps = range(X_MIN, X_MAX + 2)
    lead = [-x if -4 <= x < 0 else 0 for x in x_exps]
    heads = [[b"\0", b"\0\0."] if z == 0 else [b"\0" + b"0." + b"0" * (z - 1)] * 2 for z in lead]
    return SimpleNamespace(
        hi=hi,
        hi_halves=_halves(hi),
        lo=lo,
        quad=(quads << np.arange(0, 32, 8, dtype=np.uint64)).sum(axis=1, dtype=np.uint64),
        head=words([h for pair in heads for h in pair])[0],
        first=np.array([8 * (z + 2) if z else 8 for z in lead], dtype=np.uint64),
        exp=words([b"" if -4 <= x < 17 else b"e%+03d" % x for x in x_exps])[0],
        # fixed notation with the point after digit X >= 1
        inner=np.array([0 < x < 17 for x in x_exps]),
        # bytes below k kept, for k = 0 .. 24; a point at byte k; '0' from byte 1 through byte k
        below=words([b"\xff" * k for k in range(25)]),
        dot=words([b"\0" * k + b"." for k in range(24)]),
        zeros=words([b"\0" + b"0" * k for k in range(24)]),
        # 0, inf and nan, behind the sign byte
        special=words([b"\x000", b"\x00inf", b"\x00nan"])[0],
    )


def _halves(a: np.ndarray):
    """a as hi + lo, hi of 26 significant bits and lo of at most 26 (Veltkamp's split, by rounding the bits)."""
    hi = ((a.view(np.uint64) + np.uint64(1 << 26)) & np.uint64(2**64 - 2**27)).view(np.float64)
    return hi, a - hi


def _scaled(a, x_exp):
    """a * 10**(16 - x_exp) as a double-double p + t."""
    tables = _tables()
    i = x_exp - X_MIN
    (ah, al), bh, bl = _halves(a), tables.hi_halves[0][i], tables.hi_halves[1][i]
    p = a * tables.hi[i]
    # Dekker's two-product: p + e is a * hi exactly
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e + a * tables.lo[i]


def _outside(p, t):
    """Whether p + t lies outside [10**16, 10**17), judged before any rounding."""
    # p - 10**k is exact near 10**k (Sterbenz) and keeps its sign elsewhere, as its sum with t does
    return ((p - 1e16) + t < 0) | ((p - 1e17) + t >= 0)


def _digits(a):
    """(d, x_exp, ok): positive finite a rounds to d * 10**(x_exp - 16), d of 17 digits, where ok."""
    # from 1e308 on, Veltkamp's split could round to inf: Python formats those
    ok = a < 1e308
    a = np.minimum(a, 1e308)
    # only this guess touches a transcendental; the decade test corrects it
    x_exp = np.clip(np.floor(np.log10(a)), X_MIN, X_MAX).astype(np.int64)
    p, t = _scaled(a, x_exp)
    if (off := np.flatnonzero(_outside(p, t))).size:
        x_exp[off] = np.clip(x_exp[off] + np.where(p[off] < 1e16, -1, 1), X_MIN, X_MAX)
        p[off], t[off] = _scaled(a[off], x_exp[off])
        ok[off] &= ~_outside(p[off], t[off])
    # p is an even integer above 2**53, so the rounding is all in t
    whole = np.rint(t)
    ok &= np.abs(t - whole) < 0.5 - TIE_BAND
    d = p.astype(np.int64) + whole.astype(np.int64)
    carry = d == 10**17
    return np.where(carry, 10**16, d), x_exp + carry, ok


def _float_text(x: np.ndarray) -> np.ndarray:
    """'%.17g' of each of a float64 array, as rows of at most 32 NUL-padded bytes.

    A row is four little-endian words: the sign byte and what precedes
    digit 1, digits 1-8, digits 9-16 (trailing zeros as NUL) and the exponent.
    """
    a = np.abs(x)
    finite = np.flatnonzero((a > 0) & (a < np.inf))
    if finite.size == len(x):
        slots = _words(a)
    else:
        # zeros, infinities and NaNs behind the sign byte
        slots = np.zeros((len(x), 4), dtype=np.uint64)
        slots[:, 0] = _tables().special[np.where(a == 0, 0, np.where(a == np.inf, 1, 2))]
        slots[finite] = _words(a[finite])
    # the sign bit as '-', but a NaN prints no sign
    slots[:, 0] |= (x.view(np.uint64) >> np.uint64(63)) * np.uint64(ord("-")) * ~np.isnan(x)
    # as wide as the widest value: through the last byte any row uses
    for k in range(3, -1, -1):
        if (used := int(np.bitwise_or.reduce(slots[:, k]))) or not k:
            break
    width = max(8 * k + (used.bit_length() + 7) // 8, 1)
    return slots.astype("<u8", copy=False).view(np.uint8).reshape(len(x), -1)[:, :width]


def _words(a: np.ndarray) -> np.ndarray:
    """The four words of _float_text for positive finite a, the sign byte left NUL."""
    tables = _tables()
    d, x_exp, ok = _digits(a)
    hi = d // 10**8
    lo = d - hi * 10**8
    top = hi // 10**8
    hi -= top * 10**8
    groups = [hi // 10**4, 0, lo // 10**4, 0]
    groups[1], groups[3] = hi - groups[0] * 10**4, lo - groups[2] * 10**4
    # a group drops its trailing zeros when every group after it is zero
    zero = [g == 0 for g in groups]
    last = [zero[1] & zero[2] & zero[3], zero[2] & zero[3], zero[3], True]
    q = [tables.quad[g + 10_000 * z] for g, z in zip(groups, last)]
    words = np.empty((len(a), 4), dtype=np.uint64)
    mid = np.bitwise_or(q[0], q[1] << np.uint64(32), out=words[:, 1])
    low = np.bitwise_or(q[2], q[3] << np.uint64(32), out=words[:, 2])
    j = x_exp - X_MIN
    head = tables.head[2 * j + ((mid | low) != 0)] | (top.astype(np.uint64) + np.uint64(48)) << tables.first[j]
    words[:, 0], words[:, 3] = head, tables.exp[j]
    # fixed notation with the point after digit X >= 1: the 17 digits from byte 1, the
    # units digits restored, and the point moved in at byte X + 2
    if (big := np.flatnonzero(tables.inner[j])).size:
        at = x_exp[big] + 2
        m, l = mid[big], low[big]
        v = [head[big] & np.uint64(0xFF00) | m << np.uint64(16), m >> np.uint64(48) | l << np.uint64(16), l >> np.uint64(48)]
        v = [vi | z[at - 1] for vi, z in zip(v, tables.zeros)]
        below = [vi & b[at] for vi, b in zip(v, tables.below)]
        above = [vi ^ bi for vi, bi in zip(v, below)]
        dot = ((above[0] | above[1] | above[2]) != 0).astype(np.uint64)
        words[big, 0] = below[0] | above[0] << np.uint64(8) | tables.dot[0][at] * dot
        words[big, 1] = below[1] | above[1] << np.uint64(8) | above[0] >> np.uint64(56) | tables.dot[1][at] * dot
        words[big, 2] = below[2] | above[2] << np.uint64(8) | above[1] >> np.uint64(56) | tables.dot[2][at] * dot
    # what the kernel could not certify
    for i in np.flatnonzero(~ok).tolist():
        words[i] = np.frombuffer(b"\0" + (b"%.17g" % a[i]).ljust(31, b"\0"), "<u8")
    return words


@contextmanager
def _replaced_atomically(path: Path):
    """Binary handle on a temporary sibling that replaces path on success."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _head(columns, config_hash: str) -> bytes:
    return f"# config_hash={config_hash}\n{','.join(columns)}\n".encode()


def write_csv(path, columns, rows, config_hash: str) -> Path:
    """Write rows ('\n'-terminated lines, or a Grid) to path under a header of columns.

    A Grid is queued in the open emission block, or adopted if stream_csv queued it, and its file is
    in place when the block exits.
    """
    path, head = Path(path), _head(columns, config_hash)
    if isinstance(rows, Grid):
        with emission():  # the open block, or one of its own
            queue, cpus = _block.get()
            streamed = next((units for units in queue if units.grid is rows and units.w is not None), None)
            (streamed or _Units(path, head, rows, queue, cpus)).publish()
        return path
    with _replaced_atomically(path) as fh:
        fh.write(head)
        rows = iter(rows)
        while chunk := "".join(islice(rows, CHUNK_ROWS)):
            fh.write(chunk.encode())
    return path


def stream_csv(path, columns, grid: Grid, config_hash: str):
    """Queue in the open emission block the CSV of a grid whose blocks are yet to be filled.

    Returns publish(blocks), which hands over each unit in the grid's first blocks blocks, once they
    are final. write_csv of the same grid, path, columns and hash adopts it; the block exit discards
    a grid that none adopts, writing nothing.
    """
    return _Units(Path(path), _head(columns, config_hash), grid, *_block.get()).publish


# the open emission block's queued grid CSVs and CPU set, or None outside one
_block = ContextVar("emission_block", default=None)


@contextmanager
def emission():
    """A block in which write_csv queues each grid CSV and returns while forked helpers format it.

    At exit the caller discards each grid no write_csv adopted, formats the units left, reaps every
    grid's helpers, and only then appends to each grid's file what its chain still lacks and moves
    the file into place; after an exception in the block, the caller's units or any helper no queued
    file is written. A block inside a block is that block.
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
        adopted = [units for units in queue if units.w is None]
        # grids without a helper first, while the helpers format the others
        for units in sorted(adopted, key=lambda units: bool(units.pids)):
            units.take()
        for units in adopted:
            units.reap()
        for units in adopted:
            units.join()
    finally:
        _block.reset(token)
        for units in queue:
            units.close()
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)


class _Units:
    """A queued grid CSV: its temporary file, the pipe of its unit indices, its token and its helpers."""

    # A grid gets forked helpers from this many chunks' worth of cells (rows times cell
    # columns); below it a helper did not pay for its fork. In alternating in-process pairs of
    # whole commands on 2 CPUs, with a helper and without (pairs faster with): simulate godel,
    # 107,800-row continuum snapshots (13.2 chunks' worth), 47.1 and 71.0 ms (29 of 30); the
    # 79,515-row ladder snapshots (9.7) of alcubierre_superluminal 57.7 and 51.5 ms (3 of 30), of
    # alcubierre 84.2 and 93.4 (28 of 30); synth alcubierre's program.csv (16) 19.3 and 18.0 (7 of 30)
    MIN_CELL_CHUNKS = 12

    def __init__(self, path: Path, head: bytes, grid: Grid, queue: list, cpus: list):
        self.path, self.head, self.grid, self.pids, self.held = path, head, grid, [], {}
        n_chunks = -(-grid.rows // grid.chunk_rows)
        n_units = min(n_chunks, MAX_UNITS)
        if (n := min(len(cpus), n_units // 2) if grid.cells >= self.MIN_CELL_CHUNKS * grid.chunk_rows else 1) < 2:
            n_units = 1  # no helper: the caller formats the grid as one unit, an empty grid its header alone
        self.bounds = [*(k * n_chunks // n_units for k in range(n_units)), None]
        # the grid row each unit ends at
        self.ends = [b * grid.chunk_rows for b in self.bounds[1:-1]] + [grid.rows]
        self.prefix = str(path.with_name(f".{path.name}.{os.getpid()}.{id(self):x}."))
        path.parent.mkdir(parents=True, exist_ok=True)
        # only the caller holds the write end w, until write_csv adopts the grid and closes it (w is
        # then None); all indices take at most PIPE_BUF bytes, so no write can block
        self.fd, self.w = os.pipe()
        self.token, self.token_w = os.pipe()
        os.write(self.token_w, bytes(4))  # unit 0's turn
        self.out = open(self.prefix + "tmp", "wb", buffering=0)
        self.published = 0
        queue.append(self)  # before any fork, so that the block reaps what a failed fork leaves
        for _ in range(n - 1):
            os.set_blocking(self.token, False)  # no process waits for it; a caller alone always finds it
            if not (pid := os.fork()):  # the helper never returns into its caller's stack
                try:
                    for units in queue:  # so that no helper keeps a pipe from its end
                        if units.w is not None:
                            os.close(units.w)
                    os.sched_setaffinity(0, cpus[1:])
                    self.take()
                    self._park(self.held)
                except BaseException:
                    os._exit(1)
                os._exit(0)
            self.pids.append(pid)

    def publish(self, blocks: int | None = None) -> None:
        """Write the index of each unit whose rows lie in the grid's first blocks blocks; without
        blocks, of every unit left, and close the pipe (write_csv adopts the grid)."""
        k = len(self.ends) if blocks is None else bisect_right(self.ends, blocks * self.grid.n_rows)
        if k > self.published:  # most levels a solver records end no unit
            os.write(self.w, b"".join(i.to_bytes(4, "little") for i in range(self.published, k)))
            self.published = k
        if blocks is None:
            os.close(self.w)
            self.w = None

    def take(self) -> None:
        """Format the next unit until the pipe is empty, into the file from the piece its turn comes at (b"" last)."""
        while k := os.read(self.fd, 4):
            k, own, mine = int.from_bytes(k, "little"), [], False
            for piece in chain([self.head] * (k == 0), self.grid.texts(self.bounds[k], self.bounds[k + 1]), [b""]):
                own.append(piece)
                if mine or (mine := self._turn(k)):
                    self._write(own)
                    own = []
            if mine:
                os.write(self.token_w, self._append(k + 1).to_bytes(4, "little"))
            else:
                self._park(self.held)
                self.held = {k: own}

    def _turn(self, k: int) -> bool:
        """Grab the token without blocking and append what the chain can; keep it if unit k is next."""
        try:
            at = int.from_bytes(os.read(self.token, 4), "little")
        except BlockingIOError:  # another process holds it
            return False
        if (at := self._append(at)) != k:
            os.write(self.token_w, at.to_bytes(4, "little"))
        return at == k

    def _append(self, at: int) -> int:
        """Write unit at, and each next, that this process holds or finds parked; return the next one."""
        for at in count(at):
            if at in self.held:
                self._write(self.held.pop(at))
            elif os.path.exists(part := f"{self.prefix}{at}.part"):
                with open(part, "rb") as src:
                    while os.sendfile(self.out.fileno(), src.fileno(), None, 1 << 30):
                        pass
                os.unlink(part)
            else:
                return at

    def _write(self, pieces) -> None:
        for view in map(memoryview, pieces):
            while view:
                view = view[self.out.write(view) :]

    def _park(self, held: dict) -> None:
        """Write each finished unit held into its part file, which is whole once it has its name."""
        for k, pieces in held.items():
            with open(f"{self.prefix}{k}.new", "wb") as out:
                out.writelines(pieces)
            os.replace(out.name, f"{self.prefix}{k}.part")

    def reap(self) -> None:
        """Wait for each helper; one that failed raises ChildProcessError."""
        while self.pids:
            status = os.waitpid(self.pids[0], 0)[1]
            del self.pids[0]
            if code := os.waitstatus_to_exitcode(status):
                raise ChildProcessError(f"formatting {self.path.name}: a helper exited with {code}")

    def join(self) -> None:
        """Append what the chain lacks, and move the file into place; each reaped helper handed the token on."""
        if (at := self._append(int.from_bytes(os.read(self.token, 4), "little"))) < len(self.ends):
            raise ChildProcessError(f"formatting {self.path.name}: unit {at} is missing")
        self.out.close()  # not every platform renames an open file
        os.replace(self.prefix + "tmp", self.path)

    def close(self) -> None:
        """Kill and reap the helpers left, close the pipes and the file, and remove its temporary files."""
        for pid in self.pids:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        self.out.close()
        for fd in (self.fd, self.w, self.token, self.token_w):
            if fd is not None:
                os.close(fd)
        for name in os.listdir(self.path.parent):
            if name.startswith(os.path.basename(self.prefix)):
                os.unlink(self.path.parent / name)


def write_json(path, payload: dict, config_hash: str) -> Path:
    path = Path(path)
    doc = {**payload, "config_hash": config_hash}
    # an ndarray is written as its list; any other object JSON cannot encode is refused with TypeError
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=np.ndarray.tolist) + "\n"
    with _replaced_atomically(path) as fh:
        fh.write(text.encode())
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
