"""CSV/JSON emission: byte contract, row order of the producers, atomic writes."""

import contextlib
import importlib.util
import json
import math
import os
import signal
import string
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxline import csvio
from fluxline.cli import _program_rows, main
from fluxline.config import load_raw_config, validate_config
from fluxline.csvio import write_csv, write_json
from fluxline.synthesis import FeasibilityReport, FluxProgram
from fluxline.wavelab import CflViolation, ContinuumSolver

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
                     0.1, 1.0 / 3.0]),
).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
INTS = st.one_of(
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
# NUL is the emitter's padding byte and ',' its separator; 'é' is two bytes in UTF-8
STRS = st.text(alphabet=string.ascii_letters + string.digits + "_-%\x00,é ", max_size=12)
CELLS = {"float": FLOATS, "int": INTS, "str": STRS}


def format_float(x) -> str:
    """The per-cell float format the emitters reproduce: 17 significant digits, 'nan' for any NaN."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def reference_cell(x) -> str:
    """The old per-cell formatting: str(int) for ints, str as is, else format_float."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format_float(x)


def reference_csv(columns, rows, config_hash) -> bytes:
    lines = [f"# config_hash={config_hash}", ",".join(columns)]
    lines.extend(",".join(reference_cell(x) for x in row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


def object_array(cells, shape=None) -> np.ndarray:
    a = np.empty(len(cells), dtype=object)
    a[:] = cells
    return a if shape is None else a.reshape(shape)


def grid_rows(values):
    """Rows of value arrays broadcast to one grid, in C order, as Python objects."""
    shape = np.broadcast_shapes(*(v.shape for v in values)) or (1,)
    return list(zip(*(np.broadcast_to(v, shape).ravel().tolist() for v in values)))


def on_cpus(mp, n) -> list:
    """Make n CPUs the process's affinity set, which write_csv forks across.

    Returns the CPU lists this process then places itself on; the placement
    is recorded, not applied, since these CPUs need not exist.
    """
    placed = []
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    mp.setattr(os, "sched_setaffinity", lambda pid, cpus: placed.append(sorted(cpus)))
    return placed


def counted_forks(mp) -> list:
    """The pids of the children os.fork starts from here on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    mp.setattr(os, "fork", counted)
    return pids


def assert_grid_writes(tmp_path_factory, names, columns, rows, config_hash="h"):
    """grid_lines gives one line per row, and write_csv the reference bytes on 1, 2 and 3 CPUs."""
    lines = list(csvio.grid_lines(*columns))
    assert len(lines) == len(rows)
    assert all(line.endswith("\n") for line in lines)
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    for cpus in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            on_cpus(mp, cpus)
            write_csv(path, names, csvio.grid_lines(*columns), config_hash)
        assert path.read_bytes() == reference_csv(names, rows, config_hash)


def as_column(kind: str, cells: list, shape) -> np.ndarray:
    """A column of the dtype a producer would hand over for these cells."""
    if kind == "float":
        return np.array(cells, dtype=np.float64).reshape(shape)
    if kind == "int":
        fits = all(-(2**63) <= int(x) < 2**63 for x in cells)
        return np.array(cells, dtype=np.int64).reshape(shape) if fits else object_array(cells, shape)
    return np.array(cells, dtype=str).reshape(shape)


@st.composite
def grids(draw):
    """Columns of every role on one (B, R) grid, and the values each holds."""
    n_blocks, n_rows = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    roles = [(), (1, 1), (n_blocks, 1), (n_rows,), (n_blocks, n_rows)]
    columns, values = [], []
    for kind in draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=6)):
        shape = draw(st.sampled_from(roles))
        cells = draw(st.lists(CELLS[kind], min_size=math.prod(shape), max_size=math.prod(shape)))
        column = as_column(kind, cells, shape)
        columns.append(column)
        # a numpy str array drops its cells' trailing NULs; the emitter keeps every byte it holds
        values.append(object_array(column.ravel().tolist() if kind == "str" else cells, shape))
    return columns, values


@settings(max_examples=300, deadline=None)
@given(grids(), st.sampled_from(["h", "0123456789abcdef"]))
@example(
    ([np.array([math.nan, -0.0, math.inf]), np.array([-3, 7, 0]), np.array(["ok", "", "a%"])],
     [object_array([math.nan, -0.0, math.inf]), object_array([np.int64(-3), 7, 0]), object_array(["ok", "", "a%"])]),
    "0123456789abcdef",
)
@example(
    # NULs inside and at the end of 2-d text cells, which a numpy str array cannot hold at the end
    ([object_array(["a\x00", "\x00", ",", "é\x00b"], (2, 2)), np.array([["a\x00b", " "], ["", "\x00x"]])],
     [object_array(["a\x00", "\x00", ",", "é\x00b"], (2, 2)), object_array(["a\x00b", " ", "", "\x00x"], (2, 2))]),
    "h",
)
def test_write_csv_matches_cell_by_cell_reference(tmp_path_factory, grid, config_hash):
    columns, values = grid
    names = [f"c{i}" for i in range(len(columns))]
    assert_grid_writes(tmp_path_factory, names, columns, grid_rows(values), config_hash)


def test_write_csv_streams_across_chunks(tmp_path_factory, monkeypatch):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 3)
    blocks, rows = np.array([[10], [20]]), np.arange(11) / 7.0
    text = np.array([[f"s{b}.{i}" for i in range(11)] for b in range(2)])
    expected = [(int(b), float(x), f"s{j}.{i}") for j, b in enumerate((10, 20)) for i, x in enumerate(rows)]
    assert_grid_writes(tmp_path_factory, ("b", "x", "s"), (blocks, rows, text), expected)
    # a table of row keys alone is one block of 11 rows
    expected = [(i, float(x), f"s0.{i}") for i, x in enumerate(rows)]
    assert_grid_writes(tmp_path_factory, ("i", "x", "s"), (np.arange(11), rows, text[0]), expected)


def test_grid_lines_block_shapes(monkeypatch):
    lines = lambda *cols: list(csvio.grid_lines(*cols))
    # no blocks, or no rows: no lines
    assert lines(np.zeros((0, 1)), np.arange(3), np.zeros((0, 3))) == []
    assert lines(np.arange(2)[:, None], np.zeros(0)) == []
    # (1, 1) and 0-d constants make one row
    assert lines(np.array([[2.5]]), np.int64(3), "x") == ["2.5,3,x\n"]
    assert lines(1.0, 2) == ["1,2\n"]
    # leading axes are blocks in C order, the last axis the rows
    got = lines(np.array([1, 2])[:, None, None], np.array([0.5, 0.25])[:, None], np.array([7, 8, 9]))
    assert got == [f"{p},{d},{r}\n" for p in (1, 2) for d in (0.5, 0.25) for r in (7, 8, 9)]
    # blocks longer than CHUNK_ROWS are split without changing a byte
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 4)
    cells = np.arange(30).reshape(3, 10) / 3.0
    got = lines(np.array([[0.5], [1.5], [2.5]]), np.arange(10), cells)
    assert got == [f"{t},{r},{format_float(cells[b, r])}\n" for b, t in enumerate((0.5, 1.5, 2.5)) for r in range(10)]


def test_grid_lines_escapes_percent_in_text():
    got = list(csvio.grid_lines(
        np.array([["a%s"], ["%d%%"]]), np.array(["%", "b%"]), np.array([["%(x)s", "1"], ["2", "%"]]), "100%"
    ))
    assert got == ["a%s,%,%(x)s,100%\n", "a%s,b%,1,100%\n", "%d%%,%,2,100%\n", "%d%%,b%,%,100%\n"]


def test_grid_lines_splits_on_newline_only():
    text = np.array(["a\rb", "c\x1cd", "e\u2028f", "g\x85h"])
    assert list(csvio.grid_lines(np.arange(4), text)) == ["0,a\rb\n", "1,c\x1cd\n", "2,e\u2028f\n", "3,g\x85h\n"]


def test_grid_lines_format_follows_dtype_kind():
    cols = (
        np.array([0.1], dtype=np.float32),
        np.array([1 / 3], dtype=np.longdouble),
        np.array([True]),
        np.array([2**64 - 1], dtype=np.uint64),
        np.array([-(2**63)], dtype=np.int64),
        object_array([10**30]),
        object_array([0.1]),
    )
    assert list(csvio.grid_lines(*cols)) == [
        f"{format_float(np.float32(0.1))},{format_float(1 / 3)},1,{2**64 - 1},{-(2**63)},{10**30},0.1\n"
    ]


def load_tool(name: str):
    """A module of the checkout's tools/ directory."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FLOAT_TEXT_CHECK = load_tool("float_text_check")
# every 10**k with both neighbours, 17-digit carries, the notation switches, near ties, subnormals, +-0, +-inf, NaNs
EDGE_FLOATS = FLOAT_TEXT_CHECK.edge_floats()


def kernel_texts(text) -> list:
    """Per row of a kernel's NUL-padded bytes, its text."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in text]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(64, np.float64), (32, np.float32), (16, np.float16)]).flatmap(
    lambda width: st.tuples(st.just(width[1]), st.lists(st.integers(0, 2 ** width[0] - 1), min_size=1, max_size=40))
))
def test_float_kernel_matches_format_float_on_any_bit_pattern(case):
    dtype, bits = case
    x = np.array(bits, dtype=f"u{dtype(0).itemsize}").view(dtype)
    assert kernel_texts(csvio._text(x)) == [format_float(v) for v in x]


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16, np.longdouble])
def test_float_kernel_matches_format_float_on_the_edge_list(dtype):
    with np.errstate(over="ignore", invalid="ignore"):  # a signalling NaN and values past the type's range
        x = EDGE_FLOATS.astype(dtype)
    if dtype is np.longdouble:
        # values between two float64s, which round to the nearer
        x = np.concatenate([x, x[np.isfinite(x)] * (1 + np.finfo(np.longdouble).eps * 3)])
    assert kernel_texts(csvio._float_text(x.astype(np.float64))) == [format_float(v) for v in x]
    assert kernel_texts(csvio._text(x)) == [format_float(v) for v in x]


def test_float_kernel_hands_values_near_a_tie_to_python():
    # scaled, each lies within TIE_BAND of a rounding tie, nearer than the scaling's error bound allows to decide
    x = np.array([1e15 + 0.25, 1e14 + 0.125, *FLOAT_TEXT_CHECK.near_ties()])
    assert not csvio._digits(x)[2].any()
    assert kernel_texts(csvio._float_text(x)) == [format_float(v) for v in x]


def nan_with(sign: int, payload: int) -> float:
    bits = (sign << 63) | (0x7FF << 52) | payload
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# few values, so that they repeat within a block; 0.0 and -0.0 and the NaNs
# are equal or unordered as floats but distinct as bit patterns
POOL = [0.0, -0.0, math.nan, nan_with(1, 1 << 51), nan_with(0, (1 << 51) | 5), math.inf, -math.inf,
        5e-324, 1e308, 0.1, 1.0 / 3.0]
COLUMN_KINDS = ("float64", "float32", "int", "strided", "transposed")


@st.composite
def pool_grids(draw):
    """Columns of POOL values on a (B, R) grid, each a block key, row key or cell."""
    n_blocks, n_rows = draw(st.integers(0, 5)), draw(st.integers(0, 9))
    columns = []
    for kind in draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=5)):
        shape = draw(st.sampled_from([(n_blocks, 1), (n_rows,), (n_blocks, n_rows)]))
        n = math.prod(shape)
        if kind == "int":
            columns.append(np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=np.int64).reshape(shape))
            continue
        x = np.array(draw(st.lists(st.sampled_from(POOL), min_size=2 * n, max_size=2 * n)))
        if kind == "float32":
            with np.errstate(over="ignore"):
                x = x.astype(np.float32)
        if kind == "strided":
            x = x[::2].reshape(shape)
        elif kind == "transposed":
            x = x[:n].reshape(shape[::-1]).T.reshape(shape) if len(shape) == 2 else x[:n]
        else:
            x = x[:n].reshape(shape)
        columns.append(x)
    return columns


@settings(max_examples=200, deadline=None)
@given(pool_grids(), st.sampled_from([1, 2, 3, 7, 8192]))
@example([np.array([0.0, -0.0, 0.0, nan_with(1, 3), math.nan])], 8192)
def test_grid_lines_writes_the_bytes_of_each_float(tmp_path_factory, columns, chunk_rows):
    names = [f"c{i}" for i in range(len(columns))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "CHUNK_ROWS", chunk_rows)
        assert_grid_writes(tmp_path_factory, names, columns, grid_rows(columns))


def pool_runs(draw, n: int) -> list:
    """n POOL values in runs of 1 to 20 equal values."""
    cells = []
    while len(cells) < n:
        cells += [draw(st.sampled_from(POOL))] * draw(st.integers(1, 20))
    return cells[:n]


@st.composite
def run_grids(draw):
    """A key per axis of a (P, D, R) grid, and cells of runs of POOL values, each of some float layout."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 40)))
    columns = [np.arange(shape[0])[:, None, None], np.arange(shape[1])[:, None] / 3.0, np.arange(shape[2])]
    for kind in draw(st.lists(st.sampled_from(("float64", "float32", "strided", "transposed")), min_size=1, max_size=3)):
        x = np.array(pool_runs(draw, math.prod(shape))).reshape(shape)
        if kind == "float32":
            with np.errstate(over="ignore"):
                x = x.astype(np.float32)
        elif kind == "strided":
            x = np.stack([x, -x], axis=-1)[..., 0]
        elif kind == "transposed":
            x = x.T.copy().T
        columns.append(x)
    return columns


@settings(max_examples=150, deadline=None)
@given(run_grids(), st.sampled_from([1, 2, 3, 7, 8192]))
def test_grid_lines_writes_runs_of_floats_as_each_float(tmp_path_factory, columns, chunk_rows):
    # units split the runs between processes on 2 and 3 CPUs
    names = [f"c{i}" for i in range(len(columns))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "CHUNK_ROWS", chunk_rows)
        assert_grid_writes(tmp_path_factory, names, columns, grid_rows(columns))


def kernel_sizes(mp) -> list:
    """How many floats each call of the float kernel takes from here on."""
    sizes, kernel = [], csvio._float_text

    def counted(x):
        sizes.append(len(x))
        return kernel(x)

    mp.setattr(csvio, "_float_text", counted)
    return sizes


def run_heads(cells) -> int:
    """How many cells of a float grid, in C order, start a run of equal float64 bits."""
    bits = np.ascontiguousarray(cells, dtype=np.float64).view(np.int64).ravel()
    return 1 + np.count_nonzero(bits[1:] != bits[:-1])


@pytest.mark.parametrize("cells, runs", [
    # 4 of 8 cells start a run in C order, the run of 1.0 going on across the blocks
    ([[0.0, 0.0, 1.0, 1.0], [1.0, -0.0, -0.0, 2.0]], True),
    ([[0.0, 0.0, 1.0, 1.0], [2.0, -0.0, -0.0, 3.0]], False),
    # NaNs print alike, but a NaN of another sign or payload starts a run
    ([[math.nan, math.nan, 0.0, 0.0], [0.0, 0.0, -math.nan, 1.0]], True),
    ([[math.nan, nan_with(0, (1 << 51) | 5), 0.0, 0.0], [0.0, 0.0, -math.nan, 1.0]], False),
])
def test_a_float_column_goes_through_its_runs_while_at_most_half_its_cells_start_one(
    tmp_path_factory, monkeypatch, cells, runs
):
    # runs marks the columns in which at most half the cells start a run; every
    # float cell column is written through its runs, each run of a chunk formatted once
    cells = np.array(cells)
    columns = (np.array([[0.5], [1.5]]), np.arange(4), cells)
    assert (2 * run_heads(cells) <= cells.size) == runs
    sizes = kernel_sizes(monkeypatch)
    list(csvio.grid_lines(*columns))
    assert sizes == [2, run_heads(cells)]  # the block keys once, then the one chunk's runs
    assert_grid_writes(tmp_path_factory, ("t", "r", "x"), columns, grid_rows(columns))


def test_runs_compare_bits_not_values(tmp_path_factory, monkeypatch):
    # 0.0 == -0.0 as floats, but they print differently
    cells = np.array([0.0, 0.0, 0.0, -0.0, -0.0, -0.0] * 6).reshape(3, 12)
    columns = (np.arange(3)[:, None], np.arange(12), cells, cells.astype(np.float32))
    sizes = kernel_sizes(monkeypatch)
    list(csvio.grid_lines(*columns))
    assert sizes == [12, 12]  # per float column of the one chunk, its runs of three
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 3)
    assert_grid_writes(tmp_path_factory, ("b", "r", "x", "y"), columns, grid_rows(columns))


def test_each_unit_formats_the_head_of_a_run_it_starts_inside(tmp_path_factory, monkeypatch):
    # one run of 1/3 through the whole table: every chunk but the first starts inside it
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    cells = np.full((4, 5), 1.0 / 3.0).T.copy().T
    cells[3, 4] = -0.0
    columns = (np.arange(4)[:, None], np.arange(5), cells)
    sizes = kernel_sizes(monkeypatch)
    grid = csvio.grid_lines(*columns)
    whole = b"".join(grid.texts(0, None))
    assert sizes == [1] * 9 + [2]  # 10 chunks of 2 rows across the blocks; the last ends in -0.0
    assert b"".join(text for c in range(10) for text in grid.texts(c, c + 1)) == whole
    assert b"".join(text for lo, hi in ((0, 5), (5, 7), (7, None)) for text in grid.texts(lo, hi)) == whole
    assert_grid_writes(tmp_path_factory, ("b", "r", "x"), columns, grid_rows(columns))


def block_grid(n_blocks=3, n_rows=12):
    """(names, columns, rows) of a grid with a block key, a row key and float cells."""
    cells = np.arange(n_blocks * n_rows).reshape(n_blocks, n_rows) / 7.0
    columns = (np.arange(n_blocks)[:, None], np.arange(n_rows), cells)
    rows = [(b, r, float(cells[b, r])) for b in range(n_blocks) for r in range(n_rows)]
    return ("b", "r", "x"), columns, rows


def logged_units(mp, log):
    """Append "pid lo hi" to log for each unit any process formats; returns the caller's pid."""
    texts = csvio.Grid.texts

    def recorded_texts(self, lo, hi):
        with open(log, "a") as fh:  # one short append per unit, whichever process takes it
            fh.write(f"{os.getpid()} {lo} {hi}\n")
        return texts(self, lo, hi)

    mp.setattr(csvio.Grid, "texts", recorded_texts)
    return os.getpid()


def units_by_pid(log) -> dict:
    """pid -> sorted (lo, hi) units it formatted, from a logged_units log."""
    out = {}
    for line in log.read_text().splitlines() if log.exists() else ():
        pid, lo, hi = line.split()
        out.setdefault(int(pid), []).append((int(lo), None if hi == "None" else int(hi)))
    return {pid: sorted(units) for pid, units in out.items()}


# block_grid's 36 rows in chunks of 2 are 18 units of one chunk each; the last runs to the end
UNITS = [(k, k + 1) for k in range(17)] + [(17, None)]


def wait_for(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


@pytest.mark.parametrize("cpus, n_forks", [(1, 0), (2, 1), (3, 2), (16, 8)])
def test_write_csv_forks_one_process_per_range_after_the_first(tmp_path, monkeypatch, cpus, n_forks):
    # 18 units, taken by at most 18 // 2 = 9 processes, the caller and n_forks helpers
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    placed = on_cpus(monkeypatch, cpus)
    forks = counted_forks(monkeypatch)
    log = tmp_path / "units.log"
    parent = logged_units(monkeypatch, log)
    names, columns, rows = block_grid()
    write_csv(tmp_path / "out" / "t.csv", names, csvio.grid_lines(*columns), "h")
    assert len(forks) == n_forks
    taken = units_by_pid(log)
    if n_forks:
        # every unit is formatted once, by the caller or one of its helpers
        assert set(taken) <= {parent, *forks}
        assert sorted(u for units in taken.values() for u in units) == UNITS
    else:
        assert taken == {parent: [(0, None)]}  # no fork: the caller writes the whole grid at once
    # from its first fork the caller sits on the first CPU, then gets its whole set back
    assert placed == ([[0], list(range(cpus))] if n_forks else [])
    assert (tmp_path / "out" / "t.csv").read_bytes() == reference_csv(names, rows, "h")
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["t.csv"]


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs two CPUs")
def test_forked_ranges_run_on_other_cpus_than_the_parents(tmp_path, monkeypatch):
    # a kernel that does not balance load (a cpuset with sched_load_balance 0)
    # leaves a forked helper on its caller's CPU unless the helper is moved
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    cpus, texts, parent = sorted(os.sched_getaffinity(0)), csvio.Grid.texts, os.getpid()
    n_helpers = min(len(cpus), 9) - 1

    def recorded_texts(self, lo, hi):
        (tmp_path / f"{os.getpid()}.{lo}.cpus").write_text(repr(sorted(os.sched_getaffinity(0))))
        if os.getpid() != parent:
            time.sleep(0.02)  # leave units for every helper and for the caller
        return texts(self, lo, hi)

    def placed() -> dict:
        out = {}
        for p in tmp_path.glob("*.cpus"):
            out.setdefault(int(p.name.split(".")[0]), set()).add(p.read_text())
        return out

    monkeypatch.setattr(csvio.Grid, "texts", recorded_texts)
    names, columns, rows = block_grid()
    with csvio.emission():
        write_csv(tmp_path / "out" / "t.csv", names, csvio.grid_lines(*columns), "h")
        # the caller stays on the first CPU for the rest of the block
        assert sorted(os.sched_getaffinity(0)) == cpus[:1]
        wait_for(lambda: len(placed()) == n_helpers)
    assert sorted(os.sched_getaffinity(0)) == cpus
    by_pid = placed()
    assert by_pid.pop(parent) == {repr(cpus[:1])}  # the caller formats what is left at exit
    assert list(by_pid.values()) == [{repr(cpus[1:])}] * n_helpers
    assert (tmp_path / "out" / "t.csv").read_bytes() == reference_csv(names, rows, "h")


@pytest.mark.parametrize("helper", ["stalls", "takes_none", "takes_all"])
def test_written_bytes_do_not_depend_on_which_process_takes_which_unit(tmp_path, monkeypatch, helper):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    on_cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    log = tmp_path / "units.log"
    parent = logged_units(monkeypatch, log)
    take = csvio._Units.take

    def helper_take(self):
        if os.getpid() != parent:
            if helper == "takes_none":
                os._exit(0)
            if helper == "stalls":
                time.sleep(0.5)  # the caller formats the units meanwhile
        take(self)

    monkeypatch.setattr(csvio._Units, "take", helper_take)
    names, columns, rows = block_grid()
    target = tmp_path / "out" / "t.csv"
    with csvio.emission():
        write_csv(target, names, csvio.grid_lines(*columns), "h")
        if helper == "takes_all":
            wait_for(lambda: sum(map(len, units_by_pid(log).values())) == len(UNITS))
    assert len(forks) == 1
    taken = units_by_pid(log)
    assert sorted(u for units in taken.values() for u in units) == UNITS
    if helper == "takes_all":
        assert list(taken) == forks
    else:
        assert parent in taken and len(taken[parent]) >= len(UNITS) - 1
    assert target.read_bytes() == reference_csv(names, rows, "h")
    assert [p.name for p in target.parent.iterdir()] == ["t.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n_cells, n_forks", [(1, 0), (2, 1)])
def test_a_grid_below_the_fork_threshold_forks_no_helper(tmp_path, monkeypatch, n_cells, n_forks):
    # 2 blocks of MIN_CELL_CHUNKS - 1 rows in chunks of 2: enough units for a helper on 2 CPUs,
    # but one float cell column holds one chunk's worth of cells less than the threshold
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    on_cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    n_rows = csvio._Units.MIN_CELL_CHUNKS - 1
    cells = np.arange(2 * n_rows).reshape(2, n_rows) / 7.0
    columns = (np.arange(2)[:, None], np.arange(n_rows), *(cells + k for k in range(n_cells)))
    names = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp_path / "t.csv", names, csvio.grid_lines(*columns), "h")
    assert len(forks) == n_forks
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(names, grid_rows(columns), "h")


@pytest.mark.parametrize("failing", [False, True], ids=["ok", "failing"])
def test_block_exit_formats_helperless_grids_first(tmp_path, monkeypatch, failing):
    # a grid of 2 units has no helper; the caller formats it at block exit
    # before any unit of the grid queued ahead of it, whose helper stalls
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    on_cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    log = tmp_path / "units.log"
    parent = logged_units(monkeypatch, log)
    texts, take = csvio.Grid.texts, csvio._Units.take

    def failing_texts(self, lo, hi):
        if failing and self.rows == 4:
            raise RuntimeError("unit failed")
        return texts(self, lo, hi)

    def helper_take(self):
        if os.getpid() != parent:
            time.sleep(0.3)
        take(self)

    monkeypatch.setattr(csvio.Grid, "texts", failing_texts)
    monkeypatch.setattr(csvio._Units, "take", helper_take)
    out = tmp_path / "out"
    big, small = block_grid(), block_grid(n_blocks=1, n_rows=4)

    def write_both():
        with pytest.raises(RuntimeError) if failing else contextlib.nullcontext():
            with csvio.emission():
                write_csv(out / "big.csv", big[0], csvio.grid_lines(*big[1]), "h")
                write_csv(out / "small.csv", small[0], csvio.grid_lines(*small[1]), "h")

    write_both()
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if failing:
        # a failed unit leaves no file, not even the one whose units had all been formatted
        assert list(out.iterdir()) == []
        # nor on one CPU, where the big grid has no helper either and is formatted first
        on_cpus(monkeypatch, 1)
        write_both()
        assert len(forks) == 1
        assert list(out.iterdir()) == []
        return
    order = [tuple(line.split()) for line in log.read_text().splitlines() if int(line.split()[0]) == parent]
    assert order[0] == (str(parent), "0", "None")  # the small grid, as one unit
    assert len(order) > 1  # then units of the big grid, while the helper stalls
    assert (out / "big.csv").read_bytes() == reference_csv(big[0], big[2], "h")
    assert (out / "small.csv").read_bytes() == reference_csv(small[0], small[2], "h")
    assert sorted(p.name for p in out.iterdir()) == ["big.csv", "small.csv"]


def test_a_helper_failing_on_a_later_grid_leaves_no_earlier_file(tmp_path, monkeypatch):
    # both grids have a helper; the second grid's raises. Every helper is reaped before the
    # first file is moved into place, so a.csv, whose parts were all formatted, is not written
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    on_cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    texts, parent, failed = csvio.Grid.texts, os.getpid(), tmp_path / "helper.failed"
    first, second = block_grid(), block_grid(n_blocks=4, n_rows=10)

    def failing_texts(self, lo, hi):
        if self.rows == 40:
            if os.getpid() != parent:
                failed.touch()
                raise RuntimeError("unit failed")
            wait_for(failed.exists)  # the caller takes no unit of it before its helper has failed
        yield from texts(self, lo, hi)

    monkeypatch.setattr(csvio.Grid, "texts", failing_texts)
    out = tmp_path / "out"
    with pytest.raises(ChildProcessError):
        with csvio.emission():
            write_csv(out / "a.csv", first[0], csvio.grid_lines(*first[1]), "h")
            write_csv(out / "b.csv", second[0], csvio.grid_lines(*second[1]), "h")
    assert len(forks) == 2
    assert list(out.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def logged_chain(mp, log):
    """Append to log, from any process, "pid read <blocking>" for each read of a grid's token,
    "pid write <unit>" for each write of it, "pid park <unit>" for each unit parked and
    "pid sendfile <bytes>" for each copy; returns the caller's pid."""
    pipes, pipe, read, write, sendfile, park = [], os.pipe, os.read, os.write, os.sendfile, csvio._Units._park

    def note(line):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {line}\n")

    def token(fd, end):  # each _Units makes its index pipe and then its token
        return any(p[end] == fd for p in pipes[1::2])

    def logged_read(fd, n):
        if token(fd, 0):
            note(f"read {os.get_blocking(fd)}")
        return read(fd, n)

    def logged_write(fd, data):
        if token(fd, 1):
            note(f"write {int.from_bytes(data, 'little')}")
        return write(fd, data)

    def logged_sendfile(out_fd, in_fd, offset, count):
        if n := sendfile(out_fd, in_fd, offset, count):
            note(f"sendfile {n}")
        return n

    def logged_park(self, held):
        park(self, held)
        for k in held:
            note(f"park {k}")  # once the part has its name

    mp.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    mp.setattr(os, "read", logged_read)
    mp.setattr(os, "write", logged_write)
    mp.setattr(os, "sendfile", logged_sendfile)
    mp.setattr(csvio._Units, "_park", logged_park)
    return os.getpid()


def chain_events(log, event) -> list:
    """(pid, value) of each logged_chain line of one event, in order."""
    lines = [line.split() for line in log.read_text().splitlines()] if log.exists() else []
    return [(int(pid), value) for pid, name, value in lines if name == event]


def test_each_unit_goes_into_the_file_in_turn_and_only_a_held_up_one_is_parked(tmp_path):
    # each unit goes into the file from the process that formats it, once its turn has come; only a
    # unit the chain has not reached when its process finishes the next one is parked
    names, columns, rows = block_grid()
    lines = reference_csv(names, rows, "h").splitlines(keepends=True)
    target = tmp_path / "out" / "t.csv"
    with pytest.MonkeyPatch.context() as mp:
        # no stall: each process starts a unit once the token has been handed on at it
        mp.setattr(csvio, "CHUNK_ROWS", 2)
        on_cpus(mp, 2)
        forks = counted_forks(mp)
        log = tmp_path / "no_stall.log"
        logged_chain(mp, log)
        texts = csvio.Grid.texts

        def in_turn_texts(self, lo, hi):
            wait_for(lambda: str(lo) in [unit for _, unit in chain_events(log, "write")])
            yield from texts(self, lo, hi)

        mp.setattr(csvio.Grid, "texts", in_turn_texts)
        write_csv(target, names, csvio.grid_lines(*columns), "h")
    assert len(forks) == 1
    assert target.read_bytes() == b"".join(lines)
    assert chain_events(log, "sendfile") == [] and chain_events(log, "park") == []
    # no process waits for the token: every read of it is a non-blocking one
    assert {blocking for _, blocking in chain_events(log, "read")} == {"False"}
    assert [p.name for p in target.parent.iterdir()] == ["t.csv"]

    with pytest.MonkeyPatch.context() as mp:
        # the helper stalls inside unit 0, holding the token, until the caller has formatted the rest
        mp.setattr(csvio, "CHUNK_ROWS", 2)
        on_cpus(mp, 2)
        forks = counted_forks(mp)
        log, units = tmp_path / "stalled.log", tmp_path / "units.log"
        parent = logged_chain(mp, log)
        texts = csvio.Grid.texts

        def stalled_texts(self, lo, hi):
            if os.getpid() != parent and lo == 0:
                wait_for(lambda: len(chain_events(log, "park")) == len(UNITS) - 2)
            yield from texts(self, lo, hi)

        mp.setattr(csvio.Grid, "texts", stalled_texts)
        logged_units(mp, units)
        with csvio.emission():
            write_csv(target, names, csvio.grid_lines(*columns), "h")
            wait_for(lambda: units_by_pid(units))  # the helper has taken unit 0
    assert len(forks) == 1
    assert target.read_bytes() == b"".join(lines)
    assert units_by_pid(units) == {forks[0]: [(0, 1)], parent: UNITS[1:]}
    # the caller parked each of its units once it had finished the next, and kept the last in memory
    assert chain_events(log, "park") == [(parent, str(k)) for k in range(1, len(UNITS) - 1)]
    # the helper appended the parked units once the chain got there; the caller's last unit went
    # into the file from memory, after the helper was reaped
    sent = chain_events(log, "sendfile")
    assert {pid for pid, _ in sent} == {forks[0]}
    assert sum(int(n) for _, n in sent) == len(b"".join(lines[4:-2]))  # units 1 .. 16, two rows each
    assert {blocking for _, blocking in chain_events(log, "read")} == {"False"}
    assert [p.name for p in target.parent.iterdir()] == ["t.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
def test_two_writes_of_one_path_in_one_block_leave_the_later_grid(tmp_path, monkeypatch, cpus):
    # each queued grid has temporary names of its own, so the later grid's bytes win, as outside a block
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    on_cpus(monkeypatch, cpus)
    forks = counted_forks(monkeypatch)
    first, second = block_grid(), block_grid(n_blocks=4, n_rows=10)
    target = tmp_path / "t.csv"
    with csvio.emission():
        write_csv(target, first[0], csvio.grid_lines(*first[1]), "h")
        write_csv(target, second[0], csvio.grid_lines(*second[1]), "h")
    assert len(forks) == (2 if cpus == 2 else 0)
    assert target.read_bytes() == reference_csv(second[0], second[2], "h")
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


@pytest.mark.parametrize("why", ["one_cpu", "no_affinity", "no_fork", "second_thread"])
def test_write_csv_does_not_fork_where_a_fork_is_missing_or_unsafe(tmp_path, monkeypatch, why):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    placed = on_cpus(monkeypatch, 1 if why == "one_cpu" else 3)
    forks = counted_forks(monkeypatch)
    monkeypatch.delattr(os, "sendfile")  # Windows lacks it and macOS/BSD send only to a socket
    monkeypatch.delattr(os, "set_blocking")  # Windows lacks it before Python 3.12
    if why == "no_affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    if why == "no_fork":
        monkeypatch.delattr(os, "fork")
    names, columns, rows = block_grid()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if why == "second_thread":
        thread.start()
    try:
        write_csv(tmp_path / "t.csv", names, csvio.grid_lines(*columns), "h")
    finally:
        stop.set()
    if why == "second_thread":
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert forks == [] and placed == []
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(names, rows, "h")


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("failing", ["child", "parent", "block"])
def test_failed_range_leaves_no_part_file_and_no_child(tmp_path, monkeypatch, failing, existing):
    # child: a helper's unit raises; parent: the caller's unit raises; block: the
    # caller raises inside the emission block after the write was queued
    target = tmp_path / "out" / "t.csv"
    target.parent.mkdir()
    if existing:
        target.write_bytes(b"old\n")
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    placed = on_cpus(monkeypatch, 3)
    forks = counted_forks(monkeypatch)
    texts, parent, failed = csvio.Grid.texts, os.getpid(), tmp_path / "helper.failed"

    def failing_texts(self, lo, hi):
        if os.getpid() == parent:
            if failing == "parent":
                raise RuntimeError("unit failed")
            wait_for(failed.exists if failing == "child" else lambda: True)
        elif failing == "child":
            failed.touch()
            raise RuntimeError("unit failed")
        else:
            time.sleep(60)  # a helper still formatting when the caller fails
        yield from texts(self, lo, hi)

    monkeypatch.setattr(csvio.Grid, "texts", failing_texts)
    names, columns, _ = block_grid()
    start = time.monotonic()
    with pytest.raises(ChildProcessError if failing == "child" else RuntimeError):
        with csvio.emission():
            write_csv(target, names, csvio.grid_lines(*columns), "h")
            if failing == "block":
                raise RuntimeError("the caller failed after queueing")
    assert time.monotonic() - start < 30  # the caller killed its helpers instead of waiting
    assert len(forks) == 2
    assert placed == [[0], [0, 1, 2]]  # the caller got its whole CPU set back
    assert [p.name for p in target.parent.iterdir()] == (["t.csv"] if existing else [])
    if existing:
        assert target.read_bytes() == b"old\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_solver_failing_mid_run_writes_no_snapshot_and_leaves_no_helper(tmp_path, monkeypatch):
    on_cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    log = tmp_path / "units.log"
    parent = logged_units(monkeypatch, log)
    t_end, steps = validate_config(load_raw_config(preset="godel")).simulation.t_end, ContinuumSolver._steps

    def failing_steps(self, times):
        yield from steps(self, times)
        if self.time > t_end / 2:
            # the helper has taken a unit of the snapshot CSV, which streams as the continuum steps
            wait_for(lambda: any(pid != parent for pid in units_by_pid(log)))
            raise CflViolation("the speed broke its bound mid-run")

    monkeypatch.setattr(ContinuumSolver, "_steps", failing_steps)
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "godel", "--set", "simulation.solver=continuum", "--out", str(out)]) == 4
    assert len(forks) == 1
    # no snapshots_*.csv, .part or .tmp file, and no helper left
    assert list(out.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_streamed_grid_hands_over_each_unit_index_once_in_order_with_no_empty_write(tmp_path, monkeypatch):
    # block_grid's 18 units, 6 to a block, handed over as a solver's levels are: each block as often
    # as a level ends inside it, then whatever is left when write_csv adopts the grid
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    on_cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    names, columns, rows = block_grid()
    grid, target, writes, write = csvio.grid_lines(*columns), tmp_path / "t.csv", [], os.write
    units = []

    def recorded_write(fd, data):
        if units and fd == units[0].w and os.getpid() == parent:
            writes.append(bytes(data))
        return write(fd, data)

    parent = os.getpid()
    monkeypatch.setattr(os, "write", recorded_write)
    with csvio.emission():
        publish = csvio.stream_csv(target, names, grid, "h")
        units.append(publish.__self__)
        for blocks in (1, 1, 1, 2, 2, 3, 3):
            publish(blocks)
        write_csv(target, names, grid, "h")
    assert len(forks) == 1
    assert [len(data) for data in writes] == [6 * 4] * 3
    indices = [int.from_bytes(data[i : i + 4], "little") for data in writes for i in range(0, len(data), 4)]
    assert indices == list(range(len(UNITS)))
    assert target.read_bytes() == reference_csv(names, rows, "h")


# Two grids streamed in one block, the second queued, and its helper forked, before the first
# grid's rows are final. Once the first is adopted its helper must find its pipe's end, and
# exit, while the second grid still streams; it cannot if the second grid's helper holds the
# first pipe's write end open.
STREAMED_PAIR = """
import os
import sys
from pathlib import Path

import numpy as np

from fluxline import csvio

csvio.CHUNK_ROWS = 2
# a pretended two-CPU affinity set, on which no process is placed
os.sched_getaffinity = lambda pid: {0, 1}
os.sched_setaffinity = lambda pid, cpus: None
forks, fork = [], os.fork


def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid


os.fork = counted_fork
out, names = Path(sys.argv[1]), ("b", "r", "x")
columns = (np.arange(3)[:, None], np.arange(12), np.arange(36).reshape(3, 12) / 7.0)
first, second = csvio.grid_lines(*columns), csvio.grid_lines(*columns)
with csvio.emission():
    csvio.stream_csv(out / "a.csv", names, first, "h")(1)
    csvio.stream_csv(out / "b.csv", names, second, "h")(2)
    csvio.write_csv(out / "a.csv", names, first, "h")
    os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
    csvio.write_csv(out / "b.csv", names, second, "h")
print(len(forks))
"""


def test_no_helper_holds_another_grids_pipe_open(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    # a session of its own, so that a hang ends with every helper it forked killed
    proc = subprocess.Popen([sys.executable, "-c", STREAMED_PAIR, str(tmp_path)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a grid's helper never found the end of its pipe")
    assert proc.returncode == 0, err
    assert out == "2\n"
    names, _, rows = block_grid()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes() == reference_csv(names, rows, "h")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]


# A process killed outright: a helper while it holds the token (on two pretended CPUs), one of
# two helpers mid-grid (on three), or the caller while its helper formats a streamed grid.
KILLED = """
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np

from fluxline import csvio

case, out = sys.argv[1], Path(sys.argv[2])
csvio.CHUNK_ROWS = 2
os.sched_getaffinity = lambda pid: set(range(3 if case == "one_of_two_helpers" else 2))
os.sched_setaffinity = lambda pid, cpus: None
parent, texts = os.getpid(), csvio.Grid.texts


def killing_texts(self, lo, hi):
    if os.getpid() != parent:
        if case == "caller":
            print(os.getpid(), flush=True)
            (out / "started").touch()
            time.sleep(0.05)
        elif lo == (0 if case == "helper_holding_the_token" else 5):
            os.kill(os.getpid(), signal.SIGKILL)  # unit 0's header is in the file: the helper holds the token
    yield from texts(self, lo, hi)


csvio.Grid.texts = killing_texts
names = ("b", "r", "x")
grid = csvio.grid_lines(np.arange(3)[:, None], np.arange(12), np.arange(36).reshape(3, 12) / 7.0)
try:
    with csvio.emission():
        if case == "caller":
            csvio.stream_csv(out / "t.csv", names, grid, "h")(1)
            while not (out / "started").exists():
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGKILL)
        csvio.write_csv(out / "t.csv", names, grid, "h")
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)  # a helper has died
except ChildProcessError as exc:
    print(type(exc).__name__)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no helper left")
print(sorted(p.name for p in out.iterdir()))
"""


@pytest.mark.parametrize("case", ["helper_holding_the_token", "one_of_two_helpers", "caller"])
def test_a_killed_process_leaves_no_file_and_no_helper(tmp_path, case):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    start = time.monotonic()
    # a session of its own, so that a hang ends with every helper it forked killed; stdout ends once
    # every process holding it has exited, a helper of a killed caller too
    proc = subprocess.Popen([sys.executable, "-c", KILLED, case, str(tmp_path)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a process waited for one that had been killed")
    assert time.monotonic() - start < 30
    if case == "caller":
        # the helper, which printed its pid for each unit it started, found its pipe's end once the
        # caller was gone and exited: stdout ended
        assert proc.returncode == -signal.SIGKILL
        assert len(set(out.split())) == 1
        return
    assert proc.returncode == 0, err
    assert out == "ChildProcessError\nno helper left\n[]\n"


def failing_rows(n_good):
    for i in range(n_good):
        yield f"{i},{float(i)}\n"
    raise RuntimeError("row source failed")


def test_failed_csv_write_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 4)
    target = tmp_path / "out" / "t.csv"
    with pytest.raises(RuntimeError):
        write_csv(target, ("i", "x"), failing_rows(10), "h")
    assert list(target.parent.iterdir()) == []


def test_failed_csv_write_keeps_previous_file(tmp_path):
    target = tmp_path / "t.csv"
    write_csv(target, ("i", "x"), csvio.grid_lines(1, 2.0), "h")
    before = target.read_bytes()
    with pytest.raises(RuntimeError):
        write_csv(target, ("i", "x"), failing_rows(3), "h")
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_write_json_refuses_non_finite_and_leaves_no_file(tmp_path):
    for bad in (math.nan, math.inf, -math.inf, np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            write_json(tmp_path / "v.json", {"x": bad}, "h")
    assert list(tmp_path.iterdir()) == []
    path = write_json(tmp_path / "v.json", {"x": 1.5}, "h")
    assert json.loads(path.read_text()) == {"x": 1.5, "config_hash": "h"}


def test_write_json_writes_an_array_as_its_list(tmp_path):
    values = np.array([[0.1, -0.0, 1e-300], [3.0, 2.5, 1.0 / 3.0]])
    payload = {"grid": {"dt": np.float64(0.25)}, "values": values, "front": np.arange(3.0)}
    listed = {"grid": {"dt": 0.25}, "values": values.tolist(), "front": [0.0, 1.0, 2.0]}
    got = write_json(tmp_path / "a.json", payload, "h").read_bytes()
    assert got == write_json(tmp_path / "b.json", listed, "h").read_bytes()


def test_write_json_refuses_any_other_object_json_cannot_encode(tmp_path):
    for unencodable in ({1, 2}, np.float32(1.5), object()):
        with pytest.raises(TypeError):
            write_json(tmp_path / "v.json", {"x": unencodable}, "h")
    assert list(tmp_path.iterdir()) == []


def assert_writes_reference(tmp_path_factory, rows, expected):
    """rows are one line per expected row, holding its cells, and write expected's bytes."""
    lines = list(rows)
    assert all(line.endswith("\n") for line in lines)
    assert [line[:-1].split(",") for line in lines] == [[reference_cell(x) for x in row] for row in expected]
    columns = [f"c{i}" for i in range(len(expected[0]))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, columns, lines, "h")
    assert path.read_bytes() == reference_csv(columns, expected, "h")


def random_floats(rng, shape):
    x = rng.standard_normal(shape)
    x.flat[:: 5] = np.nan
    return x


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_feasibility_rows_keep_nested_loop_order(tmp_path_factory, n_p, n_d, n_r, seed):
    rng = np.random.default_rng(seed)
    report = FeasibilityReport(
        param_name="p",
        param_values=rng.standard_normal(n_p),
        theta_dc_values=rng.standard_normal(n_d),
        r_values=rng.standard_normal(n_r),
        status=rng.integers(0, 5, size=(n_p, n_d, n_r)),
        theta_total=random_floats(rng, (n_p, n_d, n_r)),
    )
    expected = []
    for i, p in enumerate(report.param_values):
        for j, d in enumerate(report.theta_dc_values):
            for k, r in enumerate(report.r_values):
                expected.append(
                    (float(p), float(d), float(r), int(report.status[i, j, k]), float(report.theta_total[i, j, k]))
                )
    assert_writes_reference(tmp_path_factory, report.rows(), expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_program_rows_keep_nested_loop_order(tmp_path_factory, n, m, seed):
    rng = np.random.default_rng(seed)
    theta_dc = float(rng.uniform(-1.0, 1.0))
    program = FluxProgram(
        theta_dc=theta_dc,
        theta_ac=random_floats(rng, (n, m)),
        cell_coords=rng.standard_normal(n),
        times=rng.standard_normal(m),
        speed_sq=rng.standard_normal((n, m)),
        annotations=rng.integers(0, 2, size=(n, m)),
        hot_cells=np.zeros(m, dtype=int),
        background_c=1.0,
        coord_window=(0.0, 1.0),
    )
    expected = []
    for i in range(n):
        for j, t in enumerate(program.times):
            expected.append((
                i,
                j,
                float(program.cell_coords[i]),
                float(t),
                theta_dc,
                float(program.theta_ac[i, j]),
                float(theta_dc + program.theta_ac[i, j]),
                float(program.speed_sq[i, j]),
                int(program.annotations[i, j]),
            ))
    assert_writes_reference(tmp_path_factory, _program_rows(program), expected)
