"""CSV/JSON emission: byte contract, row order of the producers, atomic writes."""

import json
import math
import os
import string
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxline import csvio
from fluxline.cli import _program_rows
from fluxline.csvio import format_float, write_csv, write_json
from fluxline.synthesis import FeasibilityReport, FluxProgram

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
# '%' is the template's own escape character, so text cells carry it too
STRS = st.text(alphabet=string.ascii_letters + string.digits + "_-%", max_size=12)
CELLS = {"float": FLOATS, "int": INTS, "str": STRS}


def reference_cell(x) -> str:
    """The old per-cell formatting: str(int) for ints, str as is, else format_float."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format_float(x)


def reference_csv(columns, rows, config_hash=None) -> bytes:
    lines = [] if config_hash is None else [f"# config_hash={config_hash}"]
    lines.append(",".join(columns))
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
        columns.append(as_column(kind, cells, shape))
        values.append(object_array(cells, shape))
    return columns, values


@settings(max_examples=300, deadline=None)
@given(grids(), st.sampled_from([None, "0123456789abcdef"]))
@example(
    ([np.array([math.nan, -0.0, math.inf]), np.array([-3, 7, 0]), np.array(["ok", "", "a%"])],
     [object_array([math.nan, -0.0, math.inf]), object_array([np.int64(-3), 7, 0]), object_array(["ok", "", "a%"])]),
    "0123456789abcdef",
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


@pytest.mark.parametrize("why", ["one_cpu", "no_affinity", "no_fork", "second_thread"])
def test_write_csv_does_not_fork_where_a_fork_is_missing_or_unsafe(tmp_path, monkeypatch, why):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 2)
    placed = on_cpus(monkeypatch, 1 if why == "one_cpu" else 3)
    forks = counted_forks(monkeypatch)
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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            write_json(tmp_path / "v.json", {"x": bad}, "h")
    assert list(tmp_path.iterdir()) == []
    path = write_json(tmp_path / "v.json", {"x": 1.5}, "h")
    assert json.loads(path.read_text()) == {"x": 1.5, "config_hash": "h"}


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
        background_c=1.0,
        c0=1.0,
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
