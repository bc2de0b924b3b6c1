"""CSV/JSON emission: byte contract, row order of the producers, atomic writes."""

import json
import math
import string

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
STRS = st.text(alphabet=string.ascii_letters + string.digits + "_-", max_size=12)
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


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)), max_size=30))
    return [f"c{i}" for i in range(len(kinds))], rows


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from([None, "0123456789abcdef"]))
@example(
    (["x", "n", "s"], [(math.nan, np.int64(-3), "ok"), (-0.0, 7, ""), (math.inf, 0, "a")]),
    "0123456789abcdef",
)
def test_write_csv_matches_cell_by_cell_reference(tmp_path_factory, table, config_hash):
    columns, rows = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, columns, iter(rows), config_hash)
    assert path.read_bytes() == reference_csv(columns, rows, config_hash)


def test_write_csv_streams_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 3)
    rows = [(i, i / 7.0, f"s{i}") for i in range(11)]
    write_csv(tmp_path / "t.csv", ("i", "x", "s"), rows, "h")
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(("i", "x", "s"), rows, "h")
    cols = (np.arange(11), np.arange(11) / 7.0, np.array([f"s{i}" for i in range(11)]))
    write_csv(tmp_path / "c.csv", ("i", "x", "s"), csvio.column_rows(*cols), "h")
    assert (tmp_path / "c.csv").read_bytes() == reference_csv(("i", "x", "s"), rows, "h")


def test_column_rows_gives_python_scalars():
    rows = list(csvio.column_rows(np.array([1, 2], dtype=np.int64), np.array([0.5, -0.0]), np.array(["a", "b"])))
    assert rows == [(1, "0.5", "a"), (2, "-0", "b")]
    assert [type(x) for x in rows[0]] == [int, str, str]


def nan_with(sign: int, payload: int) -> float:
    bits = (sign << 63) | (0x7FF << 52) | payload
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# few values, so that they repeat within a chunk; 0.0 and -0.0 and the NaNs
# are equal or unordered as floats but distinct as bit patterns
POOL = [0.0, -0.0, math.nan, nan_with(1, 1 << 51), nan_with(0, (1 << 51) | 5), math.inf, -math.inf,
        5e-324, 1e308, 0.1, 1.0 / 3.0]
COLUMN_KINDS = ("float64", "float32", "int", "strided")


@st.composite
def column_tables(draw):
    n = draw(st.integers(0, 40))
    values = st.lists(st.sampled_from(POOL), min_size=2 * n, max_size=2 * n)
    columns = []
    for kind in draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=5)):
        if kind == "int":
            columns.append(np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=np.int64))
            continue
        x = np.array(draw(values))
        if kind == "float32":
            with np.errstate(over="ignore"):
                x = x.astype(np.float32)
        columns.append(x[::2] if kind == "strided" else x[:n])
    return columns


@settings(max_examples=200, deadline=None)
@given(column_tables(), st.sampled_from([1, 2, 3, 7, 8192]))
@example([np.array([0.0, -0.0, 0.0, nan_with(1, 3), math.nan])], 8192)
def test_column_rows_writes_the_bytes_of_each_float(tmp_path_factory, columns, chunk_rows):
    names = [f"c{i}" for i in range(len(columns))]
    rows = list(zip(*(c.tolist() for c in columns)))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "CHUNK_ROWS", chunk_rows)
        write_csv(path, names, csvio.column_rows(*columns), "h")
    assert path.read_bytes() == reference_csv(names, rows, "h")


def failing_rows(n_good):
    for i in range(n_good):
        yield (i, float(i))
    raise RuntimeError("row source failed")


def test_failed_csv_write_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(csvio, "CHUNK_ROWS", 4)
    target = tmp_path / "out" / "t.csv"
    with pytest.raises(RuntimeError):
        write_csv(target, ("i", "x"), failing_rows(10), "h")
    assert list(target.parent.iterdir()) == []


def test_failed_csv_write_keeps_previous_file(tmp_path):
    target = tmp_path / "t.csv"
    write_csv(target, ("i", "x"), [(1, 2.0)], "h")
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
    """rows (cells of one type each, str for float columns) write expected's bytes."""
    rows = list(rows)
    assert [type(x) for x in rows[0]] == [type(x) if isinstance(x, int) else str for x in expected[0]]
    columns = [f"c{i}" for i in range(len(expected[0]))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, columns, rows, "h")
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
