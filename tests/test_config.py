"""Strict config parsing: field paths, unknown keys, presets, overrides."""

import dataclasses
import inspect
import json
import math
import re
import typing
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxline.config import (
    ANGLES,
    PRESETS,
    ConfigError,
    FeasibilitySettings,
    OutputSettings,
    RayLaunch,
    SamplingSettings,
    SynthesisSettings,
    apply_overrides,
    config_hash,
    load_raw_config,
    validate_config,
)
from fluxline.cli import main
from fluxline.metrics import (
    KINDS,
    AlcubierreParams,
    FlatParams,
    GodelParams,
    KerrExtremeParams,
    SpeedProfile,
    TabulatedParams,
)
from fluxline.wavelab import GaussianPulse, SimulationSpec, trace_null_geodesic

MINIMAL = {"metric": {"kind": "flat"}}


def test_minimal_config_valid():
    run = validate_config(MINIMAL)
    assert run.profile.kind == "flat"
    assert run.synthesis.theta_dc == 0.0
    assert run.output.directory == "out"


def test_unknown_top_level_key_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        validate_config({"metric": {"kind": "flat"}, "bogus": 1})
    assert "config" in str(err.value) and "bogus" in str(err.value)


def test_unknown_nested_key_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        validate_config({"metric": {"kind": "godel", "a": 1.0, "spin": 3}})
    assert "metric" in str(err.value) and "spin" in str(err.value)


def test_missing_required_field_names_path():
    with pytest.raises(ConfigError) as err:
        validate_config({"metric": {"kind": "godel"}})
    assert "metric.a" in str(err.value)


def test_wrong_type_names_path():
    with pytest.raises(ConfigError) as err:
        validate_config({"metric": {"kind": "godel", "a": "big"}})
    assert "metric.a" in str(err.value)


def test_angle_given_both_ways_rejected():
    doc = {
        "metric": {"kind": "flat"},
        "synthesis": {"theta_dc": 0.1, "theta_dc_over_pi": 0.1},
    }
    with pytest.raises(ConfigError):
        validate_config(doc)


def test_angle_in_pi_units():
    doc = {"metric": {"kind": "flat"}, "synthesis": {"theta_dc_over_pi": -0.25}}
    run = validate_config(doc)
    assert run.synthesis.theta_dc == pytest.approx(-0.25 * math.pi)


def test_dc_outside_window_rejected():
    doc = {"metric": {"kind": "flat"}, "synthesis": {"theta_dc_over_pi": 0.5}}
    with pytest.raises(ConfigError):
        validate_config(doc)


def test_grid_spec_expansion():
    doc = {
        "metric": {"kind": "flat"},
        "sampling": {"r": {"start": 0.0, "stop": 1.0, "num": 5}, "t": [0.0, 1.0]},
    }
    run = validate_config(doc)
    np.testing.assert_allclose(run.sampling.r, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(run.sampling.t, [0.0, 1.0])


def test_interval_validation():
    doc = {"metric": {"kind": "flat"}, "synthesis": {"coord_window": [2.0, 1.0]}}
    with pytest.raises(ConfigError):
        validate_config(doc)


def test_alcubierre_smooth_requires_sigma():
    doc = {"metric": {"kind": "alcubierre", "vs_over_c": 1.0, "bubble_radius_R": 1.0}}
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert "sigma" in str(err.value)


def test_tabulated_profile_roundtrip(tmp_path):
    csv = tmp_path / "table.csv"
    csv.write_text("r,ctilde_sq\n0.0,1.0\n1.0,2.0\n2.0,5.0\n")
    doc = {"metric": {"kind": "tabulated", "csv_path": str(csv)}}
    run = validate_config(doc)
    prof = run.profile
    assert prof.kind == "tabulated"
    assert prof.speed_sq(0.5) == pytest.approx(1.5)
    assert prof.valid_range == (0.0, 2.0)


def test_tabulated_table_skips_comments_and_blank_lines(tmp_path):
    csv = tmp_path / "table.csv"
    csv.write_text("# from a sweep\n\nr,ctilde_sq\n0.0,1.0\n  \n# mid-table note\n2.0,5.0\n")
    prof = validate_config({"metric": {"kind": "tabulated", "csv_path": str(csv)}}).profile
    np.testing.assert_array_equal(prof.params.r, [0.0, 2.0])
    np.testing.assert_array_equal(prof.params.speed_sq, [1.0, 5.0])


def test_tabulated_profile_rejects_non_finite_values(tmp_path):
    csv = tmp_path / "table.csv"
    csv.write_text("r,ctilde_sq\n0.0,1.0\n1.0,nan\n2.0,5.0\n")
    with pytest.raises(ConfigError, match=r"^metric.csv_path: .*table.csv:3: values must be finite"):
        validate_config({"metric": {"kind": "tabulated", "csv_path": str(csv)}})


def test_all_presets_validate():
    for name, doc in PRESETS.items():
        run = validate_config(doc)
        assert run.profile is not None, name


def test_apply_overrides_parses_json_values():
    doc = apply_overrides(MINIMAL, ["synthesis.theta_dc_over_pi=-0.44", "metric.kind=godel", "metric.a=2.0"])
    assert doc["synthesis"]["theta_dc_over_pi"] == -0.44
    assert doc["metric"] == {"kind": "godel", "a": 2.0}
    # original untouched
    assert "synthesis" not in MINIMAL


def test_apply_overrides_bad_item():
    with pytest.raises(ConfigError):
        apply_overrides(MINIMAL, ["nonsense"])


def test_load_raw_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ConfigError):
        load_raw_config(None, None)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(MINIMAL))
    with pytest.raises(ConfigError):
        load_raw_config(str(cfg), "flat")
    doc = load_raw_config(str(cfg), None)
    assert doc == MINIMAL


def test_load_raw_config_unknown_preset():
    with pytest.raises(ConfigError):
        load_raw_config(None, "warp9")


def test_load_raw_config_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_raw_config(str(bad), None)


@pytest.mark.parametrize(
    "text, error",
    [
        (None, "--config: no such file: "),
        ("[1, 2]", "config: top level must be a JSON object"),
        ('{"metric": {"kind": "warp"}}', "metric.kind: must be one of "),
        ('{"sampling": {"r": [0.0]}}', "metric: required block missing"),
    ],
    ids=["missing_file", "not_an_object", "unknown_kind", "no_metric"],
)
def test_config_document_error_exits_1_naming_field(tmp_path, capsys, text, error):
    cfg = tmp_path / "config.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["profile", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {error}")
    assert not (tmp_path / "out").exists()


def test_config_that_cannot_be_read_exits_1_as_a_config_error(tmp_path, capsys):
    assert main(["profile", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: --config: cannot read {tmp_path}: Is a directory\n"
    assert not (tmp_path / "out").exists()


def test_config_hash_stable_and_sensitive():
    h1 = config_hash(MINIMAL)
    h2 = config_hash(json.loads(json.dumps(MINIMAL)))
    assert h1 == h2
    h3 = config_hash(apply_overrides(MINIMAL, ["metric.kind=godel", "metric.a=1.0"]))
    assert h3 != h1


def test_simulation_block_validation():
    doc = {
        "metric": {"kind": "flat"},
        "simulation": {"t_end": 1.0, "pulse": {"center": 0.5, "width": 0.1}, "solver": "warp"},
    }
    with pytest.raises(ConfigError):
        validate_config(doc)


def test_rays_block_validation():
    doc = {"metric": {"kind": "flat"}, "rays": {"launches": [{"r0": 0.0}]}}
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert "t_end" in str(err.value)
    doc2 = {"metric": {"kind": "flat"}, "rays": {"launches": [{"r0": 0.0, "t_end": 1.0, "direction": 3}]}}
    with pytest.raises(ConfigError):
        validate_config(doc2)


def test_feasibility_custom_requires_grids():
    doc = {"metric": {"kind": "godel", "a": 1.0}, "feasibility": {}}
    with pytest.raises(ConfigError):
        validate_config(doc)
    doc2 = {
        "metric": {"kind": "godel", "a": 1.0},
        "feasibility": {"theta_dc_over_pi": [0.2], "r": {"start": 0, "stop": 3, "num": 10}},
    }
    run = validate_config(doc2)
    assert run.feasibility.figure is None
    assert len(run.feasibility.r) == 10


# one valid block per registered kind and the params it must build; the
# tabulated block names a CSV the test writes
KIND_BLOCKS = {
    "flat": ({"kind": "flat"}, FlatParams()),
    "alcubierre": (
        {"kind": "alcubierre", "vs_over_c": 1.5, "bubble_radius_R": 2, "sigma": 4.0, "x_s0": 3.0},
        AlcubierreParams(vs_over_c=1.5, bubble_radius_R=2.0, sigma=4.0, x_s0=3.0),
    ),
    "godel": ({"kind": "godel", "a": 2, "valid_range": [-1.0, 5.0]}, GodelParams(a=2.0)),
    "kerr_extreme": (
        {"kind": "kerr_extreme", "mass_M": 1.3, "theta_over_pi": 0.25},
        KerrExtremeParams(mass_M=1.3, theta=0.25 * math.pi),
    ),
    "tabulated": ({"kind": "tabulated", "csv_path": "table.csv"}, TabulatedParams([0.0, 1.0, 2.0], [1.0, 2.0, 5.0])),
}

# (kind, key set on the valid block, value, field the error must name)
INVALID_PARAMS = [
    ("flat", "valid_range", [1.0, 0.0], "valid_range"),
    ("alcubierre", "vs_over_c", -0.5, "vs_over_c"),
    ("alcubierre", "bubble_radius_R", 0.0, "bubble_radius_R"),
    ("alcubierre", "sigma", 0.0, "sigma"),
    ("alcubierre", "top_hat", "yes", "top_hat"),
    ("godel", "a", -1.0, "a"),
    ("kerr_extreme", "mass_M", 0.0, "mass_M"),
    # (mass_M cos theta)^2 underflows to 0, so Sigma vanishes at r = 0
    ("kerr_extreme", "mass_M", 1e-200, "mass_M"),
    ("kerr_extreme", "theta_over_pi", 0.75, "theta"),
    ("tabulated", "csv_path", 3, "csv_path"),
]


def test_kind_cases_cover_the_registry():
    assert set(KIND_BLOCKS) == {kind for kind, *_ in INVALID_PARAMS} == set(KINDS)


@pytest.mark.parametrize("kind", sorted(KIND_BLOCKS))
def test_every_kind_round_trips_through_config(tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.csv").write_text("r,ctilde_sq\n0.0,1.0\n1.0,2.0\n2.0,5.0\n")
    block, params = KIND_BLOCKS[kind]
    prof = validate_config({"metric": block}).profile
    assert prof.kind == kind
    assert type(prof.params) is KINDS[kind].params
    if kind == "tabulated":
        assert prof.valid_range == (0.0, 2.0)
        np.testing.assert_array_equal(prof.params.r, params.r)
        np.testing.assert_array_equal(prof.params.speed_sq, params.speed_sq)
    else:
        assert prof.params == params
        assert prof.valid_range == tuple(block.get("valid_range", KINDS[kind].valid_range))
    r = np.linspace(0.0, 2.0, 9)
    direct = SpeedProfile(kind, params, prof.valid_range)
    np.testing.assert_array_equal(prof.speed_sq(r, 0.5), direct.speed_sq(r, 0.5))
    assert prof.time_dependent == KINDS[kind].time_dependent


@pytest.mark.parametrize("kind, key, value, field", INVALID_PARAMS)
def test_every_kind_rejects_invalid_parameter_naming_field(tmp_path, capsys, kind, key, value, field):
    block = {**KIND_BLOCKS[kind][0], key: value}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"metric": block, "sampling": {"r": [0.5]}}))
    assert main(["profile", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert f"config error: metric.{field}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "assignment",
    [
        # parsed and validated, never read; removed with the keys
        "synthesis.cell_pitch=2.0",
        'output.formats=["csv"]',
        # a recording density that decided which front samples a verdict saw
        "simulation.snapshot_stride=0",
        # a measurement setting that turned a failing verdict into a pass
        "simulation.front_threshold=0.01",
        # one value each in every preset and tool; now the solvers' defaults
        "simulation.cfl_factor=0.4",
        "simulation.stability_factor=0.4",
        # the equations are linear and the front is relative to the peak
        "simulation.pulse.amplitude=3.0",
        # a hot-cell guard that turned the kerr_theta0 PASS into exit 3; now synthesis.WINDOW_GUARD
        "synthesis.window_epsilon=1e-6",
        # the unit of speed, which only rescaled time; c0 is 1
        "synthesis.c0=2.0",
        # the rays' background speed; every launch runs at 1, as profile samples
        "rays.background_c=2.0",
    ],
)
def test_removed_keys_are_unknown(tmp_path, capsys, assignment):
    argv = ["synth", "--preset", "godel", "--set", assignment, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    block, _, key = assignment.split("=")[0].rpartition(".")
    assert capsys.readouterr().err.startswith(f"config error: {block}: unknown keys [{key!r}]; ")


# (command, --set assignment, field the error must name): one case per
# check of ArrayConfig and of SimulationSpec, which once named only the block
DATACLASS_CHECKS = [
    ("synth", "synthesis.n_cells=1", "synthesis.n_cells"),
    ("synth", "synthesis.impedance_margin_over_pi=0.6", "synthesis.impedance_margin"),
    ("synth", "synthesis.max_hot_cells=-1", "synthesis.max_hot_cells"),
    ("simulate", "simulation.solver=warp", "simulation.solver"),
    ("simulate", "simulation.pulse.width=0", "simulation.pulse.width"),
    ("simulate", "simulation.t_end=-1", "simulation.t_end"),
    ("simulate", "simulation.tolerance=0", "simulation.tolerance"),
    ("simulate", "simulation.direction=0", "simulation.direction"),
    ("simulate", "simulation.boundary=open", "simulation.boundary"),
    # the absorbing end's old name, which has no alias
    ("simulate", "simulation.boundary=absorbing_sponge", "simulation.boundary"),
    # checks that moved from the parsers into SynthesisSettings, RayLaunch
    # and FeasibilitySettings (test_cli covers the other RayLaunch checks)
    ("synth", "synthesis.theta_dc_over_pi=0.5", "synthesis.theta_dc"),
    # inside pi/2 but within WINDOW_GUARD of it: synthesize_program's bound, once met there naming no field
    ("synth", "synthesis.theta_dc_over_pi=0.4999999999999", "synthesis.theta_dc"),
    ("raytrace", 'rays.launches=[{"r0": 0, "t_end": 1, "direction": 0}]', "rays.launches[0].direction"),
    ("feasibility", 'feasibility={"figure": "fig4", "theta_dc": [0.1], "r": [0.0]}', "feasibility.figure"),
    ("feasibility", 'feasibility={"figure": "fig1", "theta_dc": [0.1], "r": [0.0]}', "feasibility.vs_values"),
    ("feasibility", 'feasibility={"figure": "fig3", "theta_dc": [0.1], "r": [0.0]}', "feasibility.theta_values"),
]


@pytest.mark.parametrize("command, assignment, field", DATACLASS_CHECKS)
def test_dataclass_check_names_field(tmp_path, capsys, command, assignment, field):
    argv = [command, "--preset", "godel", "--set", assignment, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "out").exists()


def test_tabulated_metric_takes_its_domain_from_the_samples():
    doc = {"metric": {"kind": "tabulated", "csv_path": "t.csv", "valid_range": [0.0, 1.0]}}
    with pytest.raises(ConfigError, match="unknown keys"):
        validate_config(doc)


def _same(a, b) -> bool:
    """Field-by-field equality of parsed settings, arrays by dtype and value."""
    if dataclasses.is_dataclass(a):
        fields = dataclasses.fields(a)
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


# (block, minimal document, the dataclass built with only its required fields)
MINIMAL_BLOCKS = [
    # _same compares the array too, with ArrayConfig()
    ("synthesis", {}, SynthesisSettings()),
    ("output", {}, OutputSettings()),
    (
        "simulation",
        {"pulse": {"center": 0.5, "width": 0.1}, "t_end": 2.0},
        SimulationSpec(pulse_center=0.5, pulse_width=0.1, t_end=2.0),
    ),
    ("rays", {"launches": [{"r0": 0.5, "t_end": 1.0}]}, [RayLaunch(r0=0.5, t_end=1.0)]),
    ("sampling", {"r": [0.0, 1.0]}, SamplingSettings(r=np.array([0.0, 1.0]))),
    (
        "feasibility",
        {"theta_dc": [0.1], "r": [0.0]},
        FeasibilitySettings(theta_dc=np.array([0.1]), r=np.array([0.0])),
    ),
]


@pytest.mark.parametrize("block, minimal, expected", MINIMAL_BLOCKS)
def test_minimal_block_parses_to_its_dataclass_defaults(block, minimal, expected):
    run = validate_config({"metric": {"kind": "flat"}, block: minimal})
    assert _same(getattr(run, block), expected)


# --------------------------------------------------------------------------
# fuzzing validate_config: documents drawn from each block's dataclass fields
# --------------------------------------------------------------------------


def _fields_of(cls, skip=()):
    """(key, type) per field of cls; a dataclass field's fields sit in the same block."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) is typing.Union:
            hint = next(a for a in typing.get_args(hint) if a is not type(None))
        if f.name in skip:
            continue
        if dataclasses.is_dataclass(hint):
            yield from _fields_of(hint)
        else:
            yield f.name, hint


NUMBERS = st.floats(-10, 10) | st.integers(-3, 20) | st.sampled_from([1e308, -1e308, 5e-324, 1e-300, 2**63])
ODD = st.none() | st.booleans() | st.text(max_size=3) | st.just([]) | st.just({}) | st.floats()
SPANS = st.fixed_dictionaries(
    {"start": NUMBERS, "stop": NUMBERS, "num": st.integers(-1, 60) | st.sampled_from([2**20, 2**20 + 1])}
)
VALUES = {
    float: NUMBERS,
    int: st.integers(-3, 1100) | st.sampled_from([2**20, 2**20 + 1, 10**9, 10**30]),
    str: st.sampled_from(["continuum", "ladder", "both", "absorbing", "reflecting", "fig1", "fig2", "fig3", "out"]),
    bool: st.booleans(),
    np.ndarray: st.lists(NUMBERS, min_size=0, max_size=4) | SPANS,
    tuple: st.lists(NUMBERS, min_size=2, max_size=2) | st.lists(NUMBERS, max_size=3),
}


def _block(base: dict, fields):
    """base with a few of its keys set from fields, now and then an unknown key."""

    @st.composite
    def draw_block(draw):
        block = dict(base)
        for _ in range(draw(st.integers(1, 3))):
            name, hint = draw(st.sampled_from(fields))
            key = draw(st.sampled_from([name, f"{name}_over_pi"])) if name in ANGLES else name
            block[key] = draw(st.one_of(_values(hint), _values(hint), _values(hint), ODD))
        if draw(st.integers(0, 19)) == 0:
            block["bogus"] = 1
        return block

    return draw_block()


def _values(hint):
    if hint is GaussianPulse:
        return _block({"center": 1.0, "width": 0.1}, list(_fields_of(GaussianPulse)))
    if hint is RayLaunch:
        launch = _block({"r0": 0.5, "t_end": 1.0}, list(_fields_of(RayLaunch)))
        return st.lists(launch, min_size=0, max_size=2)
    return VALUES[typing.get_origin(hint) or hint]


PULSE_FIELDS = ("pulse_center", "pulse_width")
BLOCK_FIELDS = {
    "synthesis": list(_fields_of(SynthesisSettings)),
    "simulation": [*_fields_of(SimulationSpec, skip=PULSE_FIELDS), ("pulse", GaussianPulse)],
    "rays": [("launches", RayLaunch)],
    "sampling": list(_fields_of(SamplingSettings)),
    "feasibility": list(_fields_of(FeasibilitySettings)),
    "output": list(_fields_of(OutputSettings)),
}


@st.composite
def documents(draw):
    """A preset with up to three blocks mutated, added or dropped; the metric may change kind."""
    doc = json.loads(json.dumps(PRESETS[draw(st.sampled_from(sorted(PRESETS)))]))
    if draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(sorted(KIND_BLOCKS)))
        doc["metric"] = dict(KIND_BLOCKS[kind][0])
    for name in draw(st.lists(st.sampled_from(["metric", *BLOCK_FIELDS]), max_size=3, unique=True)):
        if name == "metric":
            kind = doc["metric"]["kind"]
            if kind == "tabulated":
                fields = [("csv_path", str)]
            else:
                fields = [*_fields_of(KINDS[kind].params), ("valid_range", tuple)]
            doc["metric"] = draw(_block(doc["metric"], fields))
        elif draw(st.integers(0, 3)) == 0:
            doc.pop(name, None)
        else:
            doc[name] = draw(_block(doc.get(name, {}), BLOCK_FIELDS[name]))
    return doc


def _assert_finite(value, path):
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _assert_finite(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, tuple):
        lo, hi = value
        assert math.isfinite(hi - lo), path
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _assert_finite(item, f"{path}[{i}]")
    elif isinstance(value, (float, np.ndarray)):
        assert np.all(np.isfinite(value)), path


@settings(derandomize=True, deadline=500, max_examples=300)
@given(doc=documents())
# finite endpoints whose span overflows; each once validated
@example(doc={"metric": {"kind": "flat"}, "sampling": {"r": {"start": -1e308, "stop": 1e308, "num": 3}}})
@example(doc={"metric": {"kind": "flat"}, "synthesis": {"coord_window": [-1e308, 1e308], "n_cells": 4}})
@example(
    doc={
        "metric": {"kind": "godel", "a": 1.0},
        "feasibility": {"figure": "fig2", "theta_dc_over_pi": [1e308], "r": [0.0, 1.0]},
    }
)
def test_validate_config_fuzz(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            run = validate_config(doc)
        except ConfigError as exc:
            assert re.split(r"[.\[]", exc.path)[0] in doc, exc.path
            return
        if run.profile.kind != "tabulated":
            _assert_finite(run.profile.params, "metric")
    for name in ("synthesis", "simulation", "rays", "sampling", "feasibility", "output"):
        _assert_finite(getattr(run, name), name)


@pytest.mark.parametrize(
    "launch",
    [
        # the default step, (t_end - t0) / 4096 = 2.4e-6, is below ulp(1e12) = 1.2e-4
        {"r0": 0.0, "t0": 1e12, "t_end": 1000000000000.01},
        {"r0": 0.0, "t0": 1e12, "t_end": 1000000000000.01, "dt": (1000000000000.01 - 1e12) / 2**19},
    ],
    ids=["default_dt", "given_dt"],
)
def test_a_ray_step_below_the_resolution_of_t_is_refused(launch):
    # each once validated, and the trace never ended
    with pytest.raises(ConfigError, match=r"^rays\.launches\[0\]\.dt: step "):
        validate_config({"metric": {"kind": "flat"}, "rays": {"launches": [launch]}})


def test_ray_launch_fields_are_trace_null_geodesic_keywords():
    # cmd_raytrace passes each launch's fields to trace_null_geodesic as they are, after the background 1
    _, _, *keywords = inspect.signature(trace_null_geodesic).parameters
    assert {f.name for f in dataclasses.fields(RayLaunch)} == set(keywords)
