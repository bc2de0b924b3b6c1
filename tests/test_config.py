"""Strict config parsing: field paths, unknown keys, presets, overrides."""

import json
import math

import numpy as np
import pytest

from fluxline.config import (
    PRESETS,
    ConfigError,
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

MINIMAL = {"metric": {"kind": "flat"}}


def test_minimal_config_valid():
    run = validate_config(MINIMAL)
    assert run.profile().kind == "flat"
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
    prof = run.profile()
    assert prof.kind == "tabulated"
    assert prof.speed_sq(0.5) == pytest.approx(1.5)
    assert prof.valid_range == (0.0, 2.0)


def test_tabulated_profile_rejects_non_finite_values(tmp_path):
    csv = tmp_path / "table.csv"
    csv.write_text("r,ctilde_sq\n0.0,1.0\n1.0,nan\n2.0,5.0\n")
    run = validate_config({"metric": {"kind": "tabulated", "csv_path": str(csv)}})
    with pytest.raises(ValueError, match=r"table.csv:3: values must be finite"):
        run.profile()


def test_all_presets_validate():
    for name, doc in PRESETS.items():
        run = validate_config(doc)
        assert run.profile() is not None, name


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
    assert len(run.feasibility.r_values) == 10


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
    prof = validate_config({"metric": block}).profile()
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
    ],
)
def test_removed_keys_are_unknown(tmp_path, capsys, assignment):
    argv = ["synth", "--preset", "godel", "--set", assignment, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "unknown keys" in capsys.readouterr().err


# (command, --set assignment, field the error must name): one case per
# check of ArrayConfig and of SimulationSpec, which once named only the block
DATACLASS_CHECKS = [
    ("synth", "synthesis.n_cells=1", "synthesis.n_cells"),
    ("synth", "synthesis.c0=0", "synthesis.c0"),
    ("synth", "synthesis.impedance_margin_over_pi=0.6", "synthesis.impedance_margin"),
    ("synth", "synthesis.max_hot_cells=-1", "synthesis.max_hot_cells"),
    ("synth", "synthesis.window_epsilon=0.01", "synthesis.window_epsilon"),
    ("simulate", "simulation.solver=warp", "simulation.solver"),
    ("simulate", "simulation.pulse.width=0", "simulation.pulse.width"),
    ("simulate", "simulation.t_end=-1", "simulation.t_end"),
    ("simulate", "simulation.snapshot_stride=0", "simulation.snapshot_stride"),
    ("simulate", "simulation.front_threshold=1", "simulation.front_threshold"),
    ("simulate", "simulation.tolerance=0", "simulation.tolerance"),
    ("simulate", "simulation.direction=0", "simulation.direction"),
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
