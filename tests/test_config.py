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
