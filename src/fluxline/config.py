"""Run configuration: one JSON document, validated strictly.

Unknown keys are rejected and every complaint names the offending field
path, so sweep tooling can edit configs mechanically and fail loudly.
Angles may be given in radians (theta_dc) or in units of pi
(theta_dc_over_pi), but not both at once.

Presets are complete configs keyed by name; command-line --set assignments
are applied to the raw document before validation, so anything a preset
fixes can still be overridden.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .csvio import read_table_csv
from .metrics import (
    AlcubierreParams,
    GodelParams,
    KerrExtremeParams,
    SpeedProfile,
    alcubierre_profile,
    flat_profile,
    godel_profile,
    kerr_extreme_profile,
    tabulated_profile,
)
from .synthesis import ArrayConfig
from .wavelab.verify import SimulationSpec

__all__ = [
    "ConfigError",
    "RunConfig",
    "RayLaunch",
    "PRESETS",
    "config_hash",
    "apply_overrides",
    "load_raw_config",
    "validate_config",
]

METRIC_KINDS = ("flat", "alcubierre", "godel", "kerr_extreme", "tabulated")


class ConfigError(ValueError):
    """A configuration field is missing, unknown, or out of contract."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def config_hash(doc: dict) -> str:
    """Hash of the canonical JSON serialization of the raw document."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def apply_overrides(doc: dict, assignments) -> dict:
    """Apply --set key.path=value assignments onto a raw document copy."""
    out = json.loads(json.dumps(doc))
    for item in assignments:
        if "=" not in item:
            raise ConfigError("--set", f"expected KEY=VALUE, got {item!r}")
        key, raw_value = item.split("=", 1)
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return out


def load_raw_config(path=None, preset: Optional[str] = None, overrides=()) -> dict:
    if (path is None) == (preset is None):
        raise ConfigError("config", "exactly one of --config / --preset is required")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError("--preset", f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        doc = PRESETS[preset]
    else:
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError("--config", f"no such file: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError("--config", f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return apply_overrides(doc, overrides)


# --------------------------------------------------------------------------
# validation helpers
# --------------------------------------------------------------------------


def _check_keys(d: dict, allowed, path: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(path, f"unknown keys {sorted(unknown)}; allowed {sorted(allowed)}")


def _get(d: dict, key: str, path: str, kind, required=False, default=None):
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}", "required field missing")
        return default
    val = d[key]
    if kind is float:
        if not _is_finite_number(val):
            raise ConfigError(f"{path}.{key}", f"expected a finite number, got {val!r}")
        return float(val)
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{path}.{key}", f"expected integer, got {type(val).__name__}")
        return val
    if not isinstance(val, kind):
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _is_finite_number(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, (int, float)) and math.isfinite(x)


def _angle(d: dict, key: str, path: str, default=0.0):
    """Angle given as '<key>' (radians) or '<key>_over_pi'; at most one."""
    pi_key = f"{key}_over_pi"
    if key in d and pi_key in d:
        raise ConfigError(f"{path}.{key}", f"give either {key} or {pi_key}, not both")
    if pi_key in d:
        return _get(d, pi_key, path, float) * math.pi
    if key in d:
        return _get(d, key, path, float)
    return default


def _interval(d: dict, key: str, path: str, required=False, default=None):
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}", "required field missing")
        return default
    val = d[key]
    if (
        not isinstance(val, list)
        or len(val) != 2
        or not all(map(_is_finite_number, val))
    ):
        raise ConfigError(f"{path}.{key}", "expected [low, high] of finite numbers")
    lo, hi = float(val[0]), float(val[1])
    if not hi > lo:
        raise ConfigError(f"{path}.{key}", "high must exceed low")
    return (lo, hi)


def _grid(d: dict, key: str, path: str, required=False, default=None) -> Optional[np.ndarray]:
    """A list of numbers, or {start, stop, num} expanded to a linear grid."""
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}", "required field missing")
        return None if default is None else np.asarray(default, dtype=float)
    val = d[key]
    sub = f"{path}.{key}"
    if isinstance(val, list):
        if not val or not all(map(_is_finite_number, val)):
            raise ConfigError(sub, "expected a nonempty list of finite numbers")
        return np.asarray(val, dtype=float)
    if isinstance(val, dict):
        _check_keys(val, ("start", "stop", "num"), sub)
        start = _get(val, "start", sub, float, required=True)
        stop = _get(val, "stop", sub, float, required=True)
        num = _get(val, "num", sub, int, required=True)
        if num < 1:
            raise ConfigError(f"{sub}.num", "must be >= 1")
        return np.linspace(start, stop, num)
    raise ConfigError(sub, "expected a list or {start, stop, num}")


# --------------------------------------------------------------------------
# block parsers
# --------------------------------------------------------------------------


def _parse_metric(d: dict, path="metric") -> dict:
    if not isinstance(d, dict):
        raise ConfigError(path, "expected an object")
    kind = _get(d, "kind", path, str, required=True)
    if kind not in METRIC_KINDS:
        raise ConfigError(f"{path}.kind", f"must be one of {METRIC_KINDS}")
    common = ("kind", "valid_range")
    if kind == "flat":
        _check_keys(d, common, path)
    elif kind == "alcubierre":
        _check_keys(d, common + ("vs_over_c", "bubble_radius_R", "sigma", "x_s0", "top_hat"), path)
        _get(d, "x_s0", path, float)
        vs = _get(d, "vs_over_c", path, float, required=True)
        R = _get(d, "bubble_radius_R", path, float, required=True)
        top_hat = _get(d, "top_hat", path, bool, default=False)
        sigma = _get(d, "sigma", path, float)
        if vs < 0:
            raise ConfigError(f"{path}.vs_over_c", "must be >= 0")
        if R <= 0:
            raise ConfigError(f"{path}.bubble_radius_R", "must be > 0")
        if not top_hat and (sigma is None or sigma <= 0):
            raise ConfigError(f"{path}.sigma", "must be > 0 unless top_hat is true")
    elif kind == "godel":
        _check_keys(d, common + ("a",), path)
        if _get(d, "a", path, float, required=True) <= 0:
            raise ConfigError(f"{path}.a", "must be > 0")
    elif kind == "kerr_extreme":
        _check_keys(d, common + ("mass_M", "theta", "theta_over_pi"), path)
        if _get(d, "mass_M", path, float, required=True) <= 0:
            raise ConfigError(f"{path}.mass_M", "must be > 0")
        theta = _angle(d, "theta", path)
        if not 0.0 <= theta <= math.pi / 2:
            raise ConfigError(f"{path}.theta", "must lie in [0, pi/2]")
    elif kind == "tabulated":
        _check_keys(d, common + ("csv_path",), path)
        _get(d, "csv_path", path, str, required=True)
    _interval(d, "valid_range", path)
    return d


def _build_profile(metric: dict) -> SpeedProfile:
    kind = metric["kind"]
    rng = _interval(metric, "valid_range", "metric")
    if kind == "flat":
        return flat_profile() if rng is None else flat_profile(rng)
    if kind == "alcubierre":
        params = AlcubierreParams(
            vs_over_c=_get(metric, "vs_over_c", "metric", float, required=True),
            bubble_radius_R=_get(metric, "bubble_radius_R", "metric", float, required=True),
            sigma=_get(metric, "sigma", "metric", float),
            x_s0=_get(metric, "x_s0", "metric", float, default=0.0),
            top_hat=_get(metric, "top_hat", "metric", bool, default=False),
        )
        return alcubierre_profile(params) if rng is None else alcubierre_profile(params, rng)
    if kind == "godel":
        params = GodelParams(a=_get(metric, "a", "metric", float, required=True))
        return godel_profile(params) if rng is None else godel_profile(params, rng)
    if kind == "kerr_extreme":
        params = KerrExtremeParams(
            mass_M=_get(metric, "mass_M", "metric", float, required=True),
            theta=_angle(metric, "theta", "metric"),
        )
        return kerr_extreme_profile(params) if rng is None else kerr_extreme_profile(params, rng)
    if kind == "tabulated":
        r, s = read_table_csv(metric["csv_path"])
        return tabulated_profile(r, s)
    raise ConfigError("metric.kind", f"unhandled kind {kind!r}")


@dataclass(frozen=True)
class SynthesisSettings:
    theta_dc: float
    coord_window: Optional[tuple[float, float]]
    time_samples: np.ndarray
    array: ArrayConfig


def _parse_synthesis(d: dict, path="synthesis") -> SynthesisSettings:
    if not isinstance(d, dict):
        raise ConfigError(path, "expected an object")
    _check_keys(
        d,
        (
            "theta_dc",
            "theta_dc_over_pi",
            "coord_window",
            "n_cells",
            "cell_pitch",
            "c0",
            "impedance_margin",
            "impedance_margin_over_pi",
            "max_hot_cells",
            "window_epsilon",
            "time_samples",
        ),
        path,
    )
    theta_dc = _angle(d, "theta_dc", path)
    if abs(theta_dc) >= math.pi / 2:
        raise ConfigError(f"{path}.theta_dc", "must lie strictly inside (-pi/2, pi/2)")
    window = _interval(d, "coord_window", path)
    times = _grid(d, "time_samples", path, default=[0.0])
    margin = _angle(d, "impedance_margin", path, default=0.44 * math.pi)
    try:
        array = ArrayConfig(
            n_cells=_get(d, "n_cells", path, int, default=64),
            cell_pitch=_get(d, "cell_pitch", path, float, default=1.0),
            c0=_get(d, "c0", path, float, default=1.0),
            impedance_margin=margin,
            max_hot_cells=_get(d, "max_hot_cells", path, int, default=1),
            window_epsilon=_get(d, "window_epsilon", path, float, default=1e-9),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc))
    return SynthesisSettings(theta_dc=theta_dc, coord_window=window, time_samples=times, array=array)


def _parse_simulation(d: dict, path="simulation") -> SimulationSpec:
    if not isinstance(d, dict):
        raise ConfigError(path, "expected an object")
    _check_keys(
        d,
        (
            "solver",
            "n_points",
            "cfl_factor",
            "boundary",
            "pulse",
            "t_end",
            "snapshot_stride",
            "front_threshold",
            "tolerance",
            "stability_factor",
            "direction",
        ),
        path,
    )
    pulse = d.get("pulse")
    if not isinstance(pulse, dict):
        raise ConfigError(f"{path}.pulse", "required object {center, width[, amplitude]}")
    _check_keys(pulse, ("center", "width", "amplitude"), f"{path}.pulse")
    try:
        return SimulationSpec(
            pulse_center=_get(pulse, "center", f"{path}.pulse", float, required=True),
            pulse_width=_get(pulse, "width", f"{path}.pulse", float, required=True),
            pulse_amplitude=_get(pulse, "amplitude", f"{path}.pulse", float, default=1.0),
            t_end=_get(d, "t_end", path, float, required=True),
            solver=_get(d, "solver", path, str, default="continuum"),
            n_points=_get(d, "n_points", path, int, default=800),
            cfl_factor=_get(d, "cfl_factor", path, float, default=0.5),
            boundary=_get(d, "boundary", path, str, default="absorbing_sponge"),
            snapshot_stride=_get(d, "snapshot_stride", path, int),
            front_threshold=_get(d, "front_threshold", path, float, default=0.05),
            tolerance=_get(d, "tolerance", path, float, default=0.05),
            stability_factor=_get(d, "stability_factor", path, float, default=0.5),
            direction=_get(d, "direction", path, int, default=1),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc))


@dataclass(frozen=True)
class RayLaunch:
    r0: float
    t0: float
    direction: int
    t_end: float
    dt: Optional[float]
    background_c: float


def _parse_rays(d: dict, path="rays") -> list[RayLaunch]:
    if not isinstance(d, dict):
        raise ConfigError(path, "expected an object")
    _check_keys(d, ("launches", "background_c"), path)
    bg = _get(d, "background_c", path, float, default=1.0)
    launches = d.get("launches")
    if not isinstance(launches, list) or not launches:
        raise ConfigError(f"{path}.launches", "required nonempty list")
    out = []
    for i, item in enumerate(launches):
        sub = f"{path}.launches[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(sub, "expected an object")
        _check_keys(item, ("r0", "t0", "direction", "t_end", "dt"), sub)
        direction = _get(item, "direction", sub, int, default=1)
        if direction not in (-1, 1):
            raise ConfigError(f"{sub}.direction", "must be +1 or -1")
        out.append(
            RayLaunch(
                r0=_get(item, "r0", sub, float, required=True),
                t0=_get(item, "t0", sub, float, default=0.0),
                direction=direction,
                t_end=_get(item, "t_end", sub, float, required=True),
                dt=_get(item, "dt", sub, float),
                background_c=bg,
            )
        )
    return out


@dataclass(frozen=True)
class SamplingSettings:
    r: np.ndarray
    t: np.ndarray


def _parse_sampling(d: dict, path="sampling") -> SamplingSettings:
    if not isinstance(d, dict):
        raise ConfigError(path, "expected an object")
    _check_keys(d, ("r", "t"), path)
    r = _grid(d, "r", path, required=True)
    t = _grid(d, "t", path, default=[0.0])
    return SamplingSettings(r=r, t=t)


@dataclass(frozen=True)
class FeasibilitySettings:
    figure: Optional[str]
    vs_values: Optional[np.ndarray]
    theta_values: Optional[np.ndarray]
    theta_dc_values: Optional[np.ndarray]
    r_values: Optional[np.ndarray]


def _parse_feasibility(d: dict, path="feasibility") -> FeasibilitySettings:
    if not isinstance(d, dict):
        raise ConfigError(path, "expected an object")
    _check_keys(d, ("figure", "vs_values", "theta_values_over_pi", "theta_dc_over_pi", "theta_dc", "r"), path)
    figure = _get(d, "figure", path, str)
    if figure is not None and figure not in ("fig1", "fig2", "fig3"):
        raise ConfigError(f"{path}.figure", "must be fig1, fig2 or fig3")
    vs = _grid(d, "vs_values", path)
    theta = _grid(d, "theta_values_over_pi", path)
    if theta is not None:
        theta = theta * math.pi
    if "theta_dc" in d and "theta_dc_over_pi" in d:
        raise ConfigError(f"{path}.theta_dc", "give either theta_dc or theta_dc_over_pi, not both")
    dc = _grid(d, "theta_dc", path)
    if dc is None:
        dc = _grid(d, "theta_dc_over_pi", path)
        if dc is not None:
            dc = dc * math.pi
    r = _grid(d, "r", path)
    if figure is None and (dc is None or r is None):
        raise ConfigError(path, "custom scans need theta_dc(_over_pi) and r grids")
    return FeasibilitySettings(figure=figure, vs_values=vs, theta_values=theta, theta_dc_values=dc, r_values=r)


@dataclass(frozen=True)
class OutputSettings:
    directory: str
    formats: tuple[str, ...]


def _parse_output(d: dict, path="output") -> OutputSettings:
    if not isinstance(d, dict):
        raise ConfigError(path, "expected an object")
    _check_keys(d, ("directory", "formats"), path)
    fmts = d.get("formats", ["csv", "json"])
    if not isinstance(fmts, list) or any(f not in ("csv", "json") for f in fmts):
        raise ConfigError(f"{path}.formats", "must be a list drawn from ['csv', 'json']")
    return OutputSettings(directory=_get(d, "directory", path, str, default="out"), formats=tuple(fmts))


TOP_LEVEL_KEYS = ("metric", "synthesis", "simulation", "output", "sampling", "rays", "feasibility")


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    hash: str
    metric: dict
    synthesis: SynthesisSettings
    simulation: Optional[SimulationSpec]
    output: OutputSettings
    sampling: Optional[SamplingSettings]
    rays: Optional[list]
    feasibility: Optional[FeasibilitySettings]

    def profile(self) -> SpeedProfile:
        return _build_profile(self.metric)

    def array_config(self) -> ArrayConfig:
        return self.synthesis.array


def validate_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a JSON object")
    _check_keys(doc, TOP_LEVEL_KEYS, "config")
    if "metric" not in doc:
        raise ConfigError("metric", "required block missing")
    metric = _parse_metric(doc["metric"])
    synthesis = _parse_synthesis(doc.get("synthesis", {}))
    simulation = _parse_simulation(doc["simulation"]) if "simulation" in doc else None
    sampling = _parse_sampling(doc["sampling"]) if "sampling" in doc else None
    rays = _parse_rays(doc["rays"]) if "rays" in doc else None
    feasibility = _parse_feasibility(doc["feasibility"]) if "feasibility" in doc else None
    output = _parse_output(doc.get("output", {}))
    return RunConfig(
        raw=doc,
        hash=config_hash(doc),
        metric=metric,
        synthesis=synthesis,
        simulation=simulation,
        output=output,
        sampling=sampling,
        rays=rays,
        feasibility=feasibility,
    )


# --------------------------------------------------------------------------
# presets
# --------------------------------------------------------------------------

PRESETS: dict[str, dict] = {
    "flat": {
        "metric": {"kind": "flat"},
        "synthesis": {"theta_dc_over_pi": 0.0, "coord_window": [0.0, 10.0], "n_cells": 256},
        "simulation": {
            "solver": "continuum",
            "n_points": 600,
            "t_end": 7.0,
            "pulse": {"center": 1.0, "width": 0.18},
        },
        "sampling": {"r": {"start": 0.0, "stop": 10.0, "num": 201}},
        "rays": {"launches": [{"r0": 0.0, "t_end": 5.0}]},
        "output": {"directory": "out"},
    },
    "godel": {
        "metric": {"kind": "godel", "a": 1.0},
        "synthesis": {"theta_dc_over_pi": 0.45, "coord_window": [0.0, 3.8], "n_cells": 256},
        "simulation": {
            "solver": "continuum",
            "n_points": 700,
            "t_end": 4.4,
            "pulse": {"center": 0.4, "width": 0.12},
        },
        "sampling": {"r": {"start": 0.0, "stop": 4.0, "num": 401}},
        "rays": {"launches": [{"r0": 0.0, "t_end": 2.0}]},
        "output": {"directory": "out"},
    },
    "alcubierre": {
        "metric": {
            "kind": "alcubierre",
            "vs_over_c": 0.5,
            "bubble_radius_R": 2.0,
            "x_s0": 6.0,
            "top_hat": True,
        },
        "synthesis": {"theta_dc_over_pi": -0.36, "coord_window": [0.0, 40.0], "n_cells": 512},
        "simulation": {
            "solver": "continuum",
            "n_points": 800,
            "t_end": 42.0,
            "pulse": {"center": 6.0, "width": 0.35},
        },
        "sampling": {
            "r": {"start": 0.0, "stop": 40.0, "num": 401},
            "t": {"start": 0.0, "stop": 20.0, "num": 5},
        },
        "rays": {"launches": [{"r0": 6.0, "t_end": 10.0}]},
        "output": {"directory": "out"},
    },
    "alcubierre_superluminal": {
        "metric": {
            "kind": "alcubierre",
            "vs_over_c": 1.5,
            "bubble_radius_R": 2.0,
            "x_s0": 6.0,
            "top_hat": True,
        },
        "synthesis": {"theta_dc_over_pi": -0.449, "coord_window": [0.0, 40.0], "n_cells": 512},
        "simulation": {
            "solver": "continuum",
            "n_points": 900,
            "t_end": 6.0,
            "pulse": {"center": 6.0, "width": 0.35},
        },
        "sampling": {
            "r": {"start": 0.0, "stop": 40.0, "num": 401},
            "t": {"start": 0.0, "stop": 20.0, "num": 5},
        },
        "rays": {"launches": [{"r0": 6.0, "t_end": 10.0}]},
        "output": {"directory": "out"},
    },
    "kerr_theta0": {
        "metric": {"kind": "kerr_extreme", "mass_M": 1.0, "theta_over_pi": 0.0},
        "synthesis": {"theta_dc_over_pi": 0.0, "coord_window": [0.5, 3.0], "n_cells": 100},
        "simulation": {
            "solver": "continuum",
            "n_points": 800,
            "t_end": 12.0,
            "pulse": {"center": 2.5, "width": 0.1},
            "direction": -1,
            "tolerance": 0.1,
        },
        "sampling": {"r": {"start": 0.0, "stop": 4.0, "num": 401}},
        "rays": {"launches": [{"r0": 2.5, "direction": -1, "t_end": 40.0}]},
        "output": {"directory": "out"},
    },
    "kerr_pi4": {
        "metric": {"kind": "kerr_extreme", "mass_M": 1.0, "theta_over_pi": 0.25},
        "synthesis": {"theta_dc_over_pi": 0.0, "coord_window": [2.0, 4.0], "n_cells": 100},
        "simulation": {
            "solver": "continuum",
            "n_points": 900,
            "t_end": 5.0,
            "pulse": {"center": 2.3, "width": 0.08},
        },
        "sampling": {"r": {"start": 0.01, "stop": 4.0, "num": 400}},
        "rays": {"launches": [{"r0": 2.3, "t_end": 5.0}]},
        "output": {"directory": "out"},
    },
    "kerr_pi2": {
        "metric": {"kind": "kerr_extreme", "mass_M": 1.0, "theta_over_pi": 0.5},
        "synthesis": {"theta_dc_over_pi": 0.0, "coord_window": [1.2, 1.8], "n_cells": 64},
        "simulation": {
            "solver": "continuum",
            "n_points": 400,
            "t_end": 1.0,
            "pulse": {"center": 1.5, "width": 0.05},
        },
        "sampling": {"r": {"start": 0.01, "stop": 4.0, "num": 400}},
        "rays": {"launches": [{"r0": 3.0, "direction": -1, "t_end": 10.0}]},
        "output": {"directory": "out"},
    },
    "fig1": {
        "metric": {
            "kind": "alcubierre",
            "vs_over_c": 1.5,
            "bubble_radius_R": 1.0,
            "x_s0": 0.0,
            "top_hat": True,
        },
        "synthesis": {},
        "feasibility": {
            "figure": "fig1",
            "vs_values": [0.5, 1.0, 1.5],
            "theta_dc_over_pi": {"start": -0.4999, "stop": 0.0, "num": 512},
            "r": [0.0],
        },
        "output": {"directory": "out"},
    },
    "fig2": {
        "metric": {"kind": "godel", "a": 1.0},
        "synthesis": {},
        "feasibility": {
            "figure": "fig2",
            "theta_dc_over_pi": [0.1, 0.2, 0.3, 0.3333333333333333, 0.4, 0.45],
            "r": {"start": 0.0, "stop": 6.0, "num": 301},
        },
        "output": {"directory": "out"},
    },
    "fig3": {
        "metric": {"kind": "kerr_extreme", "mass_M": 1.0},
        "synthesis": {},
        "feasibility": {
            "figure": "fig3",
            "theta_values_over_pi": [0.0, 0.25, 0.5],
            "theta_dc_over_pi": [0.0],
            "r": {"start": 0.01, "stop": 4.0, "num": 400},
        },
        "output": {"directory": "out"},
    },
}
