"""Run configuration: one JSON document, validated strictly.

Each block is read into a dataclass that states the block once: its fields
are the allowed keys, a field's type hint says how its value is read, a
field without a default is required, and its __post_init__ holds the value
checks. The blocks and their classes:

    metric             the kind's parameter dataclass (metrics.KINDS); a
                       tabulated kind's table is read and checked here
    synthesis          SynthesisSettings, with ArrayConfig's fields inline
    simulation         SimulationSpec, with its pulse read as a GaussianPulse
    rays.launches[i]   RayLaunch
    sampling, feasibility, output
                       SamplingSettings, FeasibilitySettings, OutputSettings

Unknown keys are rejected and every complaint names the offending field
path, so sweep tooling can edit configs mechanically and fail loudly. A
field named in ANGLES may be given in radians (theta_dc) or in units of pi
(theta_dc_over_pi), but not both at once. Every number must be finite, and
so must every grid, every interval span and every angle scaled from units
of pi; a grid holds at most MAX_GRID_POINTS values.

Presets are complete configs keyed by name; command-line --set assignments
are applied to the raw document before validation, so anything a preset
fixes can still be overridden.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Optional

import numpy as np

from .csvio import read_table_csv
from .metrics import KINDS, MAX_GRID_POINTS, ParamError, SpeedProfile, tabulated_profile
from .synthesis import HALF_PI, WINDOW_GUARD, ArrayConfig
from .wavelab.continuum import CFL_FACTOR, GaussianPulse
from .wavelab.verify import SimulationSpec

__all__ = [
    "ConfigError",
    "FIGURES",
    "RunConfig",
    "RayLaunch",
    "PRESETS",
    "config_hash",
    "apply_overrides",
    "load_raw_config",
    "validate_config",
]

# Most RK4 steps one ray launch may take, (t_end - t0) / dt. Presets take
# 4096 (the default dt); the bound keeps a validated launch finite in work.
MAX_RAY_STEPS = 2**20

# Fields that are angles: each is also accepted in units of pi, as <name>_over_pi
ANGLES = frozenset({"theta", "theta_dc", "theta_values", "impedance_margin"})


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
# value readers
# --------------------------------------------------------------------------


def _check_object(d, path: str):
    if not isinstance(d, dict):
        raise ConfigError(path, "expected an object")


def _check_keys(d: dict, allowed, path: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(path, f"unknown keys {sorted(unknown)}; allowed {sorted(allowed)}")


def _is_finite_number(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, (int, float)) and math.isfinite(x)


def _get(d: dict, key: str, path: str, kind):
    if key not in d:
        raise ConfigError(f"{path}.{key}", "required field missing")
    return _scalar(d[key], kind, f"{path}.{key}")


def _scalar(val, kind, path: str):
    if kind is float:
        if not _is_finite_number(val):
            raise ConfigError(path, f"expected a finite number, got {val!r}")
        return float(val)
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(path, f"expected integer, got {type(val).__name__}")
        return val
    if not isinstance(val, kind):
        raise ConfigError(path, f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _interval(val, path: str) -> tuple[float, float]:
    if (
        not isinstance(val, list)
        or len(val) != 2
        or not all(map(_is_finite_number, val))
    ):
        raise ConfigError(path, "expected [low, high] of finite numbers")
    lo, hi = float(val[0]), float(val[1])
    if not hi > lo:
        raise ConfigError(path, "high must exceed low")
    if not math.isfinite(hi - lo):
        raise ConfigError(path, "high - low overflows")
    return (lo, hi)


def _grid(val, path: str) -> np.ndarray:
    """A list of numbers, or {start, stop, num} expanded to a linear grid."""
    if isinstance(val, list):
        if not val or not all(map(_is_finite_number, val)):
            raise ConfigError(path, "expected a nonempty list of finite numbers")
        if len(val) > MAX_GRID_POINTS:
            raise ConfigError(path, f"holds {len(val)} values; the limit is {MAX_GRID_POINTS}")
        return np.asarray(val, dtype=float)
    if isinstance(val, dict):
        _check_keys(val, ("start", "stop", "num"), path)
        start = _get(val, "start", path, float)
        stop = _get(val, "stop", path, float)
        num = _get(val, "num", path, int)
        if not 1 <= num <= MAX_GRID_POINTS:
            raise ConfigError(f"{path}.num", f"must lie in [1, {MAX_GRID_POINTS}]")
        if not math.isfinite(stop - start):
            raise ConfigError(path, "stop - start overflows")
        return np.linspace(start, stop, num)
    raise ConfigError(path, "expected a list or {start, stop, num}")


def _value(val, ftype, path: str):
    """A field's value, read by the field's type."""
    if ftype is np.ndarray:
        return _grid(val, path)
    if typing.get_origin(ftype) is tuple:
        return _interval(val, path)
    return _scalar(val, ftype, path)


# --------------------------------------------------------------------------
# blocks, read by their dataclass fields
# --------------------------------------------------------------------------


@cache  # get_type_hints evaluates every annotation anew, about 0.1 ms a class
def _field_types(cls) -> tuple:
    """(field, type) per field of cls, with Optional[X] read as X."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) is typing.Union:
            hint = next(a for a in typing.get_args(hint) if a is not type(None))
        out.append((f, hint))
    return tuple(out)


def _keys(cls, skip=()):
    """Keys a block read into cls may hold; a dataclass field's keys are in the block itself."""
    for f, ftype in _field_types(cls):
        if f.name in skip:
            continue
        if dataclasses.is_dataclass(ftype):
            yield from _keys(ftype)
        else:
            yield f.name
            if f.name in ANGLES:
                yield f"{f.name}_over_pi"


def _fields(d, cls, path: str, keys=(), **given):
    """Read the block d at path into cls, by cls's dataclass fields.

    keys are further keys the caller reads itself, and given are fields it
    has read; a ParamError of cls's checks names its field under path.
    """
    _check_object(d, path)
    _check_keys(d, (*keys, *_keys(cls, given)), path)
    return _build(d, cls, path, given)


def _build(d: dict, cls, path: str, given):
    values = dict(given)
    for f, ftype in _field_types(cls):
        if f.name in given:
            continue
        pi_key = f"{f.name}_over_pi" if f.name in ANGLES else None
        if dataclasses.is_dataclass(ftype):
            values[f.name] = _build(d, ftype, path, {})
        elif f.name in d and pi_key in d:
            raise ConfigError(f"{path}.{f.name}", f"give either {f.name} or {pi_key}, not both")
        elif f.name in d:
            values[f.name] = _value(d[f.name], ftype, f"{path}.{f.name}")
        elif pi_key in d:
            with np.errstate(over="ignore"):
                values[f.name] = _value(d[pi_key], ftype, f"{path}.{pi_key}") * math.pi
            if not np.isfinite(values[f.name]).all():
                raise ConfigError(f"{path}.{pi_key}", "overflows when scaled by pi")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{path}.{f.name}", "required field missing")
    try:
        return cls(**values)
    except ParamError as exc:
        raise ConfigError(f"{path}.{exc.field}", exc.message)


def _parse_metric(d: dict, path="metric") -> SpeedProfile:
    """The profile of a metric block; a tabulated kind's table is read and checked here."""
    _check_object(d, path)
    kind = _get(d, "kind", path, str)
    if kind not in KINDS:
        raise ConfigError(f"{path}.kind", f"must be one of {tuple(KINDS)}")
    if kind == "tabulated":
        _check_keys(d, ("kind", "csv_path"), path)
        csv_path = _get(d, "csv_path", path, str)
        try:
            return tabulated_profile(*read_table_csv(csv_path))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}.csv_path", str(exc)) from None
    params = _fields(d, KINDS[kind].params, path, keys=("kind", "valid_range"))
    rng = _interval(d["valid_range"], f"{path}.valid_range") if "valid_range" in d else KINDS[kind].valid_range
    return SpeedProfile(kind, params, rng)


@dataclass(frozen=True)
class SynthesisSettings:
    """The DC bias, window and time samples of a program, and its array."""

    theta_dc: float = 0.0
    coord_window: Optional[tuple[float, float]] = None
    time_samples: np.ndarray = field(default_factory=lambda: np.zeros(1))
    array: ArrayConfig = field(default_factory=ArrayConfig)

    def __post_init__(self):
        # the bound synthesize_program enforces, so that no validated bias is refused there
        if not abs(self.theta_dc) < HALF_PI - WINDOW_GUARD:
            raise ParamError("theta_dc", f"must lie strictly inside (-pi/2 + {WINDOW_GUARD}, pi/2 - {WINDOW_GUARD})")


def _parse_simulation(d: dict, path="simulation") -> SimulationSpec:
    _check_object(d, path)
    if "pulse" not in d:
        raise ConfigError(f"{path}.pulse", "required field missing")
    pulse = _fields(d["pulse"], GaussianPulse, f"{path}.pulse")
    given = {f"pulse_{f.name}": getattr(pulse, f.name) for f in dataclasses.fields(pulse)}
    return _fields(d, SimulationSpec, path, keys=("pulse",), **given)


@dataclass(frozen=True)
class RayLaunch:
    """One null characteristic, traced from (t0, r0) up to t_end."""

    r0: float
    t_end: float
    t0: float = 0.0
    direction: int = 1
    dt: Optional[float] = None
    background_c: float = 1.0

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ParamError("direction", "must be +1 or -1")
        if self.dt is not None and self.dt <= 0:
            raise ParamError("dt", "must be > 0")
        if not self.t_end > self.t0:
            raise ParamError("t_end", f"must exceed t0 = {self.t0!r}")
        if not math.isfinite(self.t_end - self.t0):
            raise ParamError("t_end", "t_end - t0 overflows")
        if self.dt is not None and (self.t_end - self.t0) / self.dt > MAX_RAY_STEPS:
            raise ParamError(
                "dt",
                f"(t_end - t0) / dt = {(self.t_end - self.t0) / self.dt:.6g} steps exceeds the limit of {MAX_RAY_STEPS}",
            )


def _parse_rays(d: dict, path="rays") -> list[RayLaunch]:
    _check_object(d, path)
    _check_keys(d, ("launches", "background_c"), path)
    bg = _get(d, "background_c", path, float) if "background_c" in d else RayLaunch.background_c
    if not bg > 0:
        raise ConfigError(f"{path}.background_c", "must be > 0")
    launches = d.get("launches")
    if not isinstance(launches, list) or not launches:
        raise ConfigError(f"{path}.launches", "required nonempty list")
    return [_fields(item, RayLaunch, f"{path}.launches[{i}]", background_c=bg) for i, item in enumerate(launches)]


@dataclass(frozen=True)
class SamplingSettings:
    r: np.ndarray
    t: np.ndarray = field(default_factory=lambda: np.zeros(1))


# What each feasibility figure scans: (the metric kind it needs, the
# FeasibilitySettings field listing its family or None for the configured
# metric alone, the metric parameter each family entry sets).
FIGURES = {
    "fig1": ("alcubierre", "vs_values", "vs_over_c"),
    "fig2": ("godel", None, "a"),
    "fig3": ("kerr_extreme", "theta_values", "theta"),
}


@dataclass(frozen=True)
class FeasibilitySettings:
    """A scan over theta_dc x r, for each entry of the figure's family (FIGURES)."""

    theta_dc: np.ndarray
    r: np.ndarray
    figure: Optional[str] = None
    vs_values: Optional[np.ndarray] = None
    theta_values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.figure is None:
            return
        if self.figure not in FIGURES:
            raise ParamError("figure", f"must be one of {tuple(FIGURES)}")
        family = FIGURES[self.figure][1]
        if family is not None and getattr(self, family) is None:
            raise ParamError(family, f"required for {self.figure}")


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"


TOP_LEVEL_KEYS = ("metric", "synthesis", "simulation", "output", "sampling", "rays", "feasibility")


@dataclass(frozen=True)
class RunConfig:
    hash: str
    profile: SpeedProfile
    synthesis: SynthesisSettings
    simulation: Optional[SimulationSpec]
    output: OutputSettings
    sampling: Optional[SamplingSettings]
    rays: Optional[list]
    feasibility: Optional[FeasibilitySettings]


def _check_scales(profile: SpeedProfile, synthesis: SynthesisSettings, simulation: SimulationSpec, window) -> None:
    """Refuse a window that gives a simulation a square it cannot evaluate as a finite normal float.

    The continuum solver averages each pair of neighbouring squared node
    speeds background_c^2 speed_sq into a face, and squares dx and
    dt = CFL_FACTOR dx / c_max; the ladder's inductance is pitch^2, since c0
    and the capacitance are 1. Each is a fault of synthesis.coord_window,
    the face sum through the supremum it spans. A supremum that is not
    finite and positive is the metric's fault, and the solver reports it.
    """
    bg = math.sqrt(math.cos(synthesis.theta_dc))
    try:
        with np.errstate(all="ignore"):
            sup = profile.sup_speed_sq(window)
    except OverflowError:
        sup = math.nan
    span = window[1] - window[0]
    dx, pitch = span / (simulation.n_points - 1), span / synthesis.array.n_cells
    squares = {"dx**2": dx * dx, "pitch**2": pitch * pitch}
    if 0.0 < sup < math.inf:
        dt = CFL_FACTOR * dx / (bg * math.sqrt(sup))
        squares = {"2 * background_c**2 * sup speed_sq": 2.0 * (bg * bg) * sup, **squares, "dt**2": dt * dt}
    for name, square in squares.items():
        if not sys.float_info.min <= square < math.inf:
            raise ConfigError("synthesis.coord_window", f"{name} = {square!r} must be a finite normal float")


def validate_config(doc: dict) -> RunConfig:
    _check_object(doc, "config")
    _check_keys(doc, TOP_LEVEL_KEYS, "config")
    if "metric" not in doc:
        raise ConfigError("metric", "required block missing")
    profile = _parse_metric(doc["metric"])
    synthesis = _fields(doc.get("synthesis", {}), SynthesisSettings, "synthesis")
    simulation = _parse_simulation(doc["simulation"]) if "simulation" in doc else None
    sampling = _fields(doc["sampling"], SamplingSettings, "sampling") if "sampling" in doc else None
    rays = _parse_rays(doc["rays"]) if "rays" in doc else None
    feasibility = _fields(doc["feasibility"], FeasibilitySettings, "feasibility") if "feasibility" in doc else None
    output = _fields(doc.get("output", {}), OutputSettings, "output")
    # across blocks: the window and each ray launch lie in the profile's range, the pulse in the
    # window, and what a simulation squares is a finite normal float
    lo, hi = profile.valid_range
    window = synthesis.coord_window
    if window is not None and not lo <= window[0] < window[1] <= hi:
        raise ConfigError("synthesis.coord_window", f"{list(window)} not contained in profile range [{lo}, {hi}]")
    for i, launch in enumerate(rays or ()):
        if not profile.contains(launch.r0):
            raise ConfigError(f"rays.launches[{i}].r0", f"{launch.r0} outside profile range [{lo}, {hi}]")
    if window is not None and simulation is not None:
        if not window[0] <= simulation.pulse_center <= window[1]:
            raise ConfigError("simulation.pulse.center", f"{simulation.pulse_center} outside synthesis.coord_window {list(window)}")
        _check_scales(profile, synthesis, simulation, window)
    return RunConfig(
        hash=config_hash(doc),
        profile=profile,
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
