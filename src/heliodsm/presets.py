"""Declarative experiment configs and the five built-in benchmark presets.

A config is plain JSON.  Complex intensities are serialized as [re, im]
pairs (bare numbers are accepted on input and normalized on output, so
parse -> serialize -> parse is idempotent).

Schema (dims = 2 or 3 everywhere consistent)::

    {
      "dims": 2,
      "wavenumber": 15.0,
      "sources": [
        {"location": [2.0, 3.0], "monopole": [9.0, 0.0]},
        {"location": [...],      "dipole": [[1.0, 0.0], [0.0, 0.0]]}
      ],
      "measurement": {"radius": 6.0, "count": 200},            # 2D
      "measurement": {"radius": 6.0, "n_theta": 42, "n_phi": 43},  # 3D
      "noise": {"level": 0.05, "seed": 101},
      "directions": {"count": 256} | {"n_theta": 42, "n_phi": 43},
      "grid": {"lower": [-4.0, -4.0], "upper": [4.0, 4.0], "counts": [100, 100]},
      "dsm_counts": [60, 60, 60],        # optional, single-level comparison grid
      "locator": {"components": null},  # optional; null: all N+1 components
      "output_dir": null                 # optional
    }

Every number must be finite.  `ExperimentConfig` builds each object it
describes when it is made, and that object's constructor checks its rules:
distinct finite source locations strictly inside the measurement radius
(`forward.check_inside`); radius > 0, count >= 8 (3D: n_theta >= 2,
n_phi >= 4) and >= 4 directions; 0 <= level <= 0.5 and 0 <= seed < 2**128;
lower < upper on each axis, with counts and dsm_counts dims integers
>= 2; and components null or a non-empty list of distinct indices in
0..dims (`indicators._check_components`).  A failure raises `ConfigError`
naming its config key.  A key the schema does not list, at any level, is
refused too, so a misspelt key fails instead of leaving its setting at the
default.  The locator takes no other setting: its peak, merge, cluster and
group thresholds and its fine-grid counts (`FINE_COUNTS_2D`,
`FINE_COUNTS_3D`) are `locator` constants.  A config names no algorithm:
`reconstruct` runs dsm2 unless `--algorithm dsm` asks for the single level
on the dsm_counts grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .forward import NoiseSpec, PointSource, SourceEnsemble, check_inside, dipole, monopole
from .geometry import (
    DirectionSet,
    MeasurementSurface,
    SamplingGrid,
    circle_directions,
    circle_surface,
    sphere_directions,
    sphere_surface,
)
from .indicators import _check_components

__all__ = ["ConfigError", "ExperimentConfig", "PRESETS", "preset_config", "exact_table"]


class ConfigError(ValueError):
    """Raised when an experiment config fails validation."""


_TOP_KEYS = (
    "dims", "wavenumber", "sources", "measurement", "noise", "directions", "grid",
    "dsm_counts", "locator", "output_dir",
)


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _want(mapping: dict, key: str, kind, where: str):
    if key not in mapping:
        raise ConfigError(f"missing '{key}' in {where}")
    value = mapping[key]
    if kind is float:
        if not _is_finite_number(value):
            raise ConfigError(f"'{key}' in {where} must be a finite number")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"'{key}' in {where} must be an integer")
        return value
    if kind is list and not isinstance(value, list):
        raise ConfigError(f"'{key}' in {where} must be a list")
    if kind is dict and not isinstance(value, dict):
        raise ConfigError(f"'{key}' in {where} must be an object")
    return value


def _known(mapping: dict, keys, where: str) -> None:
    unknown = [key for key in mapping if key not in keys]
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} in {where}")


def _counts_keys(dims: int) -> tuple[str, ...]:
    """The keys of the measurement and direction counts."""
    return ("count",) if dims == 2 else ("n_theta", "n_phi")


def _ints(values, where: str) -> tuple[int, ...]:
    if not isinstance(values, list) or any(
        not isinstance(v, int) or isinstance(v, bool) for v in values
    ):
        raise ConfigError(f"{where} must be a list of integers")
    return tuple(values)


def _as_complex(value, where: str) -> complex:
    if _is_finite_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_finite_number, value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where} must be a finite number or an [re, im] pair")


def _complex_out(z: complex) -> list[float]:
    return [z.real, z.imag]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; builders construct library objects."""

    dims: int
    wavenumber: float
    sources: tuple[PointSource, ...]
    measurement_radius: float
    measurement_counts: tuple[int, ...]  # (count,) or (n_theta, n_phi)
    noise_level: float
    noise_seed: int
    direction_counts: tuple[int, ...]
    grid_lower: tuple[float, ...]
    grid_upper: tuple[float, ...]
    grid_counts: tuple[int, ...]
    dsm_counts: tuple[int, ...] | None = None
    components: tuple[int, ...] | None = None
    output_dir: str | None = None

    def __post_init__(self):
        # each rule lives in the constructor of the object it guards; building
        # them all here (after dataclasses.replace too) fails a bad value
        # before any file is written; the sources rule reads the measurement
        # radius, so the measurement is built first
        builders = {
            "measurement": self.surface,
            "sources": lambda: check_inside(self.ensemble(), self.measurement_radius),
            "noise": self.noise_spec,
            "directions": self.direction_set,
            "grid": self.grid,
            "dsm_counts": self.dsm_grid,
            "locator": lambda: _check_components(self.dims, self.components),
        }
        for key, build in builders.items():
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc

    # ------------------------------------------------------------------
    # parsing / serialization
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        _known(raw, _TOP_KEYS, "config")
        dims = _want(raw, "dims", int, "config")
        if dims not in (2, 3):
            raise ConfigError("dims must be 2 or 3")
        counts_keys = _counts_keys(dims)
        k = _want(raw, "wavenumber", float, "config")
        if k <= 0:
            raise ConfigError("wavenumber must be positive")

        sources = []
        for i, entry in enumerate(_want(raw, "sources", list, "config")):
            where = f"sources[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"{where} must be an object")
            _known(entry, ("location", "monopole", "dipole"), where)
            loc = _want(entry, "location", list, where)
            if len(loc) != dims:
                raise ConfigError(f"{where} location must have length {dims}")
            if ("monopole" in entry) == ("dipole" in entry):
                raise ConfigError(f"{where} needs exactly one of 'monopole' or 'dipole'")
            try:
                if "monopole" in entry:
                    sources.append(monopole(loc, _as_complex(entry["monopole"], where)))
                else:
                    vec = _want(entry, "dipole", list, where)
                    sources.append(dipole(loc, [_as_complex(v, where) for v in vec]))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc

        meas = _want(raw, "measurement", dict, "config")
        _known(meas, ("radius", *counts_keys), "measurement")
        radius = _want(meas, "radius", float, "measurement")
        meas_counts = tuple(_want(meas, key, int, "measurement") for key in counts_keys)

        noise = _want(raw, "noise", dict, "config")
        _known(noise, ("level", "seed"), "noise")
        level = _want(noise, "level", float, "noise")
        seed = _want(noise, "seed", int, "noise")

        dirs = _want(raw, "directions", dict, "config")
        _known(dirs, counts_keys, "directions")
        dir_counts = tuple(_want(dirs, key, int, "directions") for key in counts_keys)

        grid = _want(raw, "grid", dict, "config")
        _known(grid, ("lower", "upper", "counts"), "grid")
        bounds = [_want(grid, key, list, "grid") for key in ("lower", "upper")]
        if not all(_is_finite_number(v) for bound in bounds for v in bound):
            raise ConfigError("grid lower/upper must be finite numbers")
        lower, upper = (tuple(float(v) for v in bound) for bound in bounds)
        counts = _ints(_want(grid, "counts", list, "grid"), "grid counts")
        dsm_counts = None if raw.get("dsm_counts") is None else _ints(raw["dsm_counts"], "dsm_counts")

        loc_opts = raw.get("locator", {})
        if not isinstance(loc_opts, dict):
            raise ConfigError("'locator' must be an object")
        _known(loc_opts, ("components",), "locator")
        components = loc_opts.get("components")
        if components is not None:
            components = _ints(components, "locator components")

        output_dir = raw.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ConfigError("'output_dir' must be a string")

        return cls(
            dims=dims,
            wavenumber=k,
            sources=tuple(sources),
            measurement_radius=radius,
            measurement_counts=meas_counts,
            noise_level=level,
            noise_seed=seed,
            direction_counts=dir_counts,
            grid_lower=lower,
            grid_upper=upper,
            grid_counts=counts,
            dsm_counts=dsm_counts,
            components=components,
            output_dir=output_dir,
        )

    def to_dict(self) -> dict:
        sources = []
        for s in self.sources:
            entry: dict = {"location": [float(v) for v in s.location]}
            if s.is_monopole:
                entry["monopole"] = _complex_out(s.scalar_intensity)
            else:
                entry["dipole"] = [_complex_out(v) for v in s.vector_intensity]
            sources.append(entry)
        counts_keys = _counts_keys(self.dims)
        meas = {"radius": self.measurement_radius, **dict(zip(counts_keys, self.measurement_counts))}
        dirs = dict(zip(counts_keys, self.direction_counts))
        out = {
            "dims": self.dims,
            "wavenumber": self.wavenumber,
            "sources": sources,
            "measurement": meas,
            "noise": {"level": self.noise_level, "seed": self.noise_seed},
            "directions": dirs,
            "grid": {
                "lower": list(self.grid_lower),
                "upper": list(self.grid_upper),
                "counts": list(self.grid_counts),
            },
            "dsm_counts": None if self.dsm_counts is None else list(self.dsm_counts),
            "locator": {"components": None if self.components is None else list(self.components)},
            "output_dir": self.output_dir,
        }
        return out

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------

    def ensemble(self) -> SourceEnsemble:
        return SourceEnsemble(sources=self.sources)

    def surface(self) -> MeasurementSurface:
        if self.dims == 2:
            return circle_surface(self.measurement_radius, self.measurement_counts[0])
        return sphere_surface(self.measurement_radius, *self.measurement_counts)

    def direction_set(self) -> DirectionSet:
        if self.dims == 2:
            return circle_directions(self.direction_counts[0])
        return sphere_directions(*self.direction_counts)

    def grid(self) -> SamplingGrid:
        return SamplingGrid(self.dims, self.grid_lower, self.grid_upper, self.grid_counts)

    def dsm_grid(self) -> SamplingGrid:
        counts = self.dsm_counts if self.dsm_counts is not None else self.grid_counts
        return SamplingGrid(self.dims, self.grid_lower, self.grid_upper, counts)

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(level=self.noise_level, seed=self.noise_seed)


# ----------------------------------------------------------------------
# built-in presets (benchmark experiments 1-5)
# ----------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _preset_dicts() -> dict[str, dict]:
    return {
        "example1": {
            "dims": 2,
            "wavenumber": 15.0,
            "sources": [
                {"location": [2.0, 3.0], "monopole": 9.0},
                {"location": [-3.0, -2.0], "monopole": 8.0},
                {"location": [-2.0, 3.0], "monopole": 8.0},
                {"location": [3.0, -3.0], "monopole": 7.0},
            ],
            "measurement": {"radius": 6.0, "count": 200},
            "noise": {"level": 0.05, "seed": 101},
            "directions": {"count": 256},
            "grid": {"lower": [-4.0, -4.0], "upper": [4.0, 4.0], "counts": [100, 100]},
        },
        "example2": {
            "dims": 2,
            "wavenumber": 18.0,
            "sources": [
                {"location": [-1.5, -1.5], "dipole": [-_SQRT2, _SQRT2]},
                {"location": [1.5, -2.0], "dipole": [_SQRT2, _SQRT2]},
            ],
            "measurement": {"radius": 5.0, "count": 200},
            "noise": {"level": 0.05, "seed": 202},
            "directions": {"count": 256},
            "grid": {"lower": [-3.0, -3.0], "upper": [3.0, 3.0], "counts": [100, 100]},
        },
        "example3": {
            "dims": 2,
            "wavenumber": 20.0,
            "sources": [
                {"location": [-1.0, 2.0], "monopole": 10.0},
                {"location": [2.0, -1.5], "dipole": [1.0, 0.0]},
                {"location": [-2.0, -2.0], "dipole": [0.0, 1.0]},
            ],
            "measurement": {"radius": 5.0, "count": 200},
            "noise": {"level": 0.05, "seed": 303},
            "directions": {"count": 256},
            "grid": {"lower": [-3.0, -3.0], "upper": [3.0, 3.0], "counts": [100, 100]},
        },
        "example4": {
            "dims": 3,
            "wavenumber": 10.0,
            "sources": [
                {"location": [1.0, 1.0, 2.0], "monopole": 5.0},
                {"location": [1.0, -1.0, -1.5], "monopole": 5.0},
                {"location": [-2.0, 1.0, 0.0], "monopole": 5.0},
            ],
            "measurement": {"radius": 6.0, "n_theta": 42, "n_phi": 43},
            "noise": {"level": 0.10, "seed": 404},
            "directions": {"n_theta": 42, "n_phi": 43},
            "grid": {
                "lower": [-3.0, -3.0, -3.0],
                "upper": [3.0, 3.0, 3.0],
                "counts": [30, 30, 30],
            },
            "dsm_counts": [60, 60, 60],
            # pure-monopole a priori: only the zeroth indicator is sampled
            "locator": {"components": [0]},
        },
        "example5": {
            "dims": 3,
            "wavenumber": 10.0,
            "sources": [
                {"location": [1.0, 1.0, 2.0], "monopole": 9.0},
                {"location": [1.0, -1.0, -1.5], "dipole": [1.0, 0.0, 0.0]},
                {"location": [-2.0, 1.0, 0.0], "dipole": [0.0, 0.0, 1.0]},
            ],
            "measurement": {"radius": 6.0, "n_theta": 42, "n_phi": 43},
            "noise": {"level": 0.15, "seed": 505},
            "directions": {"n_theta": 42, "n_phi": 43},
            "grid": {
                "lower": [-3.0, -3.0, -3.0],
                "upper": [3.0, 3.0, 3.0],
                "counts": [30, 30, 30],
            },
        },
    }


PRESETS = tuple(sorted(_preset_dicts()))


def preset_config(name: str) -> ExperimentConfig:
    table = _preset_dicts()
    if name not in table:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(table))}")
    return ExperimentConfig.from_dict(table[name])


def exact_table(name: str) -> list[dict]:
    """Ground-truth source table for a preset (for comparison reports)."""
    cfg = preset_config(name)
    rows = []
    for i, s in enumerate(cfg.sources):
        rows.append(
            {
                "label": i + 1,
                "kind": "monopole" if s.is_monopole else "dipole",
                "location": np.asarray(s.location),
                "intensity": s.scalar_intensity if s.is_monopole else np.asarray(s.vector_intensity),
            }
        )
    return rows
