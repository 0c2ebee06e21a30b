"""Plain-text run configuration with an explicit schema version.

Format: one ``key = value`` pair per line, ``#`` comments, dotted keys for
nesting.  Profiles are either named analytic families or inline node tables,
so a run is fully reproducible from its config file alone:

    schema = 1
    n_points = 128
    sigma = 1.0
    rho = 0.75
    gamma = 0.5
    q = 0.0
    A.kind = constant
    A.value = 1.0
    eta.kind = constant
    eta.value = 1.0
    K0.kind = cosine
    K0.mean = 1.0
    K0.amplitude = 0.4
    K0.mode = 1
    t_final = 10.0
    n_steps = 200
    seed = 2024

Building a ``RunConfig`` is the one validation of a run, and builds its
model once.  ``parse_config`` only parses, and applies the CLI's
``--n-points`` and ``--seed`` overrides before that validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError
from .grid import Grid, GridFunction
from .spectral import ModelParams

SCHEMA_VERSION = 1

_PROFILE_NAMES = ("A", "eta", "K0")
_SCALAR_KEYS = {
    "n_points": int,
    "sigma": float,
    "rho": float,
    "gamma": float,
    "q": float,
    "t_final": float,
    "n_steps": int,
    "seed": int,
    "n_perturbations": int,
    "out_dir": str,
}


@dataclass(frozen=True)
class ProfileSpec:
    """One coefficient profile: a named analytic family or an inline table."""

    kind: str
    parameters: dict

    def build(self, grid: Grid) -> GridFunction:
        if self.kind == "constant":
            return GridFunction.constant(grid, self.parameters["value"])
        if self.kind == "cosine":
            mean = self.parameters["mean"]
            amplitude = self.parameters.get("amplitude", 0.0)
            mode = int(self.parameters.get("mode", 1))
            phase = self.parameters.get("phase", 0.0)
            theta = grid.nodes
            return GridFunction(grid, mean + amplitude * np.cos(mode * theta + phase))
        if self.kind == "custom-table":
            values = self.parameters["values"]
            if len(values) != grid.n_points:
                raise ConfigError(
                    f"profile table has {len(values)} values, grid has {grid.n_points} points"
                )
            return GridFunction(grid, np.asarray(values, dtype=float))
        raise ConfigError(f"unknown profile kind {self.kind!r}")


@dataclass(frozen=True)
class RunConfig:
    n_points: int = 128
    sigma: float = 1.0
    rho: float = 1.0
    gamma: float = 0.5
    q: float = 0.0
    profiles: dict = field(default_factory=dict)
    t_final: float = 10.0
    n_steps: int = 200
    seed: int = 0
    n_perturbations: int = 20
    out_dir: str = "."
    sweep: dict = field(default_factory=dict)
    # (grid, params, K0), built once by __post_init__; replace() rebuilds it
    _model: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Validate the run, each swept value included, and build its model."""
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ConfigError(f"t_final must be finite and > 0, got {self.t_final}")
        for key in ("n_steps", "n_perturbations"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        try:
            grid = Grid(self.n_points)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        built = {}
        for name in _PROFILE_NAMES:
            if name not in self.profiles:
                raise ConfigError(f"missing profile {name!r}")
            try:
                built[name] = self.profiles[name].build(grid)
            except ValueError as exc:
                raise ConfigError(f"profile {name!r}: {exc}") from exc
        try:
            params = ModelParams(sigma=self.sigma, rho=self.rho, gamma=self.gamma, q=self.q,
                                 A=built["A"], eta=built["eta"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name, values in self.sweep.items():
            for value in values:
                try:
                    replace(params, **{name: value})
                except ValueError as exc:
                    raise ConfigError(f"sweep.{name}: {exc}") from exc
        object.__setattr__(self, "_model", (grid, params, built["K0"]))

    def tolerances(self) -> None:
        """None: no threshold is configurable.  Kept only for
        ``perfbench/run.py``, which passes the result to functions that ignore it."""
        return None

    def model(self) -> tuple[Grid, ModelParams, GridFunction]:
        """The grid, parameters, and initial state, built at construction."""
        return self._model


def _float_list(text: str) -> list[float]:
    values = [float(piece) for piece in text.split(",") if piece.strip()]
    if not values:
        raise ValueError("empty number list")
    return values


# kind -> the attributes its profile reads, with their parsers; it needs the first
_PROFILE_KINDS = {
    "constant": {"value": float},
    "cosine": {"mean": float, "amplitude": float, "mode": int, "phase": float},
    "custom-table": {"values": _float_list},
}


def _parse(key: str, text: str, convert: Callable):
    """``convert(text)``; a value it rejects is a ConfigError naming the key."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {text!r}") from exc


def parse_config(text: str, *, n_points: int | None = None,
                 seed: int | None = None) -> RunConfig:
    """Parse a config document; ``n_points`` and ``seed`` replace the file's."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (piece.strip() for piece in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    if "schema" not in pairs:
        raise ConfigError("missing required key 'schema'")
    schema = _parse("schema", pairs.pop("schema"), int)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {schema}")

    scalars: dict = {}
    profiles: dict[str, dict] = {}
    sweep: dict[str, list[float]] = {}
    for key, value in pairs.items():
        if key in _SCALAR_KEYS:
            scalars[key] = _parse(key, value, _SCALAR_KEYS[key])
        elif key.startswith("tol."):
            raise ConfigError(f"unknown tolerance {key[4:]!r}")
        elif key.startswith("sweep."):
            name = key[6:]
            if name not in ("rho", "gamma", "sigma"):
                raise ConfigError(f"unknown sweep parameter {name!r}")
            sweep[name] = _parse(key, value, _float_list)
        elif "." in key:
            name, attr = key.split(".", 1)
            if name not in _PROFILE_NAMES:
                raise ConfigError(f"unknown key {key!r}")
            profiles.setdefault(name, {})[attr] = value
        else:
            raise ConfigError(f"unknown key {key!r}")

    profile_specs = {}
    for name, attrs in profiles.items():
        if "kind" not in attrs:
            raise ConfigError(f"profile {name!r} is missing 'kind'")
        kind = attrs.pop("kind")
        if kind not in _PROFILE_KINDS:
            raise ConfigError(f"profile {name!r} has unknown kind {kind!r}")
        reads = _PROFILE_KINDS[kind]
        parameters: dict = {}
        for attr, value in attrs.items():
            if attr not in reads:
                raise ConfigError(f"profile {name!r}: {kind} has no attribute {attr!r}")
            parameters[attr] = _parse(f"{name}.{attr}", value, reads[attr])
        needed = next(iter(reads))
        if needed not in parameters:
            raise ConfigError(f"profile {name!r}: {kind} needs {needed!r}")
        profile_specs[name] = ProfileSpec(kind=kind, parameters=parameters)

    if n_points is not None:
        scalars["n_points"] = n_points
    if seed is not None:
        scalars["seed"] = seed
    return RunConfig(profiles=profile_specs, sweep=sweep, **scalars)


def load_config(path: str | Path, *, n_points: int | None = None,
                seed: int | None = None) -> RunConfig:
    return parse_config(Path(path).read_text(), n_points=n_points, seed=seed)
