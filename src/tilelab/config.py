"""Run configuration: plain key=value files, validation, and a stable hash."""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from .fractal import INTERPRETATIONS
from .partition import Schedule, ScheduleError
from .trees import parse_descriptor


class ConfigError(Exception):
    """Invalid configuration; the CLI maps this to exit code 2."""


_DEFAULTS = {
    "seed": 0,
    "radius": 3,
    "schedule": [1, 6],
    "stages": 2,
    "resolution": 6,
    "u_min": 2,
    "interpretation": "square",
    "threads": 1,
    "tree": "binary-canopy(4)",
    "steps": 10000,
    "i_min": -2,
    "i_max": 2,
    "window": 2.0,
    "decimal_digits": 9,
    "out": ".",
}

_INT_KEYS = {"seed", "radius", "stages", "resolution", "u_min", "threads",
             "steps", "i_min", "i_max", "decimal_digits"}
_FLOAT_KEYS = {"window"}
_STR_KEYS = {"interpretation", "tree", "out"}


class RunConfig:
    """Validated run parameters shared by all subcommands."""

    def __init__(self, values: Optional[Dict] = None):
        merged = dict(_DEFAULTS)
        if values:
            unknown = set(values) - set(_DEFAULTS)
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            merged.update({k: v for k, v in values.items() if v is not None})
        for k, v in merged.items():
            setattr(self, k, v)
        self._validate()

    def _validate(self) -> None:
        for k in _INT_KEYS:
            v = getattr(self, k)
            if not isinstance(v, int):
                raise ConfigError(f"{k} must be an integer, got {v!r}")
        if not isinstance(self.schedule, (list, tuple)) or not self.schedule:
            raise ConfigError("schedule must be a nonempty list of integers")
        self.schedule = [int(n) for n in self.schedule]
        try:
            Schedule(self.schedule, 4)
        except ScheduleError as exc:
            raise ConfigError(str(exc)) from exc
        if not (1 <= self.resolution <= 20):
            raise ConfigError("resolution must lie in [1, 20]")
        if self.radius < 1:
            raise ConfigError("radius must be positive")
        if self.stages < 1 or self.stages > len(self.schedule):
            raise ConfigError("stages must be in [1, len(schedule)]")
        names = INTERPRETATIONS + ("both",)
        if self.interpretation not in names:
            raise ConfigError(f"interpretation must be one of {', '.join(names)}")
        if self.i_min > 0 or self.i_max < 0:
            raise ConfigError("need i_min <= 0 <= i_max")
        # `fractal` builds the half-width int(window * 2^8) / 2^8, exact only
        # for these values, and the config hash records the window as given
        if (not isinstance(self.window, (int, float)) or not self.window > 0
                or (self.window * 256) % 1):
            raise ConfigError(
                f"window must be a positive multiple of 2^-8, got {self.window!r}")
        try:
            parse_descriptor(self.tree)
        except ValueError as exc:
            raise ConfigError(f"tree: {exc}") from None
        if self.threads < 1:
            raise ConfigError("threads must be positive")
        if self.steps < 1:
            raise ConfigError("steps must be positive")

    def as_dict(self) -> Dict:
        return {k: getattr(self, k) for k in sorted(_DEFAULTS)}

    def hash(self) -> str:
        # the output directory does not affect results, so it is not hashed
        payload = {k: v for k, v in self.as_dict().items() if k != "out"}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _parse_value(key: str, raw: str, lineno: int):
    raw = raw.strip()
    try:
        if key == "schedule":
            return [int(p) for p in raw.replace(",", " ").split()]
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _STR_KEYS:
            return raw
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse {key}={raw!r}")
    raise ConfigError(f"line {lineno}: unknown key {key!r}")


def load_config(path: str, overrides: Optional[Dict] = None) -> RunConfig:
    """Read a key=value file (''#'' comments, blank lines ignored)."""
    values: Dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected key=value, "
                                  f"got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            values[key] = _parse_value(key, raw, lineno)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(values)
