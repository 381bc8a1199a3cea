"""Run configuration: flat key-value text with sections, or JSON."""

from __future__ import annotations

import configparser
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .lattice import Lattice, SpinStructure, make_lattice
from .solver import ContinuationSchedule


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (names the offending field)."""


@dataclass
class RunConfig:
    v1: tuple[float, float] = (1.0, 0.0)
    v2: tuple[float, float] = (0.0, 1.0)
    eps1: int = 1
    eps2: int = -1
    n_grid: int = 32
    p_values: tuple = (2.0, 2.5, 3.0, 3.5, 3.8, 3.95, 4.0)
    q_values: tuple = (1.4, 1.5, 1.6, 1.8, 2.0)
    tol_grad: float | None = None
    tol_solve: float | None = None
    tol_norm: float = 1e-10
    tol_closed: float = 1e-5
    tol_cmc: float = 0.01
    zero_tol: float = 1e-6
    seed: int = 0
    copies: tuple[int, int] = (1, 1)
    out_dir: str = "."

    def validate(self) -> "RunConfig":
        try:
            make_lattice(self.v1, self.v2)
        except ValueError as exc:
            raise ConfigError(f"lattice: {exc}") from exc
        if self.eps1 not in (-1, 1):
            raise ConfigError(f"eps1: must be +1 or -1, got {self.eps1}")
        if self.eps2 not in (-1, 1):
            raise ConfigError(f"eps2: must be +1 or -1, got {self.eps2}")
        n = self.n_grid
        if n % 2 != 0 or not 4 <= n <= 512:
            raise ConfigError(f"n_grid: must be even and in [4, 512], got {n}")
        for name in ("tol_norm", "tol_closed", "tol_cmc", "zero_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be positive")
        for name in ("tol_grad", "tol_solve"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ConfigError(f"{name}: must be positive")
        k1, k2 = self.copies
        if k1 < 1 or k2 < 1:
            raise ConfigError(f"copies: tiling counts must be >= 1, got {self.copies}")
        try:
            ContinuationSchedule(p_values=tuple(self.p_values))
        except ValueError as exc:
            raise ConfigError(f"p_values: {exc}") from exc
        for q in self.q_values:
            if not 4.0 / 3.0 < q <= 2.0:
                raise ConfigError(f"q_values: q={q} outside (4/3, 2]")
        return self

    def lattice(self) -> Lattice:
        return make_lattice(self.v1, self.v2)

    def spin(self) -> SpinStructure:
        return SpinStructure(self.eps1, self.eps2)

    def schedule(self) -> ContinuationSchedule:
        return ContinuationSchedule(
            p_values=tuple(self.p_values),
            tol_solve=self.tol_solve,
            tol_norm=self.tol_norm,
        )

    def as_dict(self) -> dict:
        return asdict(self)


_PAIRS = {"v1": float, "v2": float, "copies": int}
_SEQUENCES = ("p_values", "q_values")
_INTS = ("eps1", "eps2", "n_grid", "seed")


def _entries(value) -> list:
    """Entries of a JSON list, or of a string split at commas and whitespace."""
    return value.replace(",", " ").split() if isinstance(value, str) else list(value)


def _convert(key: str, value):
    if key in _PAIRS:
        entries = _entries(value)
        if len(entries) != 2:
            raise ValueError(f"expected two entries, got {value!r}")
        return tuple(_PAIRS[key](v) for v in entries)
    if key in _SEQUENCES:
        return tuple(float(v) for v in _entries(value))
    if key in _INTS:
        return int(value)
    if key == "out_dir":
        return str(value)
    return None if value is None else float(value)


def load_config(path) -> RunConfig:
    """Read a config file: a JSON object, or INI-style sections whose keys are
    RunConfig fields (the section names only group them)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except ValueError as exc:
        if text.lstrip().startswith("{"):
            raise ConfigError(f"config JSON: syntax error: {exc}") from exc
    else:
        if not isinstance(data, dict):
            kind = type(data).__name__
            raise ConfigError(f"config JSON: expected an object, got {kind}")
        return config_from_dict(data)
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return config_from_dict(
        {key: value for sec in parser.sections() for key, value in parser[sec].items()}
    )


def config_from_dict(data: dict) -> RunConfig:
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"{key}: unknown configuration field")
        try:
            setattr(cfg, key, _convert(key, value))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return cfg.validate()
