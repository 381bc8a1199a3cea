"""Run configuration: flat key-value text with sections, or JSON.

Values are read unconverted, then converted once and their keys named here; the
lattice, spin structure, schedule and mu_curve exponents are checked by the code
that uses them.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

from .functional import check_mu_exponent
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
    p_values: tuple = ContinuationSchedule.p_values
    q_values: tuple = (1.4, 1.5, 1.6, 1.8, 2.0)
    tol_grad: float | None = None
    tol_solve: float | None = None
    tol_norm: float = ContinuationSchedule.tol_norm
    tol_closed: float = 1e-5
    tol_cmc: float = 0.01
    zero_tol: float = 1e-6
    seed: int = 0
    copies: tuple[int, int] = (1, 1)
    out_dir: str = "."

    def validate(self) -> "RunConfig":
        _named("", self.torus)  # named lattice, or eps1 or eps2 by SpinStructure itself
        n = self.n_grid
        if n % 2 != 0 or not 4 <= n <= 512:
            raise ConfigError(f"n_grid: must be even and in [4, 512], got {n}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        for name in _TOLERANCES:
            val = getattr(self, name)
            if val is not None and not val > 0:
                raise ConfigError(f"{name}: must be positive")
        k1, k2 = self.copies
        if k1 < 1 or k2 < 1:
            raise ConfigError(f"copies: tiling counts must be >= 1, got {self.copies}")
        _named("p_values", self.schedule)
        if not self.q_values:
            raise ConfigError("q_values: must not be empty")
        _named("q_values", lambda: [check_mu_exponent(q) for q in self.q_values])
        return self

    def torus(self) -> tuple[Lattice, SpinStructure]:
        """The lattice and its holonomy signs, swapped along with v1, v2 when
        make_lattice swaps them."""
        lat = _named("lattice", lambda: make_lattice(self.v1, self.v2))
        spin = SpinStructure(self.eps1, self.eps2)  # a bad sign is named by its own key
        swapped = lat.gamma1 != tuple(map(float, self.v1))
        return lat, SpinStructure(spin.eps2, spin.eps1) if swapped else spin

    def schedule(self) -> ContinuationSchedule:
        return ContinuationSchedule(
            p_values=tuple(self.p_values),
            tol_solve=self.tol_solve,
            tol_norm=self.tol_norm,
        )


def _named(key: str, build):
    """build(); a ValueError it raises becomes a ConfigError naming key."""
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}" if key else str(exc)) from exc


def _whole(value) -> int:
    """int(value) where that changes nothing: 8, "8" and 8.0 pass, 8.7 does not."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


_PAIRS = {"v1": float, "v2": float, "copies": _whole}
_SEQUENCES = ("p_values", "q_values")
_INTS = ("eps1", "eps2", "n_grid", "seed")
#: Tolerances that may be null: None means the N-scaled default.
_NULLABLE = ("tol_grad", "tol_solve")
_TOLERANCES = ("tol_norm", "tol_closed", "tol_cmc", "zero_tol") + _NULLABLE


def _entries(value) -> list:
    """Entries of a JSON list, or of a string split at commas and whitespace."""
    return value.replace(",", " ").split() if isinstance(value, str) else list(value)


def _convert(key: str, value):
    items = value if isinstance(value, (list, tuple)) else [value]
    if any(isinstance(v, bool) for v in items):
        raise ValueError(f"no setting takes true or false, got {value!r}")
    if key in _PAIRS:
        entries = _entries(value)
        if len(entries) != 2:
            raise ValueError(f"expected two entries, got {value!r}")
        return tuple(_PAIRS[key](v) for v in entries)
    if key in _SEQUENCES:
        return tuple(float(v) for v in _entries(value))
    if key in _INTS:
        return _whole(value)
    if key == "out_dir":
        if not isinstance(value, str):
            raise TypeError(f"expected a string, got {value!r}")
        return value
    return None if value is None and key in _NULLABLE else float(value)


def _once(pairs) -> dict:
    """dict(pairs), refusing a key given twice."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"{key}: given twice in the config file")
        data[key] = value
    return data


class _Pairs(list):
    """The (key, value) pairs of one JSON object, in file order."""


def _plain(value):
    """value with each JSON object in it made a dict by _once."""
    if isinstance(value, _Pairs):
        return _once((key, _plain(item)) for key, item in value)
    return [_plain(item) for item in value] if isinstance(value, list) else value


def load_config(path) -> dict:
    """The unconverted values of a config file: a JSON object, or INI-style
    sections whose keys are RunConfig fields (the section names, [DEFAULT] too,
    only group them; values are literal, with no interpolation)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: {exc}") from exc
    try:
        pairs = json.loads(text, object_pairs_hook=_Pairs)
    except ValueError as exc:
        if text.lstrip().startswith("{"):
            raise ConfigError(f"config JSON: syntax error: {exc}") from exc
    else:
        if not isinstance(pairs, _Pairs):
            kind = type(pairs).__name__
            raise ConfigError(f"config JSON: expected an object, got {kind}")
        # A key given twice inside a value is reported under the setting that holds it.
        return {key: _named(key, partial(_plain, value)) for key, value in _once(pairs).items()}
    # No header names the empty default section, so [DEFAULT] is an ordinary one.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return _once(pair for sec in parser.sections() for pair in parser.items(sec))


def config_from_dict(data: dict) -> RunConfig:
    """The checked RunConfig of data's unconverted values, each converted once."""
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"{key}: unknown configuration field")
        try:
            setattr(cfg, key, _convert(key, value))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return cfg.validate()
