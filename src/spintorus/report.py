"""Named invariant checks and deterministic JSON reports.

Every numeric entry of a report carries the tolerance it was checked
against.  Serialization is canonical (sorted keys, Python's shortest
round-trip float repr), so identical inputs give byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .lattice import SPHERE_CONSTANT_2D

SCHEMA_VERSION = "1"


@dataclass
class CheckItem:
    name: str
    value: float
    tol: float
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "value": None if isinstance(self.value, float) and math.isnan(self.value) else self.value,
            "tol": None if self.tol == math.inf else self.tol,
            "passed": bool(self.passed),
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class CheckReport:
    items: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def add(self, *args, **kwargs) -> None:
        self.items.append(CheckItem(*args, **kwargs))

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [item.as_dict() for item in self.items],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for item in self.items:
            status = "PASS" if item.passed else "FAIL"
            tol = "" if item.tol == math.inf else f" (tol {item.tol:g})"
            lines.append(f"[{status}] {item.name}: {item.value:g}{tol}")
        return lines


def threshold_verdict(lambda_sqrt_area: float) -> dict:
    """Strict comparison of the scale-invariant eigenvalue against 2 sqrt(pi)."""
    below = lambda_sqrt_area < SPHERE_CONSTANT_2D
    return {
        "lambda_sqrt_area": lambda_sqrt_area,
        "sphere_constant": SPHERE_CONSTANT_2D,
        "below_threshold": bool(below),
        "verdict": (
            "below 2*sqrt(pi): minimizer regime"
            if below
            else "threshold not met; existence theorem hypothesis fails"
        ),
    }


def dump_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
