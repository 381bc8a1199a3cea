"""Flat 2-tori R^2/Gamma, spin structures, and closed-form Dirac spectra.

Conventions used throughout the package:

- A lattice is spanned by generators gamma1, gamma2 in R^2 with
  det(gamma1, gamma2) > 0; the torus R^2/Gamma carries the Euclidean metric.
- A spin structure is encoded by its holonomy signs (eps1, eps2) with
  eps_i = chi(gamma_i) in {+1, -1}; (+1, +1) is the trivial structure.
- Sections twisted by chi expand in Fourier modes over the shifted dual
  lattice Gamma* + delta where the shift delta pairs to 0 with generators
  carrying eps = +1 and to 1/2 with eps = -1 (canonical representative).
- The flat Dirac operator has eigenvalues +-2*pi*|xi| for xi in Gamma* + delta,
  each with complex multiplicity 1 per mode; xi = 0 (trivial structure only)
  contributes the eigenvalue 0 with complex multiplicity 2.  Real
  multiplicities are twice the complex ones.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


#: Largest half-width of the index windows searched for the shortest modes.  A
#: torus that a grid of at most 512 points resolves needs far less; a skewed one
#: that needs more ends in InvalidLatticeError instead of exhausting memory.
MAX_HALF_WIDTH = 512


class InvalidLatticeError(ValueError):
    """Generators that span no usable lattice: not pairs of finite real numbers,
    not positively oriented, or so skewed that no mode window up to
    MAX_HALF_WIDTH certifies its shortest modes."""


@dataclass(frozen=True)
class Lattice:
    """Lattice Gamma = span_Z{gamma1, gamma2} with positive orientation."""

    gamma1: tuple[float, float]
    gamma2: tuple[float, float]

    def __post_init__(self):
        pairs = (self.gamma1, self.gamma2)
        if not all(isinstance(g, tuple) and len(g) == 2 for g in pairs) or not all(
            isinstance(c, numbers.Real) and not isinstance(c, bool) and math.isfinite(c)
            for c in self.gamma1 + self.gamma2
        ):
            raise InvalidLatticeError(
                "generators must be pairs of finite real numbers, "
                f"got {self.gamma1}, {self.gamma2}"
            )
        if not self.det() > 0.0:
            raise InvalidLatticeError(
                f"generators must be positively oriented, det={self.det()}"
            )

    def det(self) -> float:
        g1, g2 = self.gamma1, self.gamma2
        return g1[0] * g2[1] - g1[1] * g2[0]

    @property
    def area(self) -> float:
        return self.det()

    def generator_matrix(self) -> np.ndarray:
        """Rows are gamma1, gamma2."""
        return np.array([self.gamma1, self.gamma2], dtype=float)

    def dual_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(gamma1*, gamma2*) with <gamma_i*, gamma_j> = delta_ij."""
        g = self.generator_matrix()
        dual = np.linalg.inv(g).T
        return dual[0], dual[1]

    def scaled(self, c: float) -> "Lattice":
        if c <= 0.0:
            raise InvalidLatticeError("scale factor must be positive")
        g1, g2 = self.gamma1, self.gamma2
        return Lattice((c * g1[0], c * g1[1]), (c * g2[0], c * g2[1]))

    def unit_area(self) -> "Lattice":
        """Homothety of the lattice with area 1."""
        return self.scaled(1.0 / math.sqrt(self.area))


@dataclass(frozen=True)
class SpinStructure:
    """Holonomy signs chi(gamma1), chi(gamma2) of one of the 4 spin structures."""

    eps1: int
    eps2: int

    def __post_init__(self):
        for name, sign in (("eps1", self.eps1), ("eps2", self.eps2)):
            if type(sign) is not int or sign not in (-1, 1):
                raise ValueError(f"{name}: must be +1 or -1, got {sign!r}")

    @property
    def is_trivial(self) -> bool:
        return self.eps1 == 1 and self.eps2 == 1

    @classmethod
    def trivial(cls) -> "SpinStructure":
        return cls(1, 1)

    @classmethod
    def all_four(cls) -> list["SpinStructure"]:
        return [cls(e1, e2) for e1 in (1, -1) for e2 in (1, -1)]

    def pairing_fractions(self) -> tuple[Fraction, Fraction]:
        """Exact pairings <delta, gamma_i> mod 1, in {0, 1/2}."""
        return (Fraction(1 - self.eps1, 4), Fraction(1 - self.eps2, 4))


def make_lattice(v1, v2) -> Lattice:
    """Build a positively oriented lattice, swapping generators if needed."""
    v1 = (float(v1[0]), float(v1[1]))
    v2 = (float(v2[0]), float(v2[1]))
    if v1[0] * v2[1] - v1[1] * v2[0] < 0.0:
        v1, v2 = v2, v1
    return Lattice(v1, v2)


def dual_modes(lat: Lattice, spin: SpinStructure, ms, ks) -> np.ndarray:
    """Shifted dual modes xi = (m + t1) gamma1* + (k + t2) gamma2* as R^2 vectors
    for integer index arrays ms, ks (broadcast together).

    t_i in {0, 1/2} is the canonical pairing of the shift with gamma_i
    (`SpinStructure.pairing_fractions`), so exp(2 pi i <xi, gamma_i>) = eps_i
    for every integer (m, k); dual_modes(lat, spin, 0, 0) is the shift delta.
    """
    t1, t2 = spin.pairing_fractions()
    d1, d2 = lat.dual_basis()
    a1 = np.asarray(ms, dtype=float) + float(t1)
    a2 = np.asarray(ks, dtype=float) + float(t2)
    return np.stack([a1 * d1[0] + a2 * d2[0], a1 * d1[1] + a2 * d2[1]], axis=-1)


def closed_form_spectrum(
    lat: Lattice, spin: SpinStructure, count: int
) -> list[tuple[float, int]]:
    """The `count` aggregated eigenvalues of smallest |value|.

    Returns (eigenvalue, complex multiplicity) pairs sorted by value then
    multiplicity.  Aggregation merges modes of equal |xi| (relative radius
    tolerance 1e-12), so a +-xi pair at radius r yields entries
    (-2 pi r, 2) and (+2 pi r, 2).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    for _, _, radii, certified in _mode_windows(lat, spin):
        entries = _aggregate_levels(radii.ravel())
        # Candidate order: by |value|, negatives first on ties.
        entries.sort(key=lambda e: (abs(e[0]), e[0]))
        if len(entries) >= count:
            selected = entries[:count]
            if max(abs(v) for v, _ in selected) / (2.0 * math.pi) < certified:
                return sorted(selected)


def _mode_windows(lat: Lattice, spin: SpinStructure):
    """Centered index windows (m, k) of doubling half-width h, each yielded with
    its mode radii |xi| and the radius h / max|gamma_i| below which it holds
    every mode.

    For |xi| < h / max|gamma_i|: |m + t1| = |<xi, gamma1>| <= |xi| |gamma1| < h,
    so |m| < h + 1/2, and |m| <= h as m and h are integers; likewise for k.
    """
    gen_norm = max(math.hypot(*lat.gamma1), math.hypot(*lat.gamma2))
    half_width = 4
    while half_width <= MAX_HALF_WIDTH:
        r = np.arange(-half_width, half_width + 1)
        mm, kk = np.meshgrid(r, r, indexing="ij")
        xi = dual_modes(lat, spin, mm, kk)
        yield mm, kk, np.hypot(xi[..., 0], xi[..., 1]), half_width / gen_norm
        half_width *= 2
    raise InvalidLatticeError(
        f"lattice: generators {lat.gamma1}, {lat.gamma2} are too skewed: no mode "
        f"window of half-width <= {MAX_HALF_WIDTH} certifies its shortest modes"
    )


def _aggregate_levels(radii: np.ndarray) -> list[tuple[float, int]]:
    radii = np.sort(radii)
    entries: list[tuple[float, int]] = []
    i = 0
    n = len(radii)
    while i < n:
        r = radii[i]
        j = i
        while j < n and radii[j] <= r + 1e-12 * max(1.0, r):
            j += 1
        mult = j - i
        if r < 1e-14:
            entries.append((0.0, 2 * mult))
        else:
            val = 2.0 * math.pi * float(r)
            entries.append((-val, mult))
            entries.append((val, mult))
        i = j
    return entries


def first_positive_eigenvalue(lat: Lattice, spin: SpinStructure) -> float:
    """lambda_1^+ = 2 pi |xi| over the shortest nonzero shifted dual mode."""
    xi = dual_modes(lat, spin, *first_eigenmode(lat, spin))
    return 2.0 * math.pi * float(np.hypot(xi[0], xi[1]))


def first_eigenmode(lat: Lattice, spin: SpinStructure) -> tuple[int, int]:
    """Integer index (m, k) of a shortest nonzero mode, deterministic tie-break."""
    for mm, kk, radii, certified in _mode_windows(lat, spin):
        nonzero = radii > 1e-14
        r_min, m, k = min(zip(radii[nonzero], mm[nonzero], kk[nonzero]))
        if r_min < certified:
            return int(m), int(k)


def sphere_lambda_min(n: int) -> float:
    """(n/2) omega_n^{1/n} with omega_n the volume of the round n-sphere."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    omega = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
    return 0.5 * n * omega ** (1.0 / n)


#: Threshold constant lambda_min^+(S^2) = 2 sqrt(pi) entering every verdict.
SPHERE_CONSTANT_2D = sphere_lambda_min(2)
