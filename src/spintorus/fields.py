"""Spinor fields sampled on an N x N grid over one fundamental domain.

Storage convention
------------------
A half-spinor pair phi = (phi_plus, phi_minus) twisted by the holonomy chi
is stored through its untwisted coefficient functions

    u_pm(x) = exp(-2 pi i <delta, x>) phi_pm(x),

which are honestly Gamma-periodic; the twist lives entirely in the Fourier
shift delta (see lattice.dual_modes).  Pointwise norms are unaffected:
|phi| = |u|.  Grid point (j, l) sits at x = (j/N) gamma1 + (l/N) gamma2.
Both coefficient functions live in one contiguous complex (2, N, N) array
`SpinorField.u`, plus component first (the order of the file format).

Fourier convention: numpy's default fft2/ifft2 over the last two axes, which
every 2-D transform takes through _fft2/_ifft2 (the same bits for less per-call
overhead), so u[j, l] = sum_{m,k} d[m,k] exp(2 pi i (m j + k l)/N) with
d = fft2(u)/N^2 and integer modes m, k = N * fftfreq(N) (`mode_index_grid`).
The physical mode vector of index (m, k) is xi = (m + t1) gamma1* +
(k + t2) gamma2* with t_i the shift pairings.  The solver's MINRES alone runs
on unitary spectra, fft2(u)/N.
The mode grids here are plain functions that build fresh arrays on each
call; the only per-torus cache is the Dirac symbol in `dirac.py`.

Quadrature: integrals over the torus are uniform Riemann sums,
integral f dvol ~= (area/N^2) sum_grid f, spectrally accurate for smooth
periodic integrands and exact for band-limited ones.

Serialization: one JSON object with a header {lattice, spin, n_grid} and
the two coefficient arrays as base64 raw bytes, little-endian complex128,
row-major, plus component first.
"""

from __future__ import annotations

import base64
import numbers
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, SpinStructure, dual_modes, first_eigenmode


@dataclass(frozen=True, eq=False, init=False)
class SpinorField:
    """Half-spinor pair on the grid, stored as one complex (2, N, N) array u."""

    lat: Lattice
    spin: SpinStructure
    u: np.ndarray

    def __init__(self, lat: Lattice, spin: SpinStructure, plus, minus):
        # np.stack copies, and raises ValueError on unequal shapes.
        self._set(lat, spin, np.stack([plus, minus]).astype(complex, copy=False))

    @classmethod
    def from_array(cls, lat: Lattice, spin: SpinStructure, u: np.ndarray):
        """Field over the (2, N, N) array u; no copy when u is contiguous complex."""
        phi = cls.__new__(cls)
        phi._set(lat, spin, np.ascontiguousarray(u, dtype=complex))
        return phi

    def _set(self, lat, spin, u):
        if u.ndim != 3 or u.shape[0] != 2 or u.shape[1] != u.shape[2]:
            raise ValueError("components must be square arrays of equal shape")
        _check_grid_size(u.shape[1])
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "spin", spin)
        object.__setattr__(self, "u", u)

    @property
    def n_grid(self) -> int:
        return self.u.shape[1]

    def with_u(self, u: np.ndarray) -> "SpinorField":
        """Field on the same lattice and spin structure over the array u."""
        return SpinorField.from_array(self.lat, self.spin, u)

    def __add__(self, other: "SpinorField") -> "SpinorField":
        return self.with_u(self.u + other.u)

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        return self.with_u(self.u - other.u)

    def __mul__(self, c) -> "SpinorField":
        return self.with_u(c * self.u)

    __rmul__ = __mul__


def _check_grid_size(n) -> int:
    """n if it is an even int >= 4, else ValueError."""
    if not isinstance(n, int) or n < 4 or n % 2 != 0:
        raise ValueError(f"grid size must be even and >= 4, got {n!r}")
    return n


def pointwise_norm(u: np.ndarray) -> np.ndarray:
    """|phi| of a (2, N, N) coefficient array; the component axis is summed first."""
    return np.sqrt((np.abs(u) ** 2).sum(axis=0))


def quadrature_weight(phi: SpinorField) -> float:
    return phi.lat.area / phi.n_grid**2


def pointwise_power(w: np.ndarray, expo: float) -> np.ndarray:
    """w^expo on nonnegative arrays with the 0 -> 0 convention (0^0 = 1)."""
    if expo == 0.0:
        return np.ones_like(w)
    out = np.zeros_like(w)
    mask = w > 0.0
    out[mask] = w[mask] ** expo
    return out


def lp_norm(phi: SpinorField, p: float) -> float:
    if p < 1.0:
        raise ValueError("p must be >= 1")
    w = quadrature_weight(phi)
    dens = pointwise_norm(phi.u) ** p
    return float((w * dens.sum()) ** (1.0 / p))


def l2_inner(a: SpinorField, b: SpinorField) -> complex:
    """<a, b>_{L^2}, antilinear in the first slot."""
    w = quadrature_weight(a)
    return complex(w * (np.vdot(a.u[0], b.u[0]) + np.vdot(a.u[1], b.u[1])))


def l2_norm(phi: SpinorField) -> float:
    return lp_norm(phi, 2.0)


def _fft2(a: np.ndarray, norm: str | None = None) -> np.ndarray:
    """np.fft.fft2 bit for bit (_ifft2: ifft2), by its 1-D transforms: axis -1, then -2."""
    return np.fft.fft(np.fft.fft(a, norm=norm), axis=-2, norm=norm)


def _ifft2(a: np.ndarray, norm: str | None = None) -> np.ndarray:
    return np.fft.ifft(np.fft.ifft(a, norm=norm), axis=-2, norm=norm)


def mode_index_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer mode indices (m, k) of fft2 order on an N x N grid."""
    idx = np.fft.fftfreq(n, d=1.0 / n)
    mm, kk = np.meshgrid(idx, idx, indexing="ij")
    return mm, kk


def mode_vectors(lat: Lattice, spin: SpinStructure, n: int):
    """Shifted mode component arrays (xi_x, xi_y), fft2 index order."""
    xi = dual_modes(lat, spin, *mode_index_grid(n))
    return np.ascontiguousarray(xi[..., 0]), np.ascontiguousarray(xi[..., 1])


def squared_twist_grid(lat: Lattice, spin: SpinStructure, n: int) -> np.ndarray:
    """exp(2 pi i <2 delta, x>) sampled on the grid (for quadratic expressions)."""
    t1, t2 = spin.pairing_fractions()
    j = np.arange(n)
    # 2 delta is in Gamma*, so this is the plain Fourier mode with integer
    # pairings (2 t1, 2 t2).
    return np.exp(2j * np.pi * (np.add.outer(2.0 * t1 * j, 2.0 * t2 * j)) / n)


def pure_mode_field(
    lat: Lattice,
    spin: SpinStructure,
    n: int,
    m: int,
    k: int,
    a_plus: complex,
    a_minus: complex,
) -> SpinorField:
    """Single Fourier mode (m, k) with the given component amplitudes."""
    j = np.arange(n)
    wave = np.exp(2j * np.pi * (np.add.outer(m * j, k * j)) / n)
    return SpinorField(lat, spin, a_plus * wave, a_minus * wave)


def eigenvector_at_mode(
    lat: Lattice, spin: SpinStructure, m: int, k: int
) -> tuple[float, complex, complex]:
    """(2 pi |xi|, v_plus, v_minus) for the positive symbol eigenvalue at (m, k)."""
    xi = dual_modes(lat, spin, m, k)
    xc = complex(xi[0], xi[1])
    r = abs(xc)
    if r == 0.0:
        raise ValueError("zero mode has no positive eigenvalue")
    # Symbol [[0, 2 pi i xc], [-2 pi i conj(xc), 0]]; (1, -i conj(xc)/r) is the
    # +2 pi r eigenvector.
    return 2.0 * np.pi * r, 1.0 / np.sqrt(2.0), -1j * np.conj(xc) / (r * np.sqrt(2.0))


def first_positive_eigenspinor(
    lat: Lattice, spin: SpinStructure, n: int
) -> SpinorField:
    """Unit-L^2 eigenspinor to lambda_1^+, built from the shortest nonzero mode."""
    m, k = first_eigenmode(lat, spin)
    _, vp, vm = eigenvector_at_mode(lat, spin, m, k)
    phi = pure_mode_field(lat, spin, n, m, k, vp, vm)
    return (1.0 / l2_norm(phi)) * phi


def random_band_limited(
    lat: Lattice, spin: SpinStructure, n: int, rng: np.random.Generator
) -> SpinorField:
    """Unit-L^2 Gaussian random field supported on modes |m|, |k| <= N // 4."""
    band = n // 4
    coeffs = np.zeros((2, n, n), dtype=complex)
    span = np.r_[0 : band + 1, n - band : n]
    block = rng.standard_normal((2, len(span), len(span))) + 1j * rng.standard_normal(
        (2, len(span), len(span))
    )
    coeffs[np.ix_([0, 1], span, span)] = block
    phi = SpinorField.from_array(lat, spin, _ifft2(coeffs) * n**2)
    return (1.0 / l2_norm(phi)) * phi


def resample(phi: SpinorField, m: int) -> SpinorField:
    """phi on an M x M grid, its Fourier coefficients truncated or zero-padded; the smaller
    grid's Nyquist index h holds the mode -h, as mode_index_grid labels it, so D commutes."""
    n, half = phi.n_grid, min(phi.n_grid, m) // 2
    src = _fft2(phi.u, norm="forward")
    coeffs = np.zeros((2, m, m), dtype=complex)
    corners = [(slice(0, half),) * 2, (slice(n - half, n), slice(m - half, m))]  # modes >= 0, < 0
    for rows_src, rows_dst in corners:
        for cols_src, cols_dst in corners:
            coeffs[:, rows_dst, cols_dst] = src[:, rows_src, cols_src]
    return phi.with_u(_ifft2(coeffs, norm="forward"))


# ---------------------------------------------------------------------------
# Serialization

SPINOR_FORMAT = "spintorus-spinor"


def _encode(arr: np.ndarray) -> str:
    buf = np.ascontiguousarray(arr, dtype="<c16").tobytes()
    return base64.b64encode(buf).decode("ascii")


def _decode(text: str, n: int) -> np.ndarray:
    raw = base64.b64decode(text)
    if len(raw) != 16 * n * n:
        raise ValueError(f"payload holds {len(raw)} bytes, n_grid={n} needs {16 * n * n}")
    comp = np.frombuffer(raw, dtype="<c16").reshape(n, n)
    if not np.isfinite(comp).all():
        raise ValueError("payload holds non-finite values")
    return comp


def parse_entry(data: dict, key: str, parse):
    """parse(data.get(key)), any KeyError, TypeError or ValueError raised as one naming key."""
    try:
        return parse(data.get(key))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from exc


def real_number(value) -> float:
    """value as a float; anything but a real number (a str or bool too) is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a real number, got {value!r}")
    return float(value)


def spinor_to_dict(phi: SpinorField) -> dict:
    return {
        "format": SPINOR_FORMAT,
        "byte_order": "little-endian complex128, row-major",
        "lattice": {"gamma1": list(phi.lat.gamma1), "gamma2": list(phi.lat.gamma2)},
        "spin": {"eps1": phi.spin.eps1, "eps2": phi.spin.eps2},
        "n_grid": phi.n_grid,
        "plus": _encode(phi.u[0]),
        "minus": _encode(phi.u[1]),
    }


def spinor_from_dict(data: dict, fmt: str = SPINOR_FORMAT) -> SpinorField:
    """Field of a container whose format tag is fmt; payloads must be finite.
    A malformed entry raises a ValueError that names it."""
    if data.get("format") != fmt:
        raise ValueError(f"format: expected {fmt!r}, got {data.get('format')!r}")
    lat = parse_entry(data, "lattice", lambda d: Lattice(tuple(d["gamma1"]), tuple(d["gamma2"])))
    spin = parse_entry(data, "spin", lambda d: SpinStructure(d["eps1"], d["eps2"]))
    n = parse_entry(data, "n_grid", _check_grid_size)
    payloads = [parse_entry(data, key, lambda text: _decode(text, n)) for key in ("plus", "minus")]
    return SpinorField.from_array(lat, spin, np.stack(payloads))
