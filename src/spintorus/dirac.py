"""The flat Dirac operator applied through shifted Fourier modes.

In the half-spinor splitting the operator acts on coefficient pairs as

    D (u_plus, u_minus) = (2 dbar u_minus, -2 del u_plus),

with dbar = (d_x + i d_y)/2 and del = (d_x - i d_y)/2 shifted by the spin
twist, i.e. the symbol at mode xi is the Hermitian matrix

    S(xi) = [[0, 2 pi i (xi_1 + i xi_2)], [-2 pi i (xi_1 - i xi_2), 0]]

with eigenvalues +-2 pi |xi|.  The factor 2 (rather than sqrt 2) is the
unit-norm trivialization constant of the half-spinor line bundles; it is
pinned by the flat-torus spectrum and the cylinder calibration in the
Weierstrass module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import SpinorField, l2_norm, mode_vectors
from .lattice import Lattice, SpinStructure

#: Dense diagonalization is an oracle; larger grids use the closed form.
DENSE_GRID_CAP = 24


@lru_cache(maxsize=4)
def _symbol(lat: Lattice, spin: SpinStructure, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The only per-torus cache: the symbol entries (S_12, S_21) stacked as a
    (2, N, N) array, and its modulus 2 pi |xi|, both read-only.

    One pipeline run works on one torus, so a few entries cover the live set.
    """
    xi_x, xi_y = mode_vectors(lat, spin, n)
    symbol = np.stack([2j * np.pi * (xi_x + 1j * xi_y), -2j * np.pi * (xi_x - 1j * xi_y)])
    modulus = 2.0 * np.pi * np.hypot(xi_x, xi_y)
    symbol.flags.writeable = modulus.flags.writeable = False
    return symbol, modulus


def dirac_symbol(lat: Lattice, spin: SpinStructure, n: int) -> np.ndarray:
    """(S_12, S_21) in fft2 order (read-only): D maps a spectrum u_hat to symbol * u_hat[::-1]."""
    return _symbol(lat, spin, n)[0]


def symbol_modulus(lat: Lattice, spin: SpinStructure, n: int) -> np.ndarray:
    """2 pi |xi| in fft2 index order: the modulus of D's eigenvalues (read-only)."""
    return _symbol(lat, spin, n)[1]


def apply_dirac(phi: SpinorField) -> SpinorField:
    """D phi, exact for band-limited fields: (S_12 u_minus, S_21 u_plus) modewise."""
    # Naming the spectrum keeps the product in the order symbol * u_hat at
    # every size: numpy computes `symbol * <temporary>` in place, as
    # temporary * symbol, once the temporary reaches 256 KiB, and a complex
    # product can round differently with its operands swapped.
    u_hat = np.fft.fft2(phi.u)
    return phi.with_u(np.fft.ifft2(dirac_symbol(phi.lat, phi.spin, phi.n_grid) * u_hat[::-1]))


def project_out_kernel(phi: SpinorField) -> SpinorField:
    """Remove the L^2 projection onto ker D (nonempty only for trivial spin)."""
    if not phi.spin.is_trivial:
        return phi
    return phi.with_u(phi.u - phi.u.mean(axis=(1, 2), keepdims=True))


def kernel_dimension(spin: SpinStructure) -> int:
    """Complex dimension of ker D on the torus."""
    return 2 if spin.is_trivial else 0


@dataclass(frozen=True)
class EigenPair:
    value: float
    field: SpinorField

    def residual(self) -> float:
        return l2_norm(apply_dirac(self.field) - self.value * self.field)


def dirac_dense_matrix(lat: Lattice, spin: SpinStructure, n: int) -> np.ndarray:
    """Dense 2 N^2 x 2 N^2 matrix of apply_dirac in the sample basis.

    The dense DFT matrices are built per call and not cached.
    """
    s12, s21 = dirac_symbol(lat, spin, n)
    # D = F^* diag(symbol) F blockwise; assemble with dense DFT matrices.
    # Unnormalized forward DFT, entry (j, k) = w^(j k) with w = exp(-2 pi i / n).
    f1 = np.exp(-2j * np.pi * np.arange(n) / n).reshape(-1, 1) ** np.arange(n)
    fwd = np.kron(f1, f1)
    inv = fwd.conj().T / n**2
    a12 = inv @ (s12.ravel()[:, None] * fwd)
    a21 = inv @ (s21.ravel()[:, None] * fwd)
    dim = n * n
    mat = np.zeros((2 * dim, 2 * dim), dtype=complex)
    mat[:dim, dim:] = a12
    mat[dim:, :dim] = a21
    return mat


def dirac_spectrum_numeric(
    lat: Lattice, spin: SpinStructure, n_grid: int, k: int
) -> list[EigenPair]:
    """k eigenpairs of the dense sample-basis Dirac matrix nearest 0.

    Sorted by level: values whose |value| lie within 1e-9 times the largest
    |value| of each other form one level, levels go by |value|, and within a
    level the values of each sign are ranked by |value| and paired negative
    first (-a, +a, -b, +b), so an even k cuts a symmetric level symmetrically.
    Eigenfields are unit L^2 normalized.
    """
    dim = 2 * n_grid**2
    if k > dim:
        raise ValueError(f"requested {k} eigenpairs from a {dim}-dimensional space")
    if n_grid > DENSE_GRID_CAP:
        raise ValueError(f"dense diagonalization capped at N={DENSE_GRID_CAP}")
    mat = dirac_dense_matrix(lat, spin, n_grid)
    vals, vecs = np.linalg.eigh(mat)
    mag = np.abs(vals)
    by_mag = np.argsort(mag, kind="stable")
    level = np.empty(dim, dtype=int)
    level[by_mag] = np.concatenate(([0], np.cumsum(np.diff(mag[by_mag]) > 1e-9 * mag[by_mag[-1]])))
    positive = vals >= 0
    rank = np.empty(dim, dtype=int)
    for sign in (False, True):
        idx = by_mag[positive[by_mag] == sign]
        # idx runs by |value|, so each level's entries are contiguous in it
        rank[idx] = np.arange(len(idx)) - np.searchsorted(level[idx], level[idx])
    order = np.lexsort((positive, rank, level))[:k]
    out = []
    for idx in order:
        u = vecs[:, idx].reshape(2, n_grid, n_grid)
        field = SpinorField.from_array(lat, spin, u)
        field = (1.0 / l2_norm(field)) * field
        out.append(EigenPair(float(vals[idx]), field))
    return out
