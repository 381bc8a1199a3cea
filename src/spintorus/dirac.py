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


@lru_cache(maxsize=64)
def _symbols(lat: Lattice, spin: SpinStructure, n: int):
    xi_x, xi_y = mode_vectors(lat, spin, n)
    s12 = 2j * np.pi * (xi_x + 1j * xi_y)
    s21 = -2j * np.pi * (xi_x - 1j * xi_y)
    return s12, s21


def apply_dirac(phi: SpinorField) -> SpinorField:
    """D phi, exact for band-limited fields."""
    s12, s21 = _symbols(phi.lat, phi.spin, phi.n_grid)
    p_hat = np.fft.fft2(phi.plus)
    m_hat = np.fft.fft2(phi.minus)
    return phi.like(np.fft.ifft2(s12 * m_hat), np.fft.ifft2(s21 * p_hat))


def apply_dirac_arrays(lat, spin, plus, minus):
    """Component-array form of apply_dirac (used by matrix-free solvers)."""
    s12, s21 = _symbols(lat, spin, plus.shape[0])
    return (
        np.fft.ifft2(s12 * np.fft.fft2(minus)),
        np.fft.ifft2(s21 * np.fft.fft2(plus)),
    )


def project_out_kernel(phi: SpinorField) -> SpinorField:
    """Remove the L^2 projection onto ker D (nonempty only for trivial spin)."""
    if not phi.spin.is_trivial:
        return phi
    return phi.like(phi.plus - phi.plus.mean(), phi.minus - phi.minus.mean())


def kernel_dimension(spin: SpinStructure) -> int:
    """Complex dimension of ker D on the torus."""
    return 2 if spin.is_trivial else 0


@dataclass(frozen=True)
class EigenPair:
    value: float
    field: SpinorField

    def residual(self) -> float:
        return l2_norm(apply_dirac(self.field) - self.value * self.field)


@lru_cache(maxsize=8)
def _dft_pair(n: int):
    import scipy.linalg

    f1 = scipy.linalg.dft(n)  # unnormalized forward DFT
    fwd = np.kron(f1, f1)
    return fwd, fwd.conj().T / n**2


def dirac_dense_matrix(lat: Lattice, spin: SpinStructure, n: int) -> np.ndarray:
    """Dense 2 N^2 x 2 N^2 matrix of apply_dirac in the sample basis."""
    s12, s21 = _symbols(lat, spin, n)
    # D = F^* diag(symbol) F blockwise; assemble with dense DFT matrices.
    fwd, inv = _dft_pair(n)
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

    Sorted by |value| then value; eigenfields are unit L^2 normalized.
    """
    dim = 2 * n_grid**2
    if k > dim:
        raise ValueError(f"requested {k} eigenpairs from a {dim}-dimensional space")
    if n_grid > DENSE_GRID_CAP:
        raise ValueError(f"dense diagonalization capped at N={DENSE_GRID_CAP}")
    import scipy.linalg

    mat = dirac_dense_matrix(lat, spin, n_grid)
    vals, vecs = scipy.linalg.eigh(mat, check_finite=False)
    order = np.lexsort((vals, np.abs(vals)))[:k]
    out = []
    half = n_grid**2
    for idx in order:
        vec = vecs[:, idx]
        field = SpinorField(
            lat,
            spin,
            vec[:half].reshape(n_grid, n_grid),
            vec[half:].reshape(n_grid, n_grid),
        )
        field = (1.0 / l2_norm(field)) * field
        out.append(EigenPair(float(vals[idx]), field))
    return out
