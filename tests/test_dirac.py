import gc
import math
import tracemalloc

import numpy as np
import pytest

from spintorus.dirac import (
    apply_dirac,
    dirac_spectrum_numeric,
    kernel_dimension,
    project_out_kernel,
    symbol_modulus,
)
from spintorus.fields import (
    SpinorField,
    eigenvector_at_mode,
    l2_inner,
    l2_norm,
    mode_vectors,
    pure_mode_field,
    random_band_limited,
)
from spintorus.lattice import SpinStructure, closed_form_spectrum, make_lattice

SQ = make_lattice((1, 0), (0, 1))
NT = SpinStructure(1, -1)
TRIV = SpinStructure.trivial()


def test_parallel_spinor_is_harmonic():
    n = 8
    const = np.full((n, n), 0.3 - 0.8j, dtype=complex)
    phi = SpinorField(SQ, TRIV, const, 1.5 * const)
    assert l2_norm(apply_dirac(phi)) < 1e-14


def test_pure_mode_eigencombination():
    lam, vp, vm = eigenvector_at_mode(SQ, NT, 1, -2)
    phi = pure_mode_field(SQ, NT, 8, 1, -2, vp, vm)
    assert l2_norm(apply_dirac(phi) - lam * phi) < 1e-12 * lam


def test_linearity(rng):
    a = random_band_limited(SQ, NT, 8, rng)
    b = random_band_limited(SQ, NT, 8, rng)
    lhs = apply_dirac(2.5 * a + (-1.0 + 0.5j) * b)
    rhs = 2.5 * apply_dirac(a) + (-1.0 + 0.5j) * apply_dirac(b)
    assert l2_norm(lhs - rhs) < 1e-13


def test_self_adjointness(rng):
    lat = make_lattice((1.2, 0), (-0.4, 0.9))
    for spin in SpinStructure.all_four():
        a = random_band_limited(lat, spin, 8, rng)
        b = random_band_limited(lat, spin, 8, rng)
        gap = l2_inner(apply_dirac(a), b) - l2_inner(a, apply_dirac(b))
        assert abs(gap) < 1e-13


def test_dirac_square_is_laplacian_on_modes():
    xi_x, xi_y = mode_vectors(SQ, NT, 8)
    phi = pure_mode_field(SQ, NT, 8, 2, 1, 0.7, -0.2j)
    lam2 = (2 * math.pi * math.hypot(xi_x[2, 1], xi_y[2, 1])) ** 2
    assert l2_norm(apply_dirac(apply_dirac(phi)) - lam2 * phi) < 1e-11


def test_numeric_kernel_trivial_square():
    pairs = dirac_spectrum_numeric(SQ, TRIV, 8, 2)
    assert all(abs(p.value) < 1e-10 for p in pairs)
    assert kernel_dimension(TRIV) == 2 and kernel_dimension(NT) == 0


def test_numeric_first_eigenvalue_square():
    pairs = dirac_spectrum_numeric(SQ, NT, 8, 4)
    lam1 = min(p.value for p in pairs if p.value > 0)
    assert lam1 == pytest.approx(math.pi, rel=1e-8)


def test_numeric_spectrum_symmetric():
    lat = make_lattice((1.1, 0), (0.25, 0.95))
    for spin in (TRIV, SpinStructure(-1, 1)):
        values = sorted(p.value for p in dirac_spectrum_numeric(lat, spin, 8, 10))
        assert np.allclose(values, sorted(-v for v in values), atol=1e-9)


def test_numeric_spectrum_pairs_each_level_negative_first():
    # k=10 takes 2 of the 8 values with |value| 6.4766 here; round-off must not pick which.
    lat = make_lattice((1, 0), (0, 2))
    values = [p.value for p in dirac_spectrum_numeric(lat, NT, 12, 10)]
    for neg, pos in zip(values[::2], values[1::2]):
        assert neg < 0 < pos
        assert abs(neg + pos) <= 1e-9


def test_numeric_matches_closed_form_small():
    lat = make_lattice((1, 0), (0, 2))
    closed = closed_form_spectrum(lat, NT, 6)
    flat = np.repeat([v for v, _ in closed], [m for _, m in closed])
    k = len(flat)
    numeric = sorted(p.value for p in dirac_spectrum_numeric(lat, NT, 12, k))
    assert np.allclose(numeric, sorted(flat), rtol=1e-9, atol=1e-10)


def test_grid_refinement_preserves_resolved_spectrum():
    coarse = sorted(p.value for p in dirac_spectrum_numeric(SQ, NT, 8, 6))
    fine = sorted(p.value for p in dirac_spectrum_numeric(SQ, NT, 16, 6))
    assert np.allclose(coarse, fine, atol=1e-10)


def test_eigenpair_residual_invariant():
    for pair in dirac_spectrum_numeric(SQ, NT, 8, 6):
        assert pair.residual() <= 1e-10 * max(1.0, abs(pair.value))
        assert l2_norm(pair.field) == pytest.approx(1.0, rel=1e-12)


def test_spectrum_size_errors():
    with pytest.raises(ValueError):
        dirac_spectrum_numeric(SQ, NT, 8, 2 * 64 + 1)
    with pytest.raises(ValueError):
        dirac_spectrum_numeric(SQ, NT, 26, 2)


def test_project_out_kernel_nontrivial_identity(rng):
    phi = random_band_limited(SQ, NT, 8, rng)
    out = project_out_kernel(phi)
    assert np.array_equal(out.u[0], phi.u[0])


def test_project_out_kernel_constant_to_zero():
    n = 8
    const = np.full((n, n), 1.0 + 2.0j)
    phi = SpinorField(SQ, TRIV, const, -const)
    assert l2_norm(project_out_kernel(phi)) < 1e-14


def test_project_out_kernel_orthogonality(rng):
    phi = random_band_limited(SQ, TRIV, 8, rng)
    n = phi.n_grid
    const = SpinorField(SQ, TRIV, np.ones((n, n), complex), np.ones((n, n), complex))
    out = project_out_kernel(phi)
    assert abs(l2_inner(out, const)) < 1e-13


def test_symbol_cache_drops_old_tori():
    # One torus is live at a time; after 20 tori the cache holds only a few.
    n = 64
    symbol_bytes = 2 * n * n * 16
    tracemalloc.start()
    try:
        for i in range(20):
            lat = make_lattice((1.0, 0.0), (0.0123 * i, 1.0 + 0.0371 * i))
            apply_dirac(SpinorField.from_array(lat, NT, np.zeros((2, n, n), complex)))
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 8 * symbol_bytes


def test_dense_oracle_holds_no_memory_after_its_spectrum():
    # Grid sizes no other test diagonalizes, so nothing of them exists yet;
    # the N=4 call does the first eigh's one-time setup before tracing starts.
    dirac_spectrum_numeric(SQ, NT, 4, 2)
    tracemalloc.start()
    try:
        for n in (10, 14, 18):
            dirac_spectrum_numeric(SQ, NT, n, 2)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


def test_mutating_mode_vectors_leaves_dirac_intact():
    lat = make_lattice((1.0, 0.0), (0.37, 1.13))  # a torus no other test builds
    xi_x, xi_y = mode_vectors(lat, NT, 8)
    xi_x[...] = 0.0
    xi_y[...] = 0.0
    lam, vp, vm = eigenvector_at_mode(lat, NT, 1, -2)
    phi = pure_mode_field(lat, NT, 8, 1, -2, vp, vm)
    assert l2_norm(apply_dirac(phi) - lam * phi) < 1e-12 * lam


def test_symbol_modulus_is_read_only_eigenvalue_modulus():
    lat = make_lattice((1.2, 0), (-0.4, 0.9))
    modulus = symbol_modulus(lat, NT, 8)
    assert not modulus.flags.writeable
    assert modulus[1, -2] == pytest.approx(eigenvector_at_mode(lat, NT, 1, -2)[0], rel=1e-14)
