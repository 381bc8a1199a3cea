import numpy as np
import pytest

from spintorus.fields import (
    SpinorField,
    _fft2,
    _ifft2,
    l2_inner,
    l2_norm,
    lp_norm,
    mode_index_grid,
    pure_mode_field,
    random_band_limited,
    resample,
    spinor_from_dict,
    spinor_to_dict,
)
from spintorus.dirac import apply_dirac
from spintorus.lattice import SpinStructure, dual_modes, make_lattice

SQ = make_lattice((1, 0), (0, 1))
NT = SpinStructure(1, -1)


def constant_field(lat, spin, n, c):
    arr = np.full((n, n), c, dtype=complex)
    return SpinorField(lat, spin, arr, np.zeros_like(arr))


def test_lp_norm_constant():
    lat = make_lattice((1, 0), (0, 2.5))
    phi = constant_field(lat, NT, 8, 0.7)
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(phi, p) == pytest.approx(0.7 * lat.area ** (1 / p), rel=1e-14)


def test_lp_norm_homogeneity(rng):
    phi = random_band_limited(SQ, NT, 8, rng)
    assert lp_norm(2.0 * phi, 3.0) == pytest.approx(2.0 * lp_norm(phi, 3.0), rel=1e-13)


def test_l4_norm_unit_mode():
    # phi_plus = e^{2 pi i x}, phi_minus = 0 has |phi| = 1
    phi = pure_mode_field(SQ, SpinStructure.trivial(), 8, 1, 0, 1.0, 0.0)
    assert lp_norm(phi, 4.0) == pytest.approx(1.0, rel=1e-14)


def test_lp_norm_rejects_small_p(rng):
    with pytest.raises(ValueError):
        lp_norm(random_band_limited(SQ, NT, 8, rng), 0.5)


def test_grid_validation():
    bad = np.zeros((6, 4), dtype=complex)
    with pytest.raises(ValueError):
        SpinorField(SQ, NT, bad, bad)
    odd = np.zeros((5, 5), dtype=complex)
    with pytest.raises(ValueError):
        SpinorField(SQ, NT, odd, odd)


def test_field_reconstruction_from_modes(rng):
    # samples = sum over shifted modes of coefficients, checked by direct evaluation
    n = 4
    spin = SpinStructure(-1, -1)
    lat = make_lattice((1, 0), (0.2, 1.3))
    coeffs = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    plus = np.fft.ifft2(coeffs) * n**2
    phi = SpinorField(lat, spin, plus, np.zeros_like(plus))
    idx = np.fft.fftfreq(n, d=1.0 / n)
    direct = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for l in range(n):
            val = 0.0
            for a, m in enumerate(idx):
                for b, k in enumerate(idx):
                    val += coeffs[a, b] * np.exp(2j * np.pi * (m * j + k * l) / n)
            direct[j, l] = val
    assert np.allclose(direct, phi.u[0], atol=1e-12)


def test_l2_inner_conjugate_symmetry(rng):
    a = random_band_limited(SQ, NT, 8, rng)
    b = random_band_limited(SQ, NT, 8, rng)
    assert l2_inner(a, b) == pytest.approx(np.conj(l2_inner(b, a)))
    assert l2_norm(a) == pytest.approx(abs(l2_inner(a, a)) ** 0.5)


def test_serialization_dict_is_json_safe(rng):
    import json

    lat = make_lattice((1.1, 0), (0.3, 0.9))
    phi = random_band_limited(lat, SpinStructure(-1, 1), 8, rng)
    text = json.dumps(spinor_to_dict(phi))
    again = spinor_from_dict(json.loads(text))
    assert again.lat == phi.lat
    assert again.spin == phi.spin
    assert np.array_equal(again.u, phi.u)


def test_mode_pairing_invariant_on_grid_modes():
    # every grid mode satisfies exp(2 pi i <xi, gamma_i>) = eps_i
    n = 8
    spin = SpinStructure(-1, -1)
    lat = make_lattice((1, 0), (0.4, 1.2))
    t1, t2 = spin.pairing_fractions()
    mm, kk = mode_index_grid(n)
    xi = dual_modes(lat, spin, mm, kk)
    for gamma, pairing, eps in ((lat.gamma1, mm + float(t1), spin.eps1),
                                (lat.gamma2, kk + float(t2), spin.eps2)):
        assert np.allclose(xi @ np.array(gamma), pairing, rtol=0.0, atol=1e-12)
        assert np.allclose(np.exp(2j * np.pi * (xi @ np.array(gamma))), eps, rtol=0.0, atol=1e-12)


def full_spectrum_field(lat, spin, n, rng):
    """Random samples: energy on every mode of the grid, its Nyquist row and column too."""
    samples = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    return SpinorField.from_array(lat, spin, samples)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_resample_restriction_undoes_prolongation(rng, n):
    coarse = full_spectrum_field(SQ, NT, n, rng)
    fine = resample(coarse, 2 * n)
    assert fine.n_grid == 2 * n
    scale = np.abs(coarse.u).max()
    # fine holds only the modes of the n grid, so restricting then prolonging it is the identity
    assert np.abs(resample(fine, n).u - coarse.u).max() <= 1e-15 * scale
    assert np.abs(resample(resample(fine, n), 2 * n).u - fine.u).max() <= 1e-15 * scale
    assert l2_norm(fine) == pytest.approx(l2_norm(coarse), rel=1e-14)
    assert l2_norm(resample(fine, n)) == pytest.approx(l2_norm(coarse), rel=1e-14)


@pytest.mark.parametrize("spin", SpinStructure.all_four())
def test_resample_commutes_with_dirac_on_the_nyquist_modes(rng, spin):
    # The n grid's Nyquist index holds the mode -n/2; the 2n grid keeps it at -n/2,
    # where D acts by the same symbol.
    lat = make_lattice((1, 0), (0.3, 1.4))
    n = 8
    phi = full_spectrum_field(lat, spin, n, rng)
    hat = np.fft.fft2(phi.u)
    assert np.abs(hat[:, n // 2, :]).min() > 0 and np.abs(hat[:, :, n // 2]).min() > 0
    got = apply_dirac(resample(phi, 2 * n)).u
    want = resample(apply_dirac(phi), 2 * n).u
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_resample_rejects_an_odd_grid(rng):
    with pytest.raises(ValueError, match="even"):
        resample(random_band_limited(SQ, NT, 8, rng), 7)


@pytest.mark.parametrize("norm", [None, "ortho", "forward"])
@pytest.mark.parametrize("n", [8, 12, 16, 24, 32])
def test_fft_pair_is_numpys_fft2_bit_for_bit(rng, n, norm):
    for shape in ((n, n), (2, n, n), (3, n, n)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for x in (a, a.real):  # the Weierstrass layer transforms real arrays
            assert np.array_equal(_fft2(x, norm=norm), np.fft.fft2(x, norm=norm))
            assert np.array_equal(_ifft2(x, norm=norm), np.fft.ifft2(x, norm=norm))
