import math
from fractions import Fraction

import numpy as np
import pytest

from spintorus.lattice import (
    InvalidLatticeError,
    Lattice,
    SpinStructure,
    closed_form_spectrum,
    dual_modes,
    first_eigenmode,
    first_positive_eigenvalue,
    make_lattice,
    sphere_lambda_min,
)

NONTRIVIAL = SpinStructure(1, -1)


def test_make_lattice_unit_square():
    lat = make_lattice((1, 0), (0, 1))
    assert lat.area == 1.0


def test_make_lattice_normalized_fundamental_domain():
    # |x| <= 1/2, x^2 + y^2 >= 1, y > 0 is a valid reduced shape
    lat = make_lattice((1, 0), (0.5, 1.2))
    assert lat.area == pytest.approx(1.2)


def test_make_lattice_rejects_collinear():
    with pytest.raises(InvalidLatticeError):
        make_lattice((1, 0), (2, 0))


def test_make_lattice_fixes_orientation():
    lat = make_lattice((0, 1), (1, 0))
    assert lat.det() > 0
    assert lat.gamma1 == (1.0, 0.0)


def test_dual_modes_shift_trivial_is_zero():
    lat = make_lattice((1, 0), (0, 1))
    assert np.allclose(dual_modes(lat, SpinStructure.trivial(), 0, 0), 0.0)


@pytest.mark.parametrize("y", [0.7, 1.0, 2.0])
def test_dual_modes_shift_rectangle(y):
    lat = make_lattice((1, 0), (0, y))
    delta = dual_modes(lat, NONTRIVIAL, 0, 0)
    assert delta == pytest.approx([0.0, 1.0 / (2.0 * y)])


def test_dual_modes_shift_square_both_twisted():
    lat = make_lattice((1, 0), (0, 1))
    delta = dual_modes(lat, SpinStructure(-1, -1), 0, 0)
    assert delta == pytest.approx([0.5, 0.5])


def test_mode_pairings_exact_rational():
    lat, spin = make_lattice((1, 0), (0.3, 1.4)), SpinStructure(-1, 1)
    t1, t2 = spin.pairing_fractions()
    assert t1 % 1 == Fraction(1, 2) and t2 % 1 == 0
    idx = np.fft.fftfreq(8, d=1.0 / 8)
    mm, kk = np.meshgrid(idx, idx, indexing="ij")
    xi = dual_modes(lat, spin, mm, kk)
    # <xi_{m,k}, gamma_i> = m + t_i, so exp(2 pi i <xi, gamma_i>) = eps_i
    for gamma, pairing, eps in ((lat.gamma1, mm + float(t1), spin.eps1),
                                (lat.gamma2, kk + float(t2), spin.eps2)):
        assert np.allclose(xi @ np.array(gamma), pairing, rtol=0.0, atol=1e-12)
        assert np.allclose(np.exp(2j * np.pi * (xi @ np.array(gamma))), eps, rtol=0.0, atol=1e-12)


def test_spectrum_trivial_square():
    spec = closed_form_spectrum(make_lattice((1, 0), (0, 1)), SpinStructure.trivial(), 3)
    assert spec[0] == pytest.approx((-2 * math.pi, 4))
    assert spec[1] == (0.0, 2)
    assert spec[2] == pytest.approx((2 * math.pi, 4))


@pytest.mark.parametrize("y", [1.0, 2.0, 4.0])
def test_spectrum_rectangle_first_eigenvalue(y):
    lat = make_lattice((1, 0), (0, y))
    lam1 = first_positive_eigenvalue(lat, NONTRIVIAL)
    assert lam1 == pytest.approx(math.pi / y, rel=1e-14)
    assert lam1 * math.sqrt(lat.area) == pytest.approx(math.pi / math.sqrt(y), rel=1e-14)


def test_spectrum_symmetric_about_zero(rng):
    # the multiset is symmetric below the largest fully selected level
    lat = make_lattice((1.3, 0), (0.4, 0.9))
    for spin in SpinStructure.all_four():
        spec = closed_form_spectrum(lat, spin, 11)
        top = max(abs(v) for v, _ in spec)
        inner = [(v, m) for v, m in spec if abs(v) < top - 1e-12]
        mults = {round(v, 12): m for v, m in inner}
        assert inner
        for v, m in inner:
            assert mults[round(-v, 12)] == m


def test_zero_mode_only_for_trivial():
    lat = make_lattice((1, 0), (0.2, 1.1))
    for spin in SpinStructure.all_four():
        values = [v for v, _ in closed_form_spectrum(lat, spin, 5)]
        has_zero = any(abs(v) < 1e-13 for v in values)
        assert has_zero == spin.is_trivial


def test_spectrum_scaling():
    lat = make_lattice((1, 0), (0.1, 1.7))
    big = lat.scaled(2.5)
    a = closed_form_spectrum(lat, NONTRIVIAL, 8)
    b = closed_form_spectrum(big, NONTRIVIAL, 8)
    for (va, ma), (vb, mb) in zip(a, b):
        assert vb == pytest.approx(va / 2.5, rel=1e-13)
        assert ma == mb
    inv_a = first_positive_eigenvalue(lat, NONTRIVIAL) * math.sqrt(lat.area)
    inv_b = first_positive_eigenvalue(big, NONTRIVIAL) * math.sqrt(big.area)
    assert inv_a == pytest.approx(inv_b, rel=1e-13)


@pytest.mark.parametrize("s", [1e-100, 1e-12, 1.0, 1e12, 1e100])
@pytest.mark.parametrize("spin", SpinStructure.all_four(), ids=lambda s: f"{s.eps1:+d}{s.eps2:+d}")
def test_spectrum_levels_at_every_scale(spin, s):
    """Levels merge by relative radius and only radius 0 is the kernel, so the 1:2
    rectangle scaled by s has the multiplicities of s = 1 and its values over s."""
    lat, ref_lat = make_lattice((s, 0), (0, 2 * s)), make_lattice((1, 0), (0, 2))
    got, ref = closed_form_spectrum(lat, spin, 12), closed_form_spectrum(ref_lat, spin, 12)
    assert [m for _, m in got] == [m for _, m in ref]
    for (v, _), (w, _) in zip(got, ref):
        assert v == pytest.approx(w / s, rel=1e-12, abs=0.0)
    lam1 = first_positive_eigenvalue(lat, spin)
    assert lam1 == pytest.approx(first_positive_eigenvalue(ref_lat, spin) / s, rel=1e-12)


def test_sphere_lambda_min_values():
    assert sphere_lambda_min(2) == pytest.approx(2 * math.sqrt(math.pi), abs=1e-15)
    assert sphere_lambda_min(3) == pytest.approx(1.5 * (2 * math.pi**2) ** (1 / 3), rel=1e-14)
    with pytest.raises(ValueError):
        sphere_lambda_min(1)


def test_first_eigenmode_deterministic():
    lat = make_lattice((1, 0), (0, 1))
    assert first_eigenmode(lat, NONTRIVIAL) == first_eigenmode(lat, NONTRIVIAL)
    m, k = first_eigenmode(lat, SpinStructure.trivial())
    assert (m, k) != (0, 0)


def test_spectrum_count_validation():
    with pytest.raises(ValueError):
        closed_form_spectrum(make_lattice((1, 0), (0, 1)), NONTRIVIAL, 0)


def test_lattice_unit_area():
    lat = make_lattice((2, 0), (0.5, 3)).unit_area()
    assert lat.area == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_generators_rejected(bad):
    with pytest.raises(InvalidLatticeError, match="finite"):
        make_lattice((1, 0), (bad, 2))
    with pytest.raises(InvalidLatticeError, match="finite"):
        make_lattice((bad, 0), (0, 2))
    with pytest.raises(InvalidLatticeError, match="finite"):  # finite entries, infinite area
        make_lattice((1e200, 0), (0, 1e200))


@pytest.mark.parametrize(
    "gamma1", [(1.0, 0.0, 0.0), (1.0,), ("a", 0.0), (None, 0.0), [1.0, 0.0]],
    ids=["three-entries", "one-entry", "string", "none", "list"],
)
def test_generators_must_be_pairs_of_real_numbers(gamma1):
    with pytest.raises(InvalidLatticeError, match="pairs of finite real numbers"):
        Lattice(gamma1, (0.0, 1.0))
