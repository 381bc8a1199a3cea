"""Property tests of the spectral core, the F_q functional and the Weierstrass
verifier over random lattices, spin structures and grids."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintorus.dirac import apply_dirac, dirac_spectrum_numeric
from spintorus.fields import SpinorField, l2_inner, l2_norm, mode_vectors
from spintorus.functional import functional_Fq
from spintorus.lattice import (
    Lattice,
    SpinStructure,
    closed_form_spectrum,
    dual_modes,
    first_eigenmode,
    first_positive_eigenvalue,
)
from spintorus.solver import Solution, constant_solution
from spintorus.weierstrass import build_alpha, integrate_immersion, verify_immersion

PROPERTY = settings(deadline=None, max_examples=40)


@st.composite
def lattices(draw):
    """Positively oriented lattices: angle in (0.3, pi - 0.3), lengths in [0.5, 2]."""
    r1 = draw(st.floats(0.5, 2.0))
    r2 = draw(st.floats(0.5, 2.0))
    t = draw(st.floats(0.0, 2.0 * math.pi))
    angle = draw(st.floats(0.3, math.pi - 0.3))
    return Lattice(
        (r1 * math.cos(t), r1 * math.sin(t)),
        (r2 * math.cos(t + angle), r2 * math.sin(t + angle)),
    )


@st.composite
def fields(draw):
    """A field with every grid mode populated, on a random torus, spin and even N."""
    lat = draw(lattices())
    spin = draw(st.sampled_from(SpinStructure.all_four()))
    n = 2 * draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    return SpinorField(lat, spin, u[0], u[1])


def two_fft_dirac(phi):
    """Reference: one fft2/ifft2 pair per component with the unstacked symbol."""
    xi_x, xi_y = mode_vectors(phi.lat, phi.spin, phi.n_grid)
    s12 = 2j * np.pi * (xi_x + 1j * xi_y)
    s21 = -2j * np.pi * (xi_x - 1j * xi_y)
    p_hat = np.fft.fft2(phi.u[0])
    m_hat = np.fft.fft2(phi.u[1])
    return np.fft.ifft2(s12 * m_hat), np.fft.ifft2(s21 * p_hat)


def assert_matches_reference(phi):
    plus, minus = two_fft_dirac(phi)
    out = apply_dirac(phi)
    assert np.array_equal(out.u[0], plus)
    assert np.array_equal(out.u[1], minus)


@PROPERTY
@given(fields())
def test_apply_dirac_matches_two_fft_reference_bitwise(phi):
    assert_matches_reference(phi)


@pytest.mark.parametrize("n", [96, 128])
def test_apply_dirac_matches_reference_bitwise_on_large_grids(n):
    # A stacked (2, N, N) spectrum reaches numpy's 256 KiB in-place threshold
    # at a smaller N than one component does.
    rng = np.random.default_rng(n)
    u = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    lat = Lattice((1.0, 0.0), (0.3, 1.4))
    assert_matches_reference(SpinorField(lat, SpinStructure(1, -1), u[0], u[1]))


@PROPERTY
@given(fields(), st.integers(0, 2**32 - 1))
def test_dirac_is_self_adjoint(phi, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(phi.u.shape) + 1j * rng.standard_normal(phi.u.shape)
    psi = phi.with_u(v)
    lhs = l2_inner(apply_dirac(phi), psi)
    rhs = l2_inner(phi, apply_dirac(psi))
    scale = l2_norm(apply_dirac(phi)) * l2_norm(psi) + l2_norm(phi) * l2_norm(apply_dirac(psi))
    assert abs(lhs - rhs) <= 1e-13 * scale


@PROPERTY
@given(fields())
def test_dirac_squared_is_laplacian_on_modes(phi):
    xi_x, xi_y = mode_vectors(phi.lat, phi.spin, phi.n_grid)
    eig = (2.0 * np.pi * np.hypot(xi_x, xi_y)) ** 2
    got = np.fft.fft2(apply_dirac(apply_dirac(phi)).u)
    want = eig * np.fft.fft2(phi.u)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@PROPERTY
@given(
    fields(),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(2.0, 4.0),
    st.floats(0.0, 1.0),
)
def test_solution_round_trip_is_byte_stable(phi, lam, p, residual):
    sol = Solution(phi=phi, lam=lam, p=p, residual=residual, norm_p=l2_norm(phi),
                   trace=[{"p": p, "lambda": lam}], meta={"source": "test"})
    text = json.dumps(sol.to_dict(), sort_keys=True)
    back = Solution.from_dict(json.loads(text))
    assert json.dumps(back.to_dict(), sort_keys=True) == text
    assert np.array_equal(back.phi.u, phi.u)


FQ_RTOL = 1e-10


@PROPERTY
@given(fields(), st.floats(1.4, 2.0), st.floats(0.0, 2.0 * math.pi),
       st.floats(1e-3, 1e3), st.sampled_from([1.0, -1.0]))
def test_fq_is_invariant_under_phase_and_scale(phi, q, theta, c, sign):
    base = functional_Fq(phi, q)
    assert functional_Fq(np.exp(1j * theta) * phi, q) == pytest.approx(base, rel=FQ_RTOL)
    assert functional_Fq((sign * c) * phi, q) == pytest.approx(base, rel=FQ_RTOL)


@PROPERTY
@given(fields(), st.floats(1.4, 2.0), st.complex_numbers(max_magnitude=10.0),
       st.complex_numbers(max_magnitude=10.0))
def test_fq_is_invariant_under_adding_a_kernel_spinor(phi, q, a, b):
    # On the trivial spin structure the kernel of D is the constant spinors.
    phi = SpinorField(phi.lat, SpinStructure.trivial(), phi.u[0], phi.u[1])
    n = phi.n_grid
    kernel = SpinorField(phi.lat, phi.spin, np.full((n, n), a), np.full((n, n), b))
    assert l2_norm(apply_dirac(kernel)) <= 1e-13 * l2_norm(kernel)
    assert functional_Fq(phi + kernel, q) == pytest.approx(functional_Fq(phi, q), rel=FQ_RTOL)


@st.composite
def reduced_lattices(draw):
    """Bases with gamma2 / gamma1 = x + i y, -1/2 <= x <= 0, |x + i y| >= 1, y <= 3,
    at a random scale and rotation.  Every flat torus is isometric to one of
    them, and the grid mesh's triangles (edges gamma1, gamma2, gamma1 + gamma2)
    are then non-obtuse.  On obtuse ones the cotangent mean curvature can miss
    the 1% gate: 2.8% for x = +1/2 on the hexagonal torus, trivial spin."""
    x = draw(st.floats(-0.5, 0.0))
    y = draw(st.floats(math.sqrt(1.0 - x * x), 3.0))
    r = draw(st.floats(0.5, 2.0))
    t = draw(st.floats(0.0, 2.0 * math.pi))
    c, s = r * math.cos(t), r * math.sin(t)
    return Lattice((c, s), (x * c - y * s, x * s + y * c))


@settings(deadline=None, max_examples=20)
@given(reduced_lattices(), st.sampled_from(SpinStructure.all_four()))
def test_verify_immersion_passes_on_constant_solutions(lat, spin):
    sol = constant_solution(lat, spin, 64)
    imm = integrate_immersion(build_alpha(sol.phi), H=sol.lam)
    report = verify_immersion(imm, sol.phi, H=sol.lam)
    assert report.passed, report.summary_lines()
    assert [item.name for item in report.items][-1] == "period additivity"


@settings(deadline=None, max_examples=20)
@given(reduced_lattices(), st.sampled_from(SpinStructure.all_four()))
def test_closed_form_spectrum_matches_dense_oracle(lat, spin):
    dense = np.array([pair.value for pair in dirac_spectrum_numeric(lat, spin, 12, 12)])
    # Compare whole levels only: a cut through a degenerate level would
    # depend on the round-off order of its dense eigenvalues.
    cut = np.max(np.abs(dense)) * (1.0 - 1e-9)
    levels = closed_form_spectrum(lat, spin, 12)
    want = sorted(v for v, mult in levels for _ in range(mult) if abs(v) < cut)
    got = np.sort(dense[np.abs(dense) < cut])
    assert len(got) == len(want)
    assert np.max(np.abs(got - np.array(want)), initial=0.0) <= 1e-10 * cut


@st.composite
def unimodular(draw):
    """Integer (a, b, c, d) with a d - b c = 1 and entries in [-10, 10]."""
    a, c = draw(st.tuples(st.integers(-10, 10), st.integers(-10, 10)).filter(
        lambda pair: math.gcd(*pair) == 1))
    rows = [(b, d) for b in range(-10, 11) for d in range(-10, 11) if a * d - b * c == 1]
    b, d = draw(st.sampled_from(rows))
    return a, b, c, d


@settings(deadline=None, max_examples=200)
@given(reduced_lattices(), st.sampled_from(SpinStructure.all_four()), unimodular())
def test_shortest_modes_do_not_depend_on_the_basis(lat, spin, matrix):
    """The basis a gamma1 + b gamma2, c gamma1 + d gamma2 spans the same torus and
    carries the spin signs eps1^a eps2^b, eps1^c eps2^d: its spectrum and lambda_1^+
    are those of the reduced basis, and its first mode is the least (|xi|, m, k) of a
    brute-force box, though its mode indices run far out."""
    (a, b, c, d), (g1, g2) = matrix, lat.generator_matrix()
    image = Lattice(tuple(map(float, a * g1 + b * g2)), tuple(map(float, c * g1 + d * g2)))
    e1, e2 = spin.eps1, spin.eps2
    image_spin = SpinStructure(e1 ** (a % 2) * e2 ** (b % 2), e1 ** (c % 2) * e2 ** (d % 2))
    got, want = closed_form_spectrum(image, image_spin, 12), closed_form_spectrum(lat, spin, 12)
    assert [mult for _, mult in got] == [mult for _, mult in want]
    for (v, _), (w, _) in zip(got, want):
        assert v == pytest.approx(w, rel=1e-12, abs=0.0)
    lam1 = first_positive_eigenvalue(image, image_spin)
    assert lam1 == pytest.approx(first_positive_eigenvalue(lat, spin), rel=1e-12)
    # Brute force over a square box holding every mode with 2 pi |xi| <= 1.25 lambda_1^+.
    reach = 1.25 * lam1 / (2 * math.pi) * max(math.hypot(*g) for g in (image.gamma1, image.gamma2))
    half = math.ceil(reach) + 1
    mm, kk = np.meshgrid(np.arange(-half, half + 1), np.arange(-half, half + 1), indexing="ij")
    radii = np.hypot(*np.moveaxis(dual_modes(image, image_spin, mm, kk), -1, 0))
    r_min = radii[radii > 0.0].min()
    ties = radii == r_min
    assert first_eigenmode(image, image_spin) == min(zip(mm[ties].tolist(), kk[ties].tolist()))
