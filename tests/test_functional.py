import collections
import math

import numpy as np
import pytest

from spintorus import functional
from spintorus.dirac import apply_dirac
from spintorus.fields import (
    SpinorField,
    first_positive_eigenspinor,
    l2_inner,
    l2_norm,
    lp_norm,
    random_band_limited,
)
from spintorus.functional import (
    DegenerateFieldError,
    IterationLimitError,
    MaximizeOptions,
    functional_Fq,
    grad_Fq,
    maximize_Fq,
    mu_curve,
    normalize_euler_lagrange,
)
from spintorus.lattice import SpinStructure, first_positive_eigenvalue, make_lattice

SQ = make_lattice((1, 0), (0, 1))
NT = SpinStructure(1, -1)
TRIV = SpinStructure.trivial()


def test_f2_at_eigenspinor_is_inverse_eigenvalue():
    phi = first_positive_eigenspinor(SQ, NT, 16)
    assert functional_Fq(phi, 2.0) == pytest.approx(1.0 / math.pi, rel=1e-13)


@pytest.mark.parametrize("q", [4.0 / 3.0, 1.6, 2.0])
def test_constant_length_eigenspinor_any_q(q):
    # oracle: F_q = area^(1 - 2/q) / lambda for a constant-length eigenspinor;
    # at the conformal exponent q = 4/3 this is 1/(lambda sqrt(area))
    lat = make_lattice((1, 0), (0, 2.0))
    lam1 = first_positive_eigenvalue(lat, NT)
    phi = first_positive_eigenspinor(lat, NT, 16)
    expected = lat.area ** (1.0 - 2.0 / q) / lam1
    assert functional_Fq(phi, q) == pytest.approx(expected, rel=1e-12)
    if q == 4.0 / 3.0:
        assert expected == pytest.approx(1.0 / (lam1 * math.sqrt(lat.area)), rel=1e-14)


def test_homogeneity(rng):
    phi = random_band_limited(SQ, NT, 12, rng)
    base = functional_Fq(phi, 1.6)
    for t in (2.7, -0.3, 1e3, np.exp(0.4j)):
        assert functional_Fq(t * phi, 1.6) == pytest.approx(base, rel=1e-11)


def test_kernel_invariance(rng):
    phi = random_band_limited(SQ, TRIV, 12, rng)
    n = phi.n_grid
    const = SpinorField(
        SQ, TRIV, 0.4 * np.ones((n, n), complex), -0.2j * np.ones((n, n), complex)
    )
    assert functional_Fq(phi + const, 1.5) == pytest.approx(
        functional_Fq(phi, 1.5), rel=1e-11
    )


def test_numerator_is_real(rng):
    phi = random_band_limited(SQ, NT, 12, rng)
    num = l2_inner(apply_dirac(phi), phi)
    assert abs(num.imag) < 1e-12 * abs(num)


def test_degenerate_input_raises():
    n = 8
    const = np.full((n, n), 1.0, dtype=complex)
    kernel_elem = SpinorField(SQ, TRIV, const, const)
    with pytest.raises(DegenerateFieldError):
        functional_Fq(kernel_elem, 1.5)


def test_gradient_vanishes_at_eigenspinor():
    phi = first_positive_eigenspinor(SQ, NT, 12)
    assert l2_norm(grad_Fq(phi, 2.0)) < 1e-12


def test_gradient_annihilates_kernel_directions(rng):
    phi = random_band_limited(SQ, TRIV, 12, rng)
    n = phi.n_grid
    psi = SpinorField(SQ, TRIV, np.ones((n, n), complex), 2j * np.ones((n, n), complex))
    g = grad_Fq(phi, 1.6)
    assert abs(l2_inner(g, psi).real) < 1e-12


@pytest.mark.parametrize("q", [1.5, 1.8])
def test_gradient_matches_finite_differences(q, rng):
    phi = random_band_limited(SQ, NT, 12, rng)
    g = grad_Fq(phi, q)
    for _ in range(3):
        psi = random_band_limited(SQ, NT, 12, rng)
        analytic = l2_inner(g, psi).real
        best = math.inf
        for h in (1e-4, 1e-5, 1e-6):
            fd = (functional_Fq(phi + h * psi, q) - functional_Fq(phi - h * psi, q)) / (
                2 * h
            )
            best = min(best, abs(fd - analytic) / max(abs(analytic), 1e-300))
        assert best < 1e-6


def test_maximize_q2_unit_square(rng):
    init = first_positive_eigenspinor(SQ, NT, 12)
    init = init + 0.05 * random_band_limited(SQ, NT, 12, rng)
    result = maximize_Fq(SQ, NT, 2.0, init)
    assert result.mu == pytest.approx(1.0 / math.pi, abs=1e-8)
    # accepted steps are monotone
    assert all(b >= a - 1e-15 for a, b in zip(result.history, result.history[1:]))


def test_maximize_fixed_point_returns_immediately():
    init = first_positive_eigenspinor(SQ, NT, 12)
    result = maximize_Fq(SQ, NT, 2.0, init)
    assert result.iterations <= 1
    assert result.mu == pytest.approx(1.0 / math.pi, rel=1e-12)


@pytest.mark.parametrize(
    "lat, spin", [(make_lattice((1, 0), (0, 2)), NT), (SQ, SpinStructure(-1, 1))]
)
def test_maximize_rejects_init_on_another_torus(lat, spin):
    init = first_positive_eigenspinor(SQ, NT, 12)
    with pytest.raises(ValueError, match="another torus"):
        maximize_Fq(lat, spin, 2.0, init)


def test_mu_monotone_two_exponents(rng):
    init = first_positive_eigenspinor(SQ, NT, 12)
    init = init + 0.03 * random_band_limited(SQ, NT, 12, rng)
    hi = maximize_Fq(SQ, NT, 1.8, init)
    lo = maximize_Fq(SQ, NT, 1.5, hi.phi)
    assert lo.mu >= hi.mu - 2e-7


def test_normalize_euler_lagrange_eigenspinor():
    phi = first_positive_eigenspinor(SQ, NT, 16)
    mu2 = functional_Fq(phi, 2.0)
    sol = normalize_euler_lagrange(phi, 2.0, mu2)
    assert sol.residual < 1e-10
    assert sol.norm_p == pytest.approx(1.0, abs=1e-12)
    assert sol.lam == pytest.approx(math.pi, rel=1e-12)
    assert lp_norm(sol.phi, 2.0) == pytest.approx(1.0, abs=1e-10)


def test_normalize_euler_lagrange_from_maximizer(rng):
    init = first_positive_eigenspinor(SQ, NT, 16)
    init = init + 0.05 * random_band_limited(SQ, NT, 16, rng)
    opts = MaximizeOptions(tol_grad=1e-9 * 16)
    result = maximize_Fq(SQ, NT, 1.6, init, opts)
    sol = normalize_euler_lagrange(result.phi, 1.6, result.mu)
    assert sol.residual < 1e-6
    assert sol.norm_p == pytest.approx(1.0, abs=1e-10)


def test_conformal_invariance_under_homothety(rng):
    # q = 4/3 endpoint: joint rescaling g -> c^2 g, phi -> c^{-1/2} phi is exact
    q = 4.0 / 3.0
    phi = random_band_limited(SQ, NT, 12, rng)
    c = 1.7
    scaled_lat = SQ.scaled(c)
    scaled = SpinorField(scaled_lat, NT, phi.u[0] / math.sqrt(c), phi.u[1] / math.sqrt(c))
    assert functional_Fq(scaled, q) == pytest.approx(functional_Fq(phi, q), rel=1e-12)
    # away from the conformal exponent the value does change
    assert functional_Fq(scaled, 2.0) != pytest.approx(functional_Fq(phi, 2.0), rel=1e-3)


def test_mu_curve_single_entry():
    pts = mu_curve(SQ, NT, [2.0], n_grid=8, seed=1)
    assert len(pts) == 1 and pts[0].q == 2.0


def test_mu_curve_duality_extrapolation():
    # 1/mu_q near q_D agrees with the critical lambda (= pi here)
    pts = mu_curve(SQ, NT, [1.35], n_grid=12, seed=2)
    assert 1.0 / pts[0].mu == pytest.approx(math.pi, rel=1e-4)


def test_iteration_limit_carries_best_iterate(rng):
    from spintorus.functional import IterationLimitError

    init = random_band_limited(SQ, NT, 12, rng)
    with pytest.raises(IterationLimitError) as err:
        maximize_Fq(SQ, NT, 2.0, init, MaximizeOptions(max_iter=1, tol_grad=1e-30))
    best = err.value.best
    assert best.phi is not None
    assert best.mu <= 1.0 / math.pi + 1e-9


def test_early_stop_reports_the_steps_taken():
    # From the eigenspinor no trial increases F after a few steps, so the loop
    # stops long before max_iter; iterations counts the accepted steps.
    init = first_positive_eigenspinor(SQ, NT, 16)
    opts = MaximizeOptions(tol_grad=1e-30)
    with pytest.raises(IterationLimitError) as err:
        maximize_Fq(SQ, NT, 1.6, init, opts)
    best = err.value.best
    assert best.iterations == len(best.history) - 1 < opts.max_iter


def test_conjugate_exponent_relation():
    for q in (4.0 / 3.0, 1.6, 2.0):
        assert 1.0 / functional.conjugate_exponent(q) + 1.0 / q == pytest.approx(1.0, abs=1e-15)


ASCENT_TORUS = make_lattice((1, 0), (0.3, 1.1)).unit_area()
SPIN_IDS = [f"{s.eps1:+d}{s.eps2:+d}" for s in SpinStructure.all_four()]


def _ascent_init(spin):
    init = first_positive_eigenspinor(ASCENT_TORUS, spin, 12)
    return init + 0.3 * random_band_limited(ASCENT_TORUS, spin, 12, np.random.default_rng(7))


@pytest.mark.parametrize("spin", SpinStructure.all_four(), ids=SPIN_IDS)
def test_ascent_line_search_takes_no_transform(spin, monkeypatch):
    # Trials are evaluated by the linearity of D: an iteration costs one fft2
    # and one ifft2 however many Armijo trials it makes, plus a fixed number
    # at the start and for the recomputed verdict at the end.
    init = _ascent_init(spin)
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("fft2", "ifft2"):
        monkeypatch.setattr(np.fft, name, counted("transforms", getattr(np.fft, name)))
    monkeypatch.setattr(
        functional, "_checked_numerator", counted("evaluations", functional._checked_numerator)
    )
    result = maximize_Fq(ASCENT_TORUS, spin, 1.6, init)
    assert result.converged
    # One evaluation at the start and one fresh at the end; the rest are trials.
    assert counts["evaluations"] - 2 > result.iterations
    assert counts["transforms"] <= 4 * result.iterations + 8


@pytest.mark.parametrize("spin", SpinStructure.all_four(), ids=SPIN_IDS)
def test_ascent_verdicts_are_recomputed(spin):
    # mu and |grad| come from a fresh D phi, not from the carried one.
    init = _ascent_init(spin)
    result = maximize_Fq(ASCENT_TORUS, spin, 1.6, init)
    assert result.converged
    assert result.mu == functional_Fq(result.phi, 1.6)
    assert result.grad_norm == l2_norm(grad_Fq(result.phi, 1.6))
    with pytest.raises(IterationLimitError) as err:
        maximize_Fq(ASCENT_TORUS, spin, 1.6, init, MaximizeOptions(max_iter=3, tol_grad=1e-30))
    best = err.value.best
    assert best.mu == functional_Fq(best.phi, 1.6)
    assert best.grad_norm == l2_norm(grad_Fq(best.phi, 1.6))


@pytest.mark.parametrize("spin", SpinStructure.all_four(), ids=SPIN_IDS)
def test_ascent_iteration_takes_one_fft2_and_one_ifft2(spin, monkeypatch):
    # An iteration transforms once each way (the gradient spectrum and D d),
    # plus a fixed number at the start and for the recomputed verdict at the end.
    init = _ascent_init(spin)
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("fft2", "ifft2"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    result = maximize_Fq(ASCENT_TORUS, spin, 1.6, init)
    assert result.converged
    assert counts["fft2"] <= result.iterations + 4
    assert counts["ifft2"] <= result.iterations + 4


@pytest.mark.parametrize("spin", SpinStructure.all_four()[1:], ids=SPIN_IDS[1:])
def test_ascent_resolves_gains_below_an_ulp_of_F(spin):
    # Near |grad| = 1e-10 an accepted step gains far less than an ulp of F,
    # so only an Armijo test free of cancellation against F sees it.
    opts = MaximizeOptions(tol_grad=1e-11 * 12, max_iter=2000)
    assert maximize_Fq(ASCENT_TORUS, spin, 1.6, _ascent_init(spin), opts).converged


def test_mu_curve_converges_on_a_long_torus():
    # The q = 1.5 row warm-starts from q = 1.6 next to a maximizer whose
    # gains fall below an ulp of F before |grad| reaches its tolerance.
    lat = make_lattice((1, 0), (0, 3))
    pts = mu_curve(lat, SpinStructure(-1, 1), [1.5, 1.6, 1.8, 2.0], n_grid=32, seed=0)
    assert pts[0].q == 1.5 and pts[0].converged
    assert pts[0].mu == pytest.approx(0.222691554376, abs=1e-10)


def test_mu_curve_leaves_the_constant_saddle():
    # Below q* = 20/11 the constant branch of this torus is a saddle of F_q; every
    # warm start is perturbed, so the ascent leaves it for the larger maximizer.
    lat = make_lattice((1, 0), (0, 3))
    pts = mu_curve(lat, SpinStructure(-1, 1), [1.6, 1.8, 2.0], n_grid=32, seed=0)
    assert [pt.q for pt in pts] == [1.6, 1.8, 2.0] and all(pt.converged for pt in pts)
    assert pts[0].mu == pytest.approx(0.203181471438, abs=1e-10)
    assert pts[1].mu == pytest.approx(0.184041806396, abs=1e-10)


HEADLINE_TORUS = make_lattice((1, 0), (0, 3)).unit_area()


@pytest.mark.parametrize(
    "lat, spin, n, q, seed, mu",
    [
        # mu: where preconditioned steepest ascent converges, in 249, 512 and 260 iterations.
        (HEADLINE_TORUS, SpinStructure(-1, 1), 32, 1.6, 5, 0.20318147143846468),
        (HEADLINE_TORUS, SpinStructure(-1, 1), 32, 1.8, 5, 0.18404180639632342),
        (ASCENT_TORUS, SpinStructure(-1, -1), 12, 1.6, None, 0.25604836630256994),
    ],
    ids=["headline-1.6", "headline-1.8", "ascent-torus"],
)
def test_conjugate_ascent_converges_in_few_iterations(lat, spin, n, q, seed, mu):
    # seed: of the 0.1 perturbation of the eigenspinor; None takes _ascent_init.
    if seed is None:
        phi = _ascent_init(spin)
    else:
        phi = first_positive_eigenspinor(lat, spin, n)
        phi = phi + 0.1 * random_band_limited(lat, spin, n, np.random.default_rng(seed))
    result = maximize_Fq(lat, spin, q, phi)
    assert result.converged and result.iterations <= 100
    assert result.mu == pytest.approx(mu, rel=1e-12)


def test_trivial_spin_ascent_converges_on_a_skew_torus():
    # Preconditioned steepest ascent ends here at |grad| 1.3e-6 after 3000
    # iterations, gaining about 6e-14 per step.
    lat = make_lattice((1.26849, 0), (-0.29866, 0.78834))
    init = first_positive_eigenspinor(lat, TRIV, 24)
    init = init + 0.1 * random_band_limited(lat, TRIV, 24, np.random.default_rng(0))
    result = maximize_Fq(lat, TRIV, 1.5, init, MaximizeOptions(max_iter=3000))
    assert result.converged and result.iterations <= 200
