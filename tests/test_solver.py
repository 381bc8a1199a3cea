import json
import math
import subprocess
import sys

import numpy as np
import pytest

from spintorus.dirac import apply_dirac, dirac_symbol, symbol_modulus
from spintorus.fields import (
    SpinorField,
    first_positive_eigenspinor,
    l2_norm,
    lp_norm,
    pointwise_norm,
    pointwise_power,
    random_band_limited,
    squared_twist_grid,
)
from spintorus.lattice import SPHERE_CONSTANT_2D, SpinStructure, make_lattice
from spintorus.solver import (
    BLOCK_RADIUS,
    ContinuationError,
    ContinuationSchedule,
    Solution,
    constant_solution,
    lambda_consistency,
    residual_field,
    solve_at_exponent,
    solve_critical,
)

SQ = make_lattice((1, 0), (0, 1))
NT = SpinStructure(1, -1)


def test_residual_field_constant_eigenspinor():
    for p in (2.0, 3.0, 4.0):
        sol = constant_solution(SQ, NT, 16)
        c = pointwise_norm(sol.phi.u)[0, 0]
        lam = math.pi / c ** (p - 2.0)
        assert l2_norm(residual_field(sol.phi, lam, p)) < 1e-12


def test_residual_field_zero_field():
    phi = SpinorField.from_array(SQ, NT, np.zeros((2, 8, 8), complex))
    assert l2_norm(residual_field(phi, 2.0, 3.0)) == 0.0


def test_residual_field_matches_independent_recomputation(rng):
    phi = random_band_limited(SQ, NT, 8, rng)
    lam, p = 1.3, 3.2
    got = residual_field(phi, lam, p)
    dphi = apply_dirac(phi)
    w = pointwise_power(pointwise_norm(phi.u), p - 2.0)
    assert np.allclose(got.u[0], dphi.u[0] - lam * w * phi.u[0], atol=1e-14)
    assert np.allclose(got.u[1], dphi.u[1] - lam * w * phi.u[1], atol=1e-14)


def test_residual_field_rejects_bad_exponent(rng):
    with pytest.raises(ValueError):
        residual_field(random_band_limited(SQ, NT, 8, rng), 1.0, 5.0)


def test_solve_p2_recovers_linear_eigenproblem(rng):
    init = first_positive_eigenspinor(SQ, NT, 16)
    init = init + 0.05 * random_band_limited(SQ, NT, 16, rng)
    sol = solve_at_exponent(2.0, init)
    assert sol.lam == pytest.approx(math.pi, rel=1e-10)
    assert sol.residual < 1e-10
    assert sol.norm_p == pytest.approx(1.0, abs=1e-10)


def test_solve_p4_constant_branch():
    sol = solve_at_exponent(4.0, constant_solution(SQ, NT, 16).phi)
    assert sol.lam == pytest.approx(math.pi, rel=1e-12)
    assert sol.min_abs() / sol.max_abs() > 1.0 - 1e-12
    assert sol.residual < 1e-12


def test_solve_p4_tall_rectangle_unscaled():
    # lambda_1 = pi/4, |phi|^2 = 1/2, lambda = lambda_1 sqrt(area) = pi/2
    lat = make_lattice((1, 0), (0, 4))
    sol = solve_at_exponent(4.0, constant_solution(lat, NT, 16).phi)
    assert sol.lam == pytest.approx(math.pi / 2.0, rel=1e-11)
    assert pointwise_norm(sol.phi.u)[0, 0] ** 2 == pytest.approx(0.5, rel=1e-11)


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_rescaled_solution_solves_at_a_prescribed_lambda(rng, p):
    # c phi, c = (lam / lam0)^(1/(p-2)), solves D psi = lam0 |psi|^{p-2} psi;
    # lam0 = 2 makes c != 1 (lam = pi here).
    init = first_positive_eigenspinor(SQ, NT, 16)
    init = init + 0.02 * random_band_limited(SQ, NT, 16, rng)
    init = (1.0 / lp_norm(init, 4.0)) * init
    sol = solve_at_exponent(p, init)
    lam0 = 2.0
    c = (sol.lam / lam0) ** (1.0 / (p - 2.0))
    assert abs(c - 1.0) > 0.2
    assert l2_norm(residual_field(c * sol.phi, lam0, p)) < 1.6e-8


def test_solve_critical_unit_square(rng):
    sol = solve_critical(SQ, NT, n_grid=16, seed=4, perturbation=0.05)
    assert sol.lam == pytest.approx(math.pi, abs=1e-6)
    assert sol.residual < 1e-8
    assert [step["p"] for step in sol.trace] == [2.0, 2.5, 3.0, 3.5, 3.8, 3.95, 4.0]


def test_solve_critical_rectangle_y2():
    lat = make_lattice((1, 0), (0, 2))
    sol = solve_critical(lat, NT, n_grid=16, seed=4, perturbation=0.05)
    assert sol.lam * math.sqrt(sol.phi.lat.area) == pytest.approx(
        math.pi / math.sqrt(2.0), abs=1e-5
    )


def test_solve_critical_trivial_spin_tall_torus():
    lat = make_lattice((1, 0), (0, 8))
    sol = solve_critical(lat, SpinStructure.trivial(), n_grid=16, seed=4, perturbation=0.05)
    expected = 2 * math.pi / math.sqrt(8.0)
    assert sol.lam == pytest.approx(expected, abs=1e-6)
    assert sol.lam * math.sqrt(sol.phi.lat.area) < SPHERE_CONSTANT_2D


def test_lambda_consistency(rng):
    sol = solve_critical(SQ, NT, n_grid=16, seed=2, perturbation=0.03)
    assert lambda_consistency(sol) == pytest.approx(sol.lam, abs=2e-8)


def test_gauge_covariance(rng):
    init = first_positive_eigenspinor(SQ, NT, 16)
    init = init + 0.05 * random_band_limited(SQ, NT, 16, rng)
    a = solve_critical(SQ, NT, init=init, n_grid=16)
    b = solve_critical(SQ, NT, init=np.exp(0.9j) * init, n_grid=16)
    assert a.lam == pytest.approx(b.lam, abs=1e-12)
    assert np.allclose(pointwise_norm(a.phi.u), pointwise_norm(b.phi.u), atol=1e-10)


def test_grid_convergence_constant_branch():
    lams = [
        solve_critical(SQ, NT, n_grid=n, seed=1).lam for n in (16, 32, 64)
    ]
    assert max(lams) - min(lams) < 1e-8


def test_schedule_validation():
    with pytest.raises(ValueError):
        ContinuationSchedule(p_values=(2.0, 3.0))
    with pytest.raises(ValueError):
        ContinuationSchedule(p_values=(2.0, 3.0, 3.0, 4.0))
    with pytest.raises(ValueError):
        ContinuationSchedule(p_values=(2.5, 3.0, 4.0))


def test_zero_init_rejected():
    with pytest.raises(ValueError):
        solve_at_exponent(4.0, SpinorField.from_array(SQ, NT, np.zeros((2, 8, 8), complex)))


def test_continuation_failure_carries_trace(rng):
    schedule = ContinuationSchedule(max_newton=1)
    init = first_positive_eigenspinor(SQ, NT, 16)
    init = init + 0.5 * random_band_limited(SQ, NT, 16, rng)
    with pytest.raises(ContinuationError) as err:
        solve_critical(SQ, NT, schedule=schedule, init=init, n_grid=16)
    assert hasattr(err.value, "trace")


def test_solution_serialization_roundtrip():
    sol = solve_critical(SQ, NT, n_grid=16, seed=7, perturbation=0.02)
    data = json.loads(json.dumps(sol.to_dict()))
    back = Solution.from_dict(data)
    assert back.lam == sol.lam
    assert back.p == sol.p
    assert back.trace == sol.trace
    assert np.array_equal(back.phi.u[0], sol.phi.u[0])


def test_init_lattice_mismatch_rejected():
    lat = make_lattice((1, 0), (0, 2))
    init = first_positive_eigenspinor(lat, NT, 16)  # not unit area
    with pytest.raises(ValueError):
        solve_critical(lat, NT, init=init, n_grid=16)


def _indefinite_system(n, seed):
    """Seeded symmetric indefinite A, right-hand side b, SPD diagonal d."""
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    eig = gen.uniform(0.5, 5.0, n) * gen.choice([-1.0, 1.0], n)
    a = (q * eig) @ q.T
    return (a + a.T) / 2.0, gen.standard_normal(n), gen.uniform(0.5, 2.0, n)


def _scipy_minres(a, b, rtol, diag, maxiter):
    """SciPy's MINRES with its iteration count, counted by the callback."""
    import scipy.sparse.linalg as spla

    op, prec = (
        spla.LinearOperator(a.shape, matvec=f, dtype=float)
        for f in (lambda v: a @ v, lambda v: diag * v)
    )
    calls = []
    kwargs = {"maxiter": maxiter, "M": prec, "callback": calls.append}
    try:
        x, _ = spla.minres(op, b, rtol=rtol, **kwargs)
    except TypeError:  # scipy < 1.12 spells the tolerance 'tol'
        x, _ = spla.minres(op, b, tol=rtol, **kwargs)
    return x, len(calls)


@pytest.mark.parametrize("n, seed, rtol", [(50, 1, 1e-10), (137, 2, 1e-4), (400, 3, 1e-8)])
def test_minres_is_bit_identical_to_scipy(n, seed, rtol):
    from spintorus.solver import MINRES_MAXITER, _minres

    a, b, diag = _indefinite_system(n, seed)
    x, istop, itn = _minres(lambda v: a @ v, b, rtol, lambda v: diag * v)
    ref, ref_itn = _scipy_minres(a, b, rtol, diag, MINRES_MAXITER)
    assert istop == 1
    assert itn == ref_itn > 1
    assert np.array_equal(x, ref)


def test_minres_zero_right_hand_side_returns_zero():
    from spintorus.solver import MINRES_MAXITER, _minres

    a, _, diag = _indefinite_system(60, 4)
    b = np.zeros(60)
    x, istop, itn = _minres(lambda v: a @ v, b, 1e-8, lambda v: diag * v)
    ref, ref_itn = _scipy_minres(a, b, 1e-8, diag, MINRES_MAXITER)
    assert (istop, itn) == (0, ref_itn) == (0, 0)
    assert np.array_equal(x, ref) and not x.any()


def test_minres_iteration_limit_matches_scipy(monkeypatch):
    from spintorus import solver

    monkeypatch.setattr(solver, "MINRES_MAXITER", 7)
    a, b, diag = _indefinite_system(200, 5)
    x, istop, itn = solver._minres(lambda v: a @ v, b, 1e-12, lambda v: diag * v)
    ref, ref_itn = _scipy_minres(a, b, 1e-12, diag, 7)
    assert (istop, itn) == (6, 7) and ref_itn == 7
    assert np.array_equal(x, ref)


def test_minres_rejects_an_indefinite_preconditioner():
    from spintorus.solver import MINRES_MAXITER, _minres

    a, b, diag = _indefinite_system(80, 6)
    diag = -diag
    with pytest.raises(ValueError, match="indefinite preconditioner"):
        _minres(lambda v: a @ v, b, 1e-8, lambda v: diag * v)
    with pytest.raises(ValueError, match="indefinite preconditioner"):
        _scipy_minres(a, b, 1e-8, diag, MINRES_MAXITER)


def test_newton_failure_names_the_last_minres_outcome(rng, monkeypatch):
    from spintorus import solver

    monkeypatch.setattr(solver, "MINRES_MAXITER", 2)
    init = first_positive_eigenspinor(SQ, NT, 16)
    init = init + 0.3 * random_band_limited(SQ, NT, 16, rng)
    with pytest.raises(ContinuationError) as err:
        solve_at_exponent(4.0, init, schedule=ContinuationSchedule(max_newton=2))
    assert str(err.value).endswith(
        "; last MINRES solve: exit 6 (iteration limit) after 2 iterations"
    )


NO_SCIPY_SOLVE_SCRIPT = """
import sys

import numpy as np

import spintorus
from spintorus.fields import first_positive_eigenspinor, random_band_limited
from spintorus.lattice import SpinStructure, make_lattice
from spintorus.solver import solve_at_exponent

lat = make_lattice((1, 0), (0, 1))
spin = SpinStructure(1, -1)
init = first_positive_eigenspinor(lat, spin, 16)
init = init + 0.1 * random_band_limited(lat, spin, 16, np.random.default_rng(1))
sol = solve_at_exponent(4.0, init)
assert sol.meta["newton_iters"] >= 1, sol.meta
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded[:5]
"""


def test_newton_solve_does_not_import_scipy():
    # The pytest process has scipy loaded already; only a fresh interpreter can tell.
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SOLVE_SCRIPT], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_newton_accepts_a_converged_init_with_no_steps_allowed():
    spin = SpinStructure(1, -1)
    init = constant_solution(SQ, spin, 16).phi
    sol = solve_at_exponent(4.0, init, schedule=ContinuationSchedule(max_newton=0))
    assert sol.meta["newton_iters"] == 0


def test_newton_accepts_the_state_reached_on_its_last_allowed_step():
    # Newton converges only linearly on the square (its first eigenspace is
    # two-dimensional), so round-off decides the step count k of this solve:
    # k is read from an uncapped solve, about as many steps as the default cap.
    spin = SpinStructure(1, -1)
    init = first_positive_eigenspinor(SQ, spin, 16)
    init = init + 0.02 * random_band_limited(SQ, spin, 16, np.random.default_rng(20240815))
    assert ContinuationSchedule().max_newton == 40
    k = solve_at_exponent(
        4.0, init, schedule=ContinuationSchedule(max_newton=1000)
    ).meta["newton_iters"]
    sol = solve_at_exponent(4.0, init, schedule=ContinuationSchedule(max_newton=k))
    assert sol.meta["newton_iters"] == k
    with pytest.raises(ContinuationError, match=f"after {k - 1} iterations"):
        solve_at_exponent(4.0, init, schedule=ContinuationSchedule(max_newton=k - 1))


class _NewtonSystem(Exception):
    """Raised in place of the first MINRES solve, carrying its operator."""


def _first_newton_system(monkeypatch, p, init, **kwargs):
    """(matvec, rhs, precond) of the first Newton step's MINRES solve."""
    from spintorus import solver

    def capture(matvec, b, rtol, precond):
        raise _NewtonSystem(matvec, b, precond)

    monkeypatch.setattr(solver, "_minres", capture)
    with pytest.raises(_NewtonSystem) as got:
        solve_at_exponent(p, init, **kwargs)
    return got.value.args


def _unitary_spectrum(u):
    return (np.fft.fft2(u) / u.shape[-1]).view(float).ravel()


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_fourier_newton_operator_is_the_symmetric_bordered_jacobian(monkeypatch, p):
    n = 8
    lat, spin = make_lattice((1, 0), (0.35, 1.3)), SpinStructure(1, -1)
    init = first_positive_eigenspinor(lat, spin, n)
    init = init + 0.2 * random_band_limited(lat, spin, n, np.random.default_rng(11))
    phi = (1.0 / lp_norm(init, p)) * init
    lam = lambda_consistency(Solution.of(phi, 1.0, p))
    matvec, rhs, precond = _first_newton_system(monkeypatch, p, init)
    m = 4 * n * n
    dim = rhs.size
    assert dim == m + 2
    eye = np.eye(dim)
    a = np.stack([matvec(col) for col in eye], axis=1)
    assert np.abs(a - a.T).max() <= 1e-12 * np.abs(a).max()

    # Central differences of the residual's spectrum and of the norm gap, in
    # the unitary spectrum z of phi and in lambda.
    z, h = _unitary_spectrum(phi.u), 1e-6

    def field(z):
        return phi.with_u(np.fft.ifft2(z.view(complex).reshape(2, n, n)) * n)

    def residual(z, lm=lam):
        return _unitary_spectrum(residual_field(field(z), lm, p).u)

    def derivative(f, x, e):
        return (f(x + h * e) - f(x - h * e)) / (2 * h)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-7 * np.abs(want).max()

    assert close(a[:m, :m], np.stack([derivative(residual, z, e) for e in eye[:m, :m]], axis=1))
    assert np.allclose(rhs[:m], -residual(z), rtol=0, atol=1e-13)
    assert close(a[:m, m], derivative(lambda lm: residual(z, lm), lam, 1.0))
    # The norm row is the gap's derivative times -||phi||_p^(p-1) / kappa
    # (||phi||_p = 1 here), which matches it to the lambda column.
    gap = np.array([derivative(lambda x: lp_norm(field(x), p), z, e) for e in eye[:m, :m]])
    assert close(a[m, :m], -gap * n**2 / lat.area)
    # The phase border: the column of i phi, the same row, no diagonal entry.
    assert np.allclose(a[:m, -1], _unitary_spectrum(1j * phi.u), rtol=0, atol=1e-13)
    assert np.all(a[m:, m:] == 0.0)

    # The preconditioner: symmetric positive definite, and the diagonal
    # 1/(2 pi |xi| + shift) on every row outside the block window around the
    # dominant mode k0 and on the border rows.
    prec = np.stack([precond(col) for col in eye], axis=1)
    assert np.abs(prec - prec.T).max() <= 1e-12 * np.abs(prec).max()
    assert (np.linalg.eigvalsh(prec) > 0).all()
    shift = 1.0 + abs(lam) * pointwise_power(pointwise_norm(phi.u), p - 2.0).max()
    diag = 1.0 / np.append(_real_rows(symbol_modulus(lat, spin, n)) + shift, np.ones(dim - m))
    window = _real_rows(_window(phi.u, min(BLOCK_RADIUS, n // 2 - 1)))
    outside = np.append(~window, np.ones(dim - m, bool))
    assert 0 < outside[:m].sum() < m
    assert np.abs(prec[outside] - np.diag(diag)[outside]).max() <= 1e-12 * diag.max()


def _real_rows(grid):
    """An (N, N) per-mode array repeated over the (component, Re/Im) rows of a MINRES vector."""
    return np.broadcast_to(grid[:, :, None], (2, *grid.shape, 2)).ravel()


def _window(u, radius):
    """Mask of the modes k0 + eta, |eta|_inf <= radius, k0 the dominant mode of u."""
    n = u.shape[-1]
    power = (np.abs(np.fft.fft2(u)) ** 2).sum(axis=0)
    k0 = np.unravel_index(np.argmax(power), power.shape)
    dist = [np.abs((np.arange(n) - k + n // 2) % n - n // 2) for k in k0]
    return np.maximum.outer(*dist) <= radius


def _constant_branch_system(monkeypatch, lat, spin, n):
    """The constant solution and its Newton system (tol_solve 0 forces one step)."""
    sol = constant_solution(lat, spin, n)
    schedule = ContinuationSchedule(tol_solve=0.0)
    return sol, _first_newton_system(monkeypatch, 4.0, sol, schedule=schedule)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("spin", SpinStructure.all_four(), ids=str)
def test_constant_branch_blocks_are_the_exact_jacobian(monkeypatch, spin, n):
    from spintorus.solver import constant_branch_blocks

    lat = make_lattice((1, 0), (0.35, 1.3)).unit_area()
    sol, (matvec, rhs, _) = _constant_branch_system(monkeypatch, lat, spin, n)
    eye = np.eye(rhs.size)
    a = np.stack([matvec(col) for col in eye], axis=1)
    w2 = pointwise_power(pointwise_norm(sol.phi.u), 2.0)
    plus, minus, blocks = constant_branch_blocks(
        sol.phi.u, sol.lam, 4.0, w2, dirac_symbol(lat, spin, n), n // 2 - 1
    )
    assert blocks.shape == ((n - 1) ** 2, 4, 4)
    scale = np.abs(blocks).max()
    assert np.abs(blocks - np.conj(blocks.transpose(0, 2, 1))).max() <= 1e-15 * scale

    def probe(k, q):
        """psi_hat(q) -> (J psi)_hat(k) as z -> lin z + anti conj(z): (lin, anti)."""
        rows, cols = ((np.arange(2) * n * n + i) * 2 for i in (k, q))  # Re rows of c = 0, 1
        image_1, image_i = (a[rows][:, cols + r] + 1j * a[rows + 1][:, cols + r] for r in (0, 1))
        return (image_1 - 1j * image_i) / 2, (image_1 + 1j * image_i) / 2

    for k, kk, block in zip(plus, minus, blocks):
        lin, anti = probe(k, k)
        lin_k, anti_k = probe(kk, kk)
        probed = np.block([
            [lin, probe(k, kk)[1]],
            [np.conj(probe(kk, k)[1]), np.conj(lin_k)],
        ])
        assert np.abs(block - probed).max() <= 1e-12 * scale
        if k != kk:  # psi_hat(k) enters (J psi)_hat(k) complex-linearly
            assert np.abs(anti).max() <= 1e-12 * scale and np.abs(anti_k).max() <= 1e-12 * scale


@pytest.mark.parametrize("spin", SpinStructure.all_four(), ids=str)
def test_block_preconditioner_floors_the_sp1_null_directions_at_shift(monkeypatch, spin):
    # i phi, J phi and iJ phi are exact null vectors of the constant-branch
    # Jacobian; only i phi is bordered.  |B|^{-1} would blow them up, and the
    # floor gives them the weight 1/shift instead.
    n = 12
    lat = make_lattice((1, 0), (0.35, 1.3)).unit_area()
    sol, (matvec, rhs, precond) = _constant_branch_system(monkeypatch, lat, spin, n)
    u = sol.phi.u
    shift = 1.0 + sol.lam * pointwise_power(pointwise_norm(sol.phi.u), 2.0).max()
    j_phi = np.conj(squared_twist_grid(lat, spin, n)) * np.stack([-np.conj(u[1]), np.conj(u[0])])
    for w in (1j * u, j_phi, 1j * j_phi):
        x = np.append(_unitary_spectrum(w), np.zeros(rhs.size - 4 * n * n))
        assert np.abs(matvec(x)[: 4 * n * n]).max() <= 1e-12 * np.abs(x).max()
        assert np.abs(precond(x) - x / shift).max() <= 1e-12 * np.abs(x).max() / shift


def test_block_preconditioner_cuts_minres_iterations(monkeypatch):
    from spintorus import solver

    lat, spin, n = make_lattice((1, 0), (0.2, 1.4)).unit_area(), SpinStructure(1, -1), 32
    init = first_positive_eigenspinor(lat, spin, n)
    init = init + 0.2 * random_band_limited(lat, spin, n, np.random.default_rng(7))
    minres, counts = solver._minres, []

    def counting(matvec, b, rtol, precond):
        x, istop, itn = minres(matvec, b, rtol, precond)
        counts.append(itn)
        return x, istop, itn

    monkeypatch.setattr(solver, "_minres", counting)
    totals = []
    for radius in (solver.BLOCK_RADIUS, 0):
        monkeypatch.setattr(solver, "BLOCK_RADIUS", radius)
        counts.clear()
        solve_at_exponent(4.0, init)
        totals.append(sum(counts))
    assert totals[0] <= 0.7 * totals[1], totals
