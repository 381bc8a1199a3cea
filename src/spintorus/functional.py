"""The conformally tuned Rayleigh-type functional and its maximization.

F_q(phi) = integral <D phi, phi> / ||D phi||_q^2 for q in [4/3, 2].  The
functional is real, degree-0 homogeneous, invariant under adding kernel
spinors, and conformally invariant exactly at the critical exponent
q = 4/3 (dual to p = 4).  Its supremum mu_q ties to the spectrum through
mu_2 = 1/lambda_1^+ and, at q = 4/3, to the infimum of
lambda_1^+ * area^(1/2) over the conformal class.

Maximization is projected gradient ascent with Armijo backtracking:
iterates are kept orthogonal to ker D and renormalized to ||D phi||_q = 1
(free, by homogeneity).  The ascent direction is the gradient
preconditioned by the inverse squared symbol (steepest ascent in the
metric where u = D phi is the unknown); this keeps the iteration
conditioning independent of the grid Nyquist scale while remaining a
plain ascent scheme.  The ascent carries D phi beside phi: one fft2 gives
the gradient spectrum, three ifft2 give the gradient, the direction d and
D d, and every line-search trial phi + s d is evaluated by the linearity of
D, as D phi + s D d, with no transform.  The returned mu and |grad| are
recomputed from a fresh D phi, so they equal functional_Fq and the norm of
grad_Fq at the returned field exactly.  Outputs are stationary / locally
maximal candidates; global maximality is never claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dirac import apply_dirac, dirac_symbol, project_out_kernel, symbol_modulus
from .fields import (
    SpinorField,
    first_positive_eigenspinor,
    l2_inner,
    l2_norm,
    lp_norm,
    pointwise_power,
    random_band_limited,
)
from .lattice import Lattice, SpinStructure
from .solver import Solution

Q_CRITICAL = 4.0 / 3.0

#: ||D phi||_q below this is treated as a kernel element.
TOL_DEGENERATE = 1e-12

#: Ascent line search: Armijo sufficient-increase constant, first trial step,
#: step growth after an accepted step, and step halvings tried per iteration.
ARMIJO = 1e-4
STEP_INIT = 1.0
STEP_GROWTH = 1.5
MAX_BACKTRACKS = 45
#: L^2 size of the random band-limited perturbation of the mu_curve init.
MU_CURVE_PERTURBATION = 1e-2


class DegenerateFieldError(ValueError):
    """D phi vanishes (up to tolerance): F_q is undefined."""


class IterationLimitError(RuntimeError):
    """Ascent did not reach the gradient tolerance; carries the best iterate."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


def conjugate_exponent(q: float) -> float:
    if not 1.0 < q:
        raise ValueError("q must exceed 1")
    return q / (q - 1.0)


def _checked_numerator(dphi: SpinorField, phi: SpinorField) -> float:
    num = l2_inner(dphi, phi)
    scale = abs(num) + 1e-300
    if abs(num.imag) > 1e-9 * max(1.0, scale):
        raise FloatingPointError(
            f"numerator lost self-adjointness: imag/abs = {num.imag / scale:.3e}"
        )
    return num.real


@dataclass(frozen=True)
class FqState:
    """Cached evaluation data of F_q at one field, including D phi."""

    q: float
    p: float
    value: float
    rho: float
    dphi_norm_q: float
    dphi: SpinorField


def fq_state(phi: SpinorField, q: float) -> FqState:
    return _state_from(phi, apply_dirac(phi), q)


def _state_from(phi: SpinorField, dphi: SpinorField, q: float) -> FqState:
    """The state of phi given dphi = D phi: no Dirac application."""
    if q < Q_CRITICAL - 1e-12 or q > 2.0 + 1e-12:
        raise ValueError("q must lie in [4/3, 2]")
    den = lp_norm(dphi, q)
    if den <= TOL_DEGENERATE:
        raise DegenerateFieldError("||D phi||_q vanishes")
    value = _checked_numerator(dphi, phi) / den**2
    return FqState(q, conjugate_exponent(q), value, value * den ** (2.0 - q), den, dphi)


def functional_Fq(phi: SpinorField, q: float) -> float:
    return fq_state(phi, q).value


def grad_Fq(phi: SpinorField, q: float) -> SpinorField:
    """L^2-gradient representative G with Re<G, psi> = dF_q(phi)(psi)."""
    return _gradient(phi, fq_state(phi, q))[0]


def _gradient(phi: SpinorField, state: FqState) -> tuple[SpinorField, np.ndarray]:
    """grad F_q at phi and its spectrum, from the state's D phi: one fft2, one ifft2.

    grad F_q = (2/den^2) D w with w = phi - rho |D phi|^{q-2} D phi.
    """
    dphi = state.dphi
    factor = state.rho * pointwise_power(dphi.pointwise_norm(), state.q - 2.0)
    w_hat = np.fft.fft2(phi.u - factor * dphi.u)
    dw_hat = dirac_symbol(phi.lat, phi.spin, phi.n_grid) * w_hat[::-1]
    scale = 2.0 / state.dphi_norm_q**2
    return scale * phi.with_u(np.fft.ifft2(dw_hat)), scale * dw_hat


@dataclass
class MaximizeOptions:
    """Stopping rule of maximize_Fq: |grad| < tol_grad (default 1e-8 * N) in max_iter steps."""

    tol_grad: float | None = None
    max_iter: int = 5000


@dataclass
class MaximizeResult:
    phi: SpinorField
    mu: float
    iterations: int
    grad_norm: float
    converged: bool
    history: list = field(default_factory=list)


def maximize_Fq(
    lat: Lattice,
    spin: SpinStructure,
    q: float,
    init: SpinorField,
    opts: MaximizeOptions | None = None,
) -> MaximizeResult:
    """Ascend F_q from init, a field on the torus (lat, spin); monotone in F_q
    across accepted steps."""
    if (init.lat, init.spin) != (lat, spin):
        raise ValueError("init lives on another torus than (lat, spin)")
    opts = opts or MaximizeOptions()
    tol_grad = opts.tol_grad if opts.tol_grad is not None else 1e-8 * init.n_grid
    symbol = dirac_symbol(lat, spin, init.n_grid)
    # The preconditioner |symbol|^-2, 0 on the kernel mode: positive definite
    # on the kernel complement, so Re<G, d> > 0 unless d = 0.
    inv_modulus2 = pointwise_power(symbol_modulus(lat, spin, init.n_grid) ** 2, -1.0)

    def normalize(f: SpinorField, df: SpinorField) -> tuple[SpinorField, FqState]:
        """(f, D f) scaled to ||D f||_q = 1, for f orthogonal to ker D."""
        den = lp_norm(df, q)
        if den <= TOL_DEGENERATE:
            raise DegenerateFieldError("iterate collapsed into ker D")
        phi = (1.0 / den) * f
        return phi, _state_from(phi, (1.0 / den) * df, q)

    def fresh(phi: SpinorField) -> tuple[FqState, float]:
        """The state and |grad| of phi recomputed from D phi, as fq_state and grad_Fq give them."""
        state = fq_state(phi, q)
        return state, l2_norm(_gradient(phi, state)[0])

    f = project_out_kernel(init)
    phi, state = normalize(f, apply_dirac(f))
    step = STEP_INIT
    history = [state.value]
    for it in range(opts.max_iter):
        grad, grad_hat = _gradient(phi, state)
        if l2_norm(grad) < tol_grad:
            state, grad_norm = fresh(phi)
            if grad_norm < tol_grad:
                return MaximizeResult(phi, state.value, it, grad_norm, True, history)
            grad, grad_hat = _gradient(phi, state)
        dir_hat = inv_modulus2 * grad_hat
        direction = phi.with_u(np.fft.ifft2(dir_hat))
        d_direction = phi.with_u(np.fft.ifft2(symbol * dir_hat[::-1]))
        slope = l2_inner(grad, direction).real
        if slope <= 0.0:
            break
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            # D kills the kernel part the projection removes: D trial needs no transform.
            trial, trial_state = normalize(
                project_out_kernel(phi + step * direction), state.dphi + step * d_direction
            )
            if trial_state.value >= state.value + ARMIJO * step * slope:
                phi, state = trial, trial_state
                history.append(state.value)
                step *= STEP_GROWTH
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # No admissible increase above roundoff: stationary on this grid.
            break
    state, grad_norm = fresh(phi)
    if grad_norm < tol_grad:
        return MaximizeResult(phi, state.value, opts.max_iter, grad_norm, True, history)
    raise IterationLimitError(
        f"no convergence (|grad| = {grad_norm:.3e}, tol {tol_grad:.3e})",
        MaximizeResult(phi, state.value, opts.max_iter, grad_norm, False, history),
    )


def normalize_euler_lagrange(
    phi_max: SpinorField, q: float, mu_q: float
) -> Solution:
    """Turn a maximizer of F_q into a solution of D phi = mu_q^-1 |phi|^{p-2} phi.

    With ||D phi_1||_q = 1 the normalized solution is phi = |D phi_1|^{q-2} D phi_1
    (the pointwise algebra makes ||phi||_p = 1 exact); lambda = 1/mu_q.  Zeros of
    D phi_1 map to zeros of phi.
    """
    p = conjugate_exponent(q)
    dphi = apply_dirac(phi_max)
    den = lp_norm(dphi, q)
    if den <= TOL_DEGENERATE:
        raise DegenerateFieldError("maximizer has D phi = 0")
    dphi = (1.0 / den) * dphi
    w = dphi.pointwise_norm()
    factor = pointwise_power(w, q - 2.0)
    zero_count = int(np.count_nonzero(w == 0.0))
    phi = phi_max.with_u(factor * dphi.u)
    return Solution.of(
        phi, 1.0 / mu_q, p, meta={"dphi_zero_points": zero_count, "source": "euler-lagrange"}
    )


@dataclass
class MuPoint:
    q: float
    mu: float
    grad_norm: float
    converged: bool
    error: str | None = None


def check_mu_exponent(q: float) -> None:
    """The exponents mu_curve accepts: 4/3 < q <= 2 (to round-off at 2)."""
    if not Q_CRITICAL < q <= 2.0 + 1e-12:
        raise ValueError(f"q={q} outside (4/3, 2]")


def mu_curve(
    lat: Lattice,
    spin: SpinStructure,
    q_values,
    n_grid: int = 16,
    opts: MaximizeOptions | None = None,
    seed: int = 0,
) -> list[MuPoint]:
    """mu_q estimates on the area-1 rescaled torus, warm-started downward in q.

    The sweep continues past failed entries; the table is sorted by q.
    """
    qs = sorted(set(float(q) for q in q_values), reverse=True)
    if not qs:
        return []
    for q in qs:
        check_mu_exponent(q)
    lat1 = lat.unit_area()
    rng = np.random.default_rng(seed)
    init = first_positive_eigenspinor(lat1, spin, n_grid)
    init = init + MU_CURVE_PERTURBATION * random_band_limited(lat1, spin, n_grid, rng)
    points: list[MuPoint] = []
    warm = init
    for q in qs:
        try:
            result = maximize_Fq(lat1, spin, q, warm, opts)
            warm = result.phi
            points.append(MuPoint(q, result.mu, result.grad_norm, result.converged))
        except (DegenerateFieldError, IterationLimitError) as exc:
            best = getattr(exc, "best", None)
            if best is not None:
                warm = best.phi
                points.append(MuPoint(q, best.mu, best.grad_norm, False, str(exc)))
            else:
                points.append(MuPoint(q, math.nan, math.nan, False, str(exc)))
    points.sort(key=lambda pt: pt.q)
    return points
