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
plain ascent scheme.  Outputs are stationary / locally maximal
candidates; global maximality is never claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dirac import apply_dirac, project_out_kernel, symbol_modulus
from .fields import (
    SpinorField,
    first_positive_eigenspinor,
    l2_inner,
    l2_norm,
    lp_norm,
    pointwise_power,
    random_band_limited,
    spectral_apply,
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
    if q < Q_CRITICAL - 1e-12 or q > 2.0 + 1e-12:
        raise ValueError("q must lie in [4/3, 2]")
    dphi = apply_dirac(phi)
    den = lp_norm(dphi, q)
    if den <= TOL_DEGENERATE:
        raise DegenerateFieldError("||D phi||_q vanishes")
    value = _checked_numerator(dphi, phi) / den**2
    return FqState(q, conjugate_exponent(q), value, value * den ** (2.0 - q), den, dphi)


def functional_Fq(phi: SpinorField, q: float) -> float:
    return fq_state(phi, q).value


def grad_Fq(phi: SpinorField, q: float) -> SpinorField:
    """L^2-gradient representative G with Re<G, psi> = dF_q(phi)(psi)."""
    return _grad_at(phi, fq_state(phi, q))


def _grad_at(phi: SpinorField, state: FqState) -> SpinorField:
    """grad_Fq(phi, state.q) from the state of phi: one more Dirac application."""
    dphi, den = state.dphi, state.dphi_norm_q
    factor = state.rho * pointwise_power(dphi.pointwise_norm(), state.q - 2.0)
    return (2.0 / den**2) * apply_dirac(phi.with_u(phi.u - factor * dphi.u))


def _precondition(grad: SpinorField) -> SpinorField:
    """Apply the inverse squared Dirac symbol modewise (kernel mode dropped).

    The result is an ascent direction: the multiplier is positive definite
    on the kernel complement, so Re<G, P G> > 0 unless P G = 0.
    """
    mult = symbol_modulus(grad.lat, grad.spin, grad.n_grid) ** 2
    return grad.with_u(spectral_apply(grad.u, pointwise_power(mult, -1.0)))


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

    def normalize(f: SpinorField) -> SpinorField:
        f = project_out_kernel(f)
        den = lp_norm(apply_dirac(f), q)
        if den <= TOL_DEGENERATE:
            raise DegenerateFieldError("iterate collapsed into ker D")
        return (1.0 / den) * f

    phi = normalize(init)
    state = fq_state(phi, q)
    value = state.value
    step = STEP_INIT
    history = [value]
    grad_norm = math.inf
    for it in range(opts.max_iter):
        grad = _grad_at(phi, state)
        grad_norm = l2_norm(grad)
        if grad_norm < tol_grad:
            return MaximizeResult(phi, value, it, grad_norm, True, history)
        direction = _precondition(grad)
        slope = l2_inner(grad, direction).real
        if slope <= 0.0:
            break
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            trial = normalize(phi + step * direction)
            trial_state = fq_state(trial, q)
            if trial_state.value >= value + ARMIJO * step * slope:
                phi, state, value = trial, trial_state, trial_state.value
                history.append(value)
                step *= STEP_GROWTH
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # No admissible increase above roundoff: stationary on this grid.
            break
    grad_norm = l2_norm(_grad_at(phi, state))
    if grad_norm < tol_grad:
        return MaximizeResult(phi, value, opts.max_iter, grad_norm, True, history)
    raise IterationLimitError(
        f"no convergence (|grad| = {grad_norm:.3e}, tol {tol_grad:.3e})",
        MaximizeResult(phi, value, opts.max_iter, grad_norm, False, history),
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
