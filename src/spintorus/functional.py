"""The conformally tuned Rayleigh-type functional and its maximization.

F_q(phi) = integral <D phi, phi> / ||D phi||_q^2 for q in [4/3, 2].  The
functional is real, degree-0 homogeneous, invariant under adding kernel
spinors, and conformally invariant exactly at the critical exponent
q = 4/3 (dual to p = 4).  Its supremum mu_q ties to the spectrum through
mu_2 = 1/lambda_1^+ and, at q = 4/3, to the infimum of
lambda_1^+ * area^(1/2) over the conformal class.

Maximization is projected gradient ascent with Armijo backtracking:
iterates are kept orthogonal to ker D and renormalized to ||D phi||_q = 1
(free, by homogeneity).  The direction is the gradient preconditioned by
the inverse squared symbol (steepest ascent in the metric where u = D phi
is the unknown), which keeps the conditioning independent of the grid
Nyquist scale.  The ascent carries the fft2 spectrum of phi beside D phi:
an iteration takes one fft2 (the gradient) and one ifft2 (D d, for the
direction d), and line-search trials phi + s d take none, being priced
from spectral inner products and pointwise sums.  Armijo tests the gain
F(phi + s d) - F(phi) free of cancellation against F, so gains below an
ulp of F count.  mu and |grad| are recomputed from a fresh D phi, so they
equal functional_Fq and |grad_Fq| at the returned field exactly.  Outputs
are stationary / locally maximal candidates, never claimed global.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dirac import apply_dirac, dirac_symbol, symbol_modulus
from .fields import (
    SpinorField,
    _fft2,
    _ifft2,
    first_positive_eigenspinor,
    l2_inner,
    l2_norm,
    lp_norm,
    pointwise_norm,
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


def _checked_numerator(num: complex) -> float:
    scale = abs(num) + 1e-300
    if abs(num.imag) > 1e-9 * max(1.0, scale):
        raise FloatingPointError(
            f"numerator lost self-adjointness: imag/abs = {num.imag / scale:.3e}"
        )
    return num.real


def _fq(phi: SpinorField, q: float) -> tuple[float, SpinorField, float]:
    """F_q(phi), D phi and ||D phi||_q."""
    if q < Q_CRITICAL - 1e-12 or q > 2.0 + 1e-12:
        raise ValueError("q must lie in [4/3, 2]")
    dphi = apply_dirac(phi)
    den = lp_norm(dphi, q)
    if den <= TOL_DEGENERATE:
        raise DegenerateFieldError("||D phi||_q vanishes")
    return _checked_numerator(l2_inner(dphi, phi)) / den**2, dphi, den


def _fq_and_grad(phi: SpinorField, q: float) -> tuple[float, SpinorField, SpinorField]:
    """F_q(phi), D phi and grad F_q(phi) = (2/den^2) D w, w = phi - rho |D phi|^{q-2} D phi,
    rho = F_q den^{2-q}: one apply_dirac, then one fft2 and one ifft2."""
    value, dphi, den = _fq(phi, q)
    rho = value * den ** (2.0 - q)
    w_hat = _fft2(phi.u - rho * pointwise_power(pointwise_norm(dphi.u), q - 2.0) * dphi.u)
    dw_hat = dirac_symbol(phi.lat, phi.spin, phi.n_grid) * w_hat[::-1]
    return value, dphi, (2.0 / den**2) * phi.with_u(_ifft2(dw_hat))


def functional_Fq(phi: SpinorField, q: float) -> float:
    return _fq(phi, q)[0]


def grad_Fq(phi: SpinorField, q: float) -> SpinorField:
    """L^2-gradient representative G with Re<G, psi> = dF_q(phi)(psi)."""
    return _fq_and_grad(phi, q)[2]


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
    n = init.n_grid
    tol_grad = opts.tol_grad if opts.tol_grad is not None else 1e-8 * n
    symbol, modulus = dirac_symbol(lat, spin, n), symbol_modulus(lat, spin, n)
    # The preconditioner |symbol|^-2, 0 on the kernel mode: positive definite
    # on the kernel complement, so Re<G, d> > 0 unless d = 0.
    inv_modulus2 = pointwise_power(modulus**2, -1.0)
    kappa, weight = lat.area / n**2, lat.area / n**4  # per sample; per fft2 mode (Parseval)

    def carried(phi_hat: np.ndarray, dphi: np.ndarray):
        """The numerator, ||D phi||_q^q, |D phi| and the gradient spectrum of the
        iterate with spectrum phi_hat and dphi = D phi: one fft2."""
        num = _checked_numerator(weight * np.vdot(symbol * phi_hat[::-1], phi_hat))
        mod = pointwise_norm(dphi)
        nq = kappa * (mod**q).sum()
        # grad = (2/den^2) D w, w = phi - rho |D phi|^{q-2} D phi, rho = num/nq.
        w_hat = phi_hat - _fft2(num / nq * pointwise_power(mod, q - 2.0) * dphi)
        return num, nq, mod, 2.0 / nq ** (2.0 / q) * (symbol * w_hat[::-1])

    def fresh(phi_hat: np.ndarray):
        """The field of spectrum phi_hat, and its F_q, D phi and |grad| as grad_Fq gives them."""
        phi = init.with_u(_ifft2(phi_hat))
        value, dphi, grad = _fq_and_grad(phi, q)
        return phi, value, dphi.u, l2_norm(grad)

    # The symbol's zero modes span ker D (trivial spin only); d never has them.
    phi_hat = np.where(modulus > 0.0, _fft2(init.u), 0.0)
    dphi = _ifft2(symbol * phi_hat[::-1])
    den = lp_norm(init.with_u(dphi), q)
    if den <= TOL_DEGENERATE:
        raise DegenerateFieldError("iterate collapsed into ker D")
    phi_hat, dphi = phi_hat / den, dphi / den
    num, nq, mod, grad_hat = carried(phi_hat, dphi)
    history, s = [num / nq ** (2.0 / q)], STEP_INIT  # s: the step, phi -> phi + s d
    grad_norm = math.inf  # the fresh |grad|: below tol_grad only when the loop stops on it
    for _ in range(opts.max_iter):
        if math.sqrt(weight * np.vdot(grad_hat, grad_hat).real) < tol_grad:
            phi, mu, dphi, grad_norm = fresh(phi_hat)
            if grad_norm < tol_grad:
                break
            num, nq, mod, grad_hat = carried(phi_hat, dphi)
        dir_hat = inv_modulus2 * grad_hat
        slope = weight * np.vdot(grad_hat, dir_hat).real
        if slope <= 0.0:
            break
        ddir_hat = symbol * dir_hat[::-1]
        ddir = _ifft2(ddir_hat)
        # Along phi + s d the numerator is num + s b + s^2 c and |D phi|^2 gains the factor
        # 1 + s lin + s^2 quad, so trials price the gain in F without transform or cancellation.
        b = weight * (np.vdot(symbol * phi_hat[::-1], dir_hat) + np.vdot(ddir_hat, phi_hat))
        c = weight * np.vdot(ddir_hat, dir_hat)
        inv_mod2, ddir2, modq = pointwise_power(mod, -2.0), pointwise_norm(ddir) ** 2, mod**q
        lin = 2.0 * (dphi.real * ddir.real + dphi.imag * ddir.imag).sum(axis=0) * inv_mod2
        quad, ddir2_at_zeros = ddir2 * inv_mod2, ddir2[mod == 0.0]
        for _ in range(MAX_BACKTRACKS):
            dn = kappa * (np.vdot(modq, np.expm1(q / 2 * np.log1p(s * lin + s * s * quad)))
                          + ((s * s * ddir2_at_zeros) ** (q / 2)).sum())
            trial_num, trial_nq = _checked_numerator(num + s * b + s * s * c), nq + dn
            if trial_nq <= TOL_DEGENERATE**q:
                raise DegenerateFieldError("iterate collapsed into ker D")
            gain = s * b.real + s * s * c.real - num * math.expm1(2.0 / q * math.log1p(dn / nq))
            if gain / trial_nq ** (2.0 / q) >= ARMIJO * s * slope:
                scale = trial_nq ** (-1.0 / q)
                phi_hat, dphi = scale * (phi_hat + s * dir_hat), scale * (dphi + s * ddir)
                history.append(trial_num / trial_nq ** (2.0 / q))
                num, nq, mod, grad_hat = carried(phi_hat, dphi)
                s *= STEP_GROWTH
                break
            s *= 0.5
        else:
            # No admissible increase above roundoff: stationary on this grid.
            break
    if not grad_norm < tol_grad:
        phi, mu, _, grad_norm = fresh(phi_hat)
    result = MaximizeResult(phi, mu, len(history) - 1, grad_norm, grad_norm < tol_grad, history)
    if result.converged:
        return result
    raise IterationLimitError(
        f"no convergence (|grad| = {grad_norm:.3e}, tol {tol_grad:.3e})", result
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
    w = pointwise_norm(dphi.u)
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
