"""Critical nonlinear Dirac equation by subcritical continuation.

Target problem on the torus: D phi = lambda |phi|^2 phi with ||phi||_4 = 1.
The solver walks an increasing exponent schedule p: 2 -> 4, warm-starting
each stage, and solves every stage with a damped Newton iteration on the
bordered system

    D phi - lambda |phi|^{p-2} phi = 0,      ||phi||_p = 1,

with lambda an unknown.  The nonlinearity is not complex-differentiable, so
the Jacobian is a symmetric real-linear operator over the (Re, Im) parts of
unitary spectra fft2(psi)/N, where D is diagonal; its normalization row is
scaled to match the lambda column, and MINRES solves it.  At a constant-length
single-mode field the Jacobian couples the mode xi0 + eta only with
xi0 - eta, so it splits exactly into 4x4 Hermitian blocks
(constant_branch_blocks).  Built at the dominant mode of the current iterate,
the blocks give MINRES an absolute-value preconditioner |B|^{-1} on a window
of modes around xi0 (eigenvalues floored at the diagonal's shift); elsewhere
the preconditioner is the diagonal 1/(2 pi |xi| + shift).
That MINRES is a port of SciPy's sparse.linalg.minres (Paige-Saunders) that
repeats its arithmetic operation for operation, so its iterates are
bit-identical to SciPy's; it also returns SciPy's exit flag and iteration
count, which a failing Newton solve reports, and keeps SciPy out of the import.
The equation is U(1)-equivariant, so i*phi would be an exact null vector of
the plain Jacobian; one more symmetric bordering row/column anchors the
phase of the step and keeps the Krylov solves well posed.

Continuation in p is equivalent to the exponent-q continuation on the
functional side (1/p + 1/q = 1) and is the friendlier parametrization for
Newton.  Lattices are rescaled to unit area up front: the solved lambda is
scale invariant and then coincides with lambda * sqrt(area).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dirac import apply_dirac, dirac_symbol, project_out_kernel, symbol_modulus
from .fields import (
    SpinorField,
    eigenvector_at_mode,
    first_positive_eigenspinor,
    l2_inner,
    l2_norm,
    lp_norm,
    parse_entry,
    pointwise_norm,
    pointwise_power,
    pure_mode_field,
    quadrature_weight,
    random_band_limited,
    real_number,
    spinor_from_dict,
    spinor_to_dict,
)
from .lattice import Lattice, SpinStructure, first_eigenmode

SOLUTION_FORMAT = "spintorus-solution"

#: Iteration cap of each MINRES solve, and the smallest Newton damping factor
#: tried before a step counts as stalled.
MINRES_MAXITER = 4000
DAMPING_MIN = 1e-4

#: Half-width R of the window |eta|_inf <= R around the dominant mode k0 on
#: which MINRES is preconditioned by the constant-branch blocks (at most
#: N//2 - 1, so that no mode is in the window twice), and the floor of the
#: eigenvalues of |B| there, in units of the diagonal preconditioner's shift.
BLOCK_RADIUS = 5
BLOCK_FLOOR = 1.0


class ContinuationError(RuntimeError):
    """A continuation stage failed; carries the partial trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass
class Solution:
    """Solved pair (phi, lambda) of D phi = lambda |phi|^{p-2} phi, ||phi||_p = 1."""

    phi: SpinorField
    lam: float
    p: float
    residual: float
    norm_p: float
    trace: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def min_abs(self) -> float:
        return float(pointwise_norm(self.phi.u).min())

    def max_abs(self) -> float:
        return float(pointwise_norm(self.phi.u).max())

    def to_dict(self) -> dict:
        data = spinor_to_dict(self.phi)
        data["format"] = SOLUTION_FORMAT
        data["lambda"] = self.lam
        data["p"] = self.p
        data["residual"] = self.residual
        data["norm_p"] = self.norm_p
        data["trace"] = self.trace
        data["meta"] = self.meta
        return data

    @classmethod
    def of(cls, phi: SpinorField, lam: float, p: float, **fields) -> "Solution":
        """Solution of (phi, lambda, p); residual and norm_p are computed from them."""
        residual = l2_norm(residual_field(phi, lam, p))
        return cls(phi=phi, lam=lam, p=p, residual=residual, norm_p=lp_norm(phi, p), **fields)

    @classmethod
    def from_dict(cls, data: dict) -> "Solution":
        """Solution of a container; a wrong format tag, payload length, non-finite
        plus, minus or lambda, p outside [2, 4] or any other malformed entry
        raises a ValueError that names it.  trace and meta, a JSON array and a JSON
        object, may be left out."""
        phi = spinor_from_dict(data, fmt=SOLUTION_FORMAT)
        data = {"trace": [], "meta": {}, **data}
        lam, p, residual, norm_p = (
            parse_entry(data, key, real_number) for key in ("lambda", "p", "residual", "norm_p")
        )
        for key, kind, name in (("trace", list, "array"), ("meta", dict, "object")):
            if not isinstance(data[key], kind):
                raise ValueError(f"{key}: must be a JSON {name}, got {data[key]!r}")
        if not math.isfinite(lam):
            raise ValueError(f"lambda: must be finite, got {lam}")
        _check_exponent(p)
        return cls(phi, lam, p, residual, norm_p, data["trace"], data["meta"])


@dataclass(frozen=True)
class ContinuationSchedule:
    """Exponents of the continuation and the Newton stopping rule of each stage."""

    p_values: tuple = (2.0, 2.5, 3.0, 3.5, 3.8, 3.95, 4.0)
    tol_solve: float | None = None  # default: see solve_tolerance
    tol_norm: float = 1e-10
    max_newton: int = 40

    def __post_init__(self):
        ps = self.p_values
        if len(ps) < 1 or not (abs(ps[0] - 2.0) <= 1e-12 and abs(ps[-1] - 4.0) <= 1e-12):
            raise ValueError("schedule must start at p=2 and end at p=4")
        if not all(a < b for a, b in zip(ps, ps[1:])):  # also rejects NaN
            raise ValueError("schedule must be strictly increasing")

    def solve_tolerance(self, n: int) -> float:
        """Newton's residual tolerance on an N x N grid (tol_solve when set)."""
        return self.tol_solve if self.tol_solve is not None else 1e-9 * n


def _check_exponent(p: float) -> None:
    if not 2.0 - 1e-12 <= p <= 4.0 + 1e-12:
        raise ValueError(f"p: must lie in [2, 4], got {p}")


def residual_field(phi: SpinorField, lam: float, p: float) -> SpinorField:
    """D phi - lambda |phi|^{p-2} phi, pointwise."""
    _check_exponent(p)
    w = pointwise_power(pointwise_norm(phi.u), p - 2.0)
    return phi.with_u(apply_dirac(phi).u - lam * w * phi.u)


#: What each MINRES exit flag (SciPy's istop) means, by the test that set it.
MINRES_EXITS = {
    -1: "b is an eigenvector of the preconditioned operator",
    0: "zero right-hand side",
    1: "residual below rtol",
    2: "least-squares residual below rtol",
    3: "accuracy limit of eps reached",
    4: "condition estimate above 0.1/eps",
    6: "iteration limit",
}


def _minres(matvec, b, rtol, precond):
    """Preconditioned MINRES (Paige-Saunders) for the symmetric matvec(x) = b.

    Operation for operation the iteration of SciPy's sparse.linalg.minres
    with x0 = 0, shift = 0 and maxiter = MINRES_MAXITER, so x is bit-identical
    to SciPy's.  precond must be symmetric positive definite; matvec and
    precond must return new arrays, which the loop updates in place.  Returns
    (x, istop, itn): the exit flag (a key of MINRES_EXITS) and the iteration
    count.
    """
    eps = np.finfo(float).eps
    x = np.zeros(b.size)
    r1 = b
    y = precond(r1)
    beta1 = np.inner(r1, y)
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0:
        return x, 0, 0
    if np.linalg.norm(b) == 0:
        return b, 0, 0
    beta1 = math.sqrt(beta1)

    oldb, beta, dbar, epsln, phibar = 0, beta1, 0, 0, beta1
    tnorm2, gmax, gmin = 0, 0, np.finfo(float).max
    cs, sn = -1, 0
    w = w2 = np.zeros(b.size)
    r2 = r1
    istop = itn = 0
    while itn < MINRES_MAXITER:
        itn += 1
        # Lanczos step on the preconditioned operator.  Updates run in place
        # on arrays the loop owns, with the bits of SciPy's out-of-place forms:
        # a process that never imports SciPy keeps glibc's small default malloc
        # trim threshold, and there fresh temporaries made Newton solves at
        # N=64 about 10% slower through page faults.
        v = y
        v *= 1.0 / beta
        y = matvec(v)
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = np.inner(v, y)
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y = precond(r2)
        oldb, beta = beta, np.inner(r2, y)
        if beta < 0:
            raise ValueError("non-symmetric matrix")
        beta = math.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        if itn == 1 and beta / beta1 <= 10 * eps:
            istop = -1

        # Apply the previous Givens rotation, then compute the next one.
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.linalg.norm([gbar, dbar])
        gamma = max(np.linalg.norm([gbar, beta]), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar

        w1, w2 = w2, w
        w = v
        w -= oldeps * w1
        w -= delta * w2
        w *= 1.0 / gamma
        x += phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)

        # Stopping tests on ||r|| / (||A|| ||x||) and ||Ar|| / (||A|| ||r||).
        anorm = math.sqrt(tnorm2)
        ynorm = np.linalg.norm(x)
        test1 = np.inf if ynorm == 0 or anorm == 0 else phibar / (anorm * ynorm)
        test2 = np.inf if anorm == 0 else root / anorm
        if istop == 0:
            # SciPy runs these tests in the reverse order, each overriding the
            # last, so the first one that holds here is the one that wins there.
            tests = (
                (test1 <= rtol, 1), (test2 <= rtol, 2), (anorm * ynorm * eps >= beta1, 3),
                (gmax / gmin >= 0.1 / eps, 4), (itn >= MINRES_MAXITER, 6),
                (1 + test1 <= 1, 1), (1 + test2 <= 1, 2),
            )
            istop = next((flag for hit, flag in tests if hit), 0)
        if istop != 0:
            break
    return x, istop, itn


def constant_branch_blocks(u, lam, p, w2, symbol, radius):
    """The Newton Jacobian of the constant branch through u, as 4x4 blocks.

    k0 is the fft2 index of the largest sum_c |u_hat_c|^2 and v the unit
    vector u_hat(k0) / |u_hat(k0)|.  A field of mode k0 alone, with
    phi / |phi| = v e_k0 (e_k0 the unit-modulus wave) and lambda |phi|^{p-2}
    = a = lam * mean(w2), has the Jacobian
    psi -> D psi - a psi - 2b (phi/|phi|) Re((phi/|phi|)^* psi) with
    b = lam (p-2) mean(w2) / 2.  It maps the pair
    (psi_hat(k0+eta), conj psi_hat(k0-eta)) of unitary spectra to the same
    pair of its image by the Hermitian

        B = [[S(k) - a - b v v^*,  -b v v^T],
             [-b conj(v) v^*,      conj S(k') - a - b conj(v) v^T]],

    k = k0 + eta, k' = k0 - eta, S the symbol [[0, S_12], [S_21, 0]].  At a
    constant-length single-mode u these blocks are the exact Jacobian.
    Returns the flat fft2 indices of k and k' for every eta with
    |eta|_inf <= radius, and the blocks, shape (2 radius + 1)^2 x 4 x 4.
    """
    n = u.shape[-1]
    u_hat = np.fft.fft2(u, norm="ortho")
    power = (np.abs(u_hat) ** 2).sum(axis=0)
    i0, j0 = np.unravel_index(np.argmax(power), power.shape)
    v = u_hat[:, i0, j0] / math.sqrt(power[i0, j0])
    eta = np.arange(-radius, radius + 1)
    di, dj = (d.ravel() for d in np.meshgrid(eta, eta, indexing="ij"))
    plus = (i0 + di) % n * n + (j0 + dj) % n
    minus = (i0 - di) % n * n + (j0 - dj) % n
    w = float(np.mean(w2))
    a, b = lam * w, lam * (p - 2.0) * w / 2.0
    vv, vt = np.outer(v, v.conj()), np.outer(v, v)
    blocks = np.broadcast_to(
        -b * np.block([[vv, vt], [vt.conj(), vv.conj()]]) - a * np.eye(4), (plus.size, 4, 4)
    ).copy()
    s = symbol.reshape(2, n * n)
    blocks[:, 0, 1] += s[0, plus]
    blocks[:, 1, 0] += s[1, plus]
    blocks[:, 2, 3] += s[0, minus].conj()
    blocks[:, 3, 2] += s[1, minus].conj()
    return plus, minus, blocks


def solve_at_exponent(
    p: float,
    init: SpinorField | Solution,
    schedule: ContinuationSchedule = ContinuationSchedule(),
) -> Solution:
    """Damped Newton for one exponent; matrix-free Jacobian, MINRES linear solves.

    lambda is an unknown beside phi, fixed by ||phi||_p = 1.  For p > 2 a
    prescribed lambda0 needs no solve of its own: c phi with
    c = (lam / lam0)**(1/(p-2)) solves D psi = lam0 |psi|^{p-2} psi.  Of the
    schedule only the stopping rule is read: solve_tolerance(N), tol_norm and
    max_newton.  MINRES and the damping search are bounded by MINRES_MAXITER
    and DAMPING_MIN.
    """
    _check_exponent(p)
    phi0 = init.phi if isinstance(init, Solution) else init
    lat, spin, n = phi0.lat, phi0.spin, phi0.n_grid
    tol_solve = schedule.solve_tolerance(n)
    kappa = quadrature_weight(phi0)

    if l2_norm(phi0) == 0.0:
        raise ValueError("init field is identically zero")

    u = phi0.u / lp_norm(phi0, p)
    du = apply_dirac(phi0.with_u(u)).u
    num = kappa * float(np.sum((np.conj(du) * u).sum(axis=0).real))
    lam = num / (kappa * float(np.sum((np.abs(u) ** 2).sum(axis=0) ** (p / 2.0))))

    def merit(v, lm):
        """Residual norm, norm gap, their hypot, and the residual array itself."""
        phi = phi0.with_u(v)
        r = residual_field(phi, lm, p)
        res = l2_norm(r)
        gap = lp_norm(phi, p) - 1.0
        return res, gap, math.hypot(res, gap), r.u

    symbol, m = dirac_symbol(lat, spin, n), 4 * n * n
    modulus = np.broadcast_to(symbol_modulus(lat, spin, n)[:, :, None], (2, n, n, 2)).ravel()
    cross, dn = np.empty((n, n)), np.empty((2, n, n), complex)

    def spectrum(v):  # (Re, Im) of each mode of fft2(v)/N: the first m floats of a MINRES vector
        return np.fft.fft2(v, norm="ortho").view(float).ravel()

    def modes(x):  # the complex (2, N, N) spectrum held in the first m floats of x
        return x[:m].view(complex).reshape(2, n, n)

    last_solve = "none"
    res, gap, total, r = merit(u, lam)
    for newton_iters in range(schedule.max_newton + 1):
        if res < tol_solve and abs(gap) < schedule.tol_norm:
            break
        if newton_iters == schedule.max_newton:
            raise ContinuationError(
                f"Newton did not converge at p={p}: residual={res:.3e} after "
                f"{schedule.max_newton} iterations; last MINRES solve: {last_solve}",
                trace=[],
            )
        absphi = pointwise_norm(u)
        w2 = pointwise_power(absphi, p - 2.0)
        hat = u * pointwise_power(absphi, -1.0)
        hat_parts = hat.view(float).reshape(2, n, n, 2)
        # lambda d(|phi|^{p-2} phi)[psi] = lam_w2 * psi + lam_g * Re(conj(hat) . psi)
        lam_w2, lam_g = lam * w2, lam * (p - 2.0) * w2 * hat

        # Unknowns beyond phi, one per border (column, rhs): the unknown e adds
        # e * column to the phi rows of the Jacobian, and the row
        # Re<column, psi> = rhs is appended, so the bordered operator stays
        # symmetric.  lambda's column is -|phi|^{p-2} phi (its row is the
        # linearized norm constraint); the column i phi is a Lagrange multiplier
        # anchoring the U(1) phase, which removes the exact gauge null vector
        # (i phi, 0): the step must not rotate the phase.
        norm_rhs = -(kappa / p * float(np.sum(absphi**p)) - 1.0 / p) / kappa
        borders = [(-(w2 * u), norm_rhs), (1j * u, 0.0)]
        columns = np.stack([spectrum(col) for col, _ in borders])

        def jac_mv(x):
            psi = np.fft.ifft2(modes(x), norm="ortho")
            np.einsum("cijk,cijk->ij", hat_parts, psi.view(float).reshape(2, n, n, 2), out=cross)
            np.multiply(lam_g, cross, out=dn)
            psi *= lam_w2
            psi += dn  # lambda d(|phi|^{p-2} phi)[psi]; D and the borders act on spectra
            out = np.empty(x.size)
            out_hat = modes(out)
            np.multiply(symbol, modes(x)[::-1], out=out_hat)
            out_hat -= np.fft.fft2(psi, norm="ortho")
            out[:m] += x[m:] @ columns
            out[m:] = columns @ x[:m]
            return out

        b = -np.concatenate([spectrum(r), [rhs for _, rhs in borders]])
        shift = 1.0 + abs(lam) * float(w2.max(initial=0.0))
        inv = 1.0 / np.concatenate([modulus + shift, np.ones(len(borders))])
        # On the window around the dominant mode the preconditioner is
        # |B|^{-1} of the constant-branch blocks, its eigenvalues floored at
        # BLOCK_FLOOR * shift so that near-null directions that no border
        # removes are weighted no more than 1/shift; elsewhere, and on the
        # border rows, it is the diagonal inv.  The blocks of eta and -eta
        # hold the same real unknowns, and each gives the modes of its k.
        radius = min(BLOCK_RADIUS, n // 2 - 1)
        plus, minus, blocks = constant_branch_blocks(u, lam, p, w2, symbol, radius)
        vals, vecs = np.linalg.eigh(blocks)
        weights = 1.0 / np.maximum(np.abs(vals), BLOCK_FLOOR * shift)
        top = (vecs[:, :2] * weights[:, None]) @ vecs.conj().transpose(0, 2, 1)

        def precond(v):
            y = inv * v
            z = modes(v).reshape(2, n * n)
            pair = np.concatenate([z[:, plus], z[:, minus].conj()]).T[:, :, None]
            modes(y).reshape(2, n * n)[:, plus] = (top @ pair)[:, :, 0].T
            return y

        eta = max(min(1e-4, 0.1 * res), 1e-12)
        x, istop, itn = _minres(jac_mv, b, rtol=eta, precond=precond)
        last_solve = f"exit {istop} ({MINRES_EXITS[istop]}) after {itn} iterations"
        step, extra = np.fft.ifft2(modes(x), norm="ortho"), x[m:]

        t = 1.0
        while t >= DAMPING_MIN:
            trial = u + t * step
            trial_lam = lam + t * float(extra[0])
            t_res, t_gap, t_total, t_r = merit(trial, trial_lam)
            if t_total <= (1.0 - 1e-4 * t) * total or t_total < 1e-15:
                u, lam = trial, trial_lam
                res, gap, total, r = t_res, t_gap, t_total, t_r
                break
            t *= 0.5
        else:
            raise ContinuationError(
                f"Newton stalled at p={p}: residual={res:.3e}, damping exhausted "
                "(singular Jacobian near kernel directions: perturb the init); "
                f"last MINRES solve: {last_solve}",
                trace=[],
            )

    phi = phi0.with_u(u)
    if spin.is_trivial and abs(p - 2.0) < 1e-12:
        phi = project_out_kernel(phi)
    if lam <= 0.0:
        raise ContinuationError(
            f"converged to a non-positive branch lambda={lam:.3e} at p={p}", []
        )
    return Solution.of(phi, lam, p, meta={"newton_iters": newton_iters})


def solve_critical(
    lat: Lattice,
    spin: SpinStructure,
    schedule: ContinuationSchedule = ContinuationSchedule(),
    init: SpinorField | Solution | None = None,
    n_grid: int = 32,
    seed: int = 0,
    perturbation: float = 0.0,
) -> Solution:
    """Chain solve_at_exponent over the schedule; returns the p = 4 Solution.

    The lattice is rescaled to unit area first (lambda is invariant under
    the joint rescaling, and the reported lambda then equals
    lambda * sqrt(area)).  The full (p, lambda_p, extrema) trace is attached.
    """
    work_lat = lat.unit_area()
    if init is None:
        phi = first_positive_eigenspinor(work_lat, spin, n_grid)
        if perturbation > 0.0:
            rng = np.random.default_rng(seed)
            phi = phi + perturbation * random_band_limited(work_lat, spin, n_grid, rng)
    else:
        phi = init.phi if isinstance(init, Solution) else init
        if phi.lat != work_lat:
            raise ValueError(
                "init lattice does not match the unit-area rescaled target "
                "lattice; rebuild the init on lat.unit_area()"
            )
    trace = []
    sol = None
    for p in schedule.p_values:
        try:
            sol = solve_at_exponent(p, sol if sol is not None else phi, schedule=schedule)
        except ContinuationError as exc:
            raise ContinuationError(
                f"continuation aborted at p={p}: {exc}", trace
            ) from exc
        trace.append(
            {
                "p": p,
                "lambda": sol.lam,
                "residual": sol.residual,
                "min_abs": sol.min_abs(),
                "max_abs": sol.max_abs(),
                "newton_iters": sol.meta.get("newton_iters", 0),
            }
        )
    sol.trace = trace
    sol.meta["rescaled_area"] = True
    return sol


def constant_solution(lat: Lattice, spin: SpinStructure, n_grid: int) -> Solution:
    """Exact constant-length critical solution built on a shortest eigenmode.

    Any single-mode eigenspinor has constant |phi|; scaling it to
    ||phi||_4 = 1 solves D phi = lambda |phi|^2 phi with
    lambda = lambda_1^+ * sqrt(area).
    """
    m, k = first_eigenmode(lat, spin)
    lam1, vp, vm = eigenvector_at_mode(lat, spin, m, k)
    area = lat.area
    c = area ** (-0.25)
    phi = pure_mode_field(lat, spin, n_grid, m, k, c * vp, c * vm)
    return Solution.of(
        phi, lam1 * math.sqrt(area), 4.0, meta={"source": "constant-branch", "mode": [m, k]}
    )


def lambda_consistency(sol: Solution) -> float:
    """Rayleigh-type lambda estimate integral <D phi, phi> / integral |phi|^p."""
    dphi = apply_dirac(sol.phi)
    num = l2_inner(dphi, sol.phi).real
    den = lp_norm(sol.phi, sol.p) ** sol.p
    return num / den
