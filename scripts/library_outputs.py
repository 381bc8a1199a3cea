#!/usr/bin/env python3
"""Print one line `name sha256` per library output on fixed seeded inputs.

A solve's line ends in its Newton step count on its own grid, `steps=K`
(summed over the stages of solve_critical), or `steps=failed`; the
maximize_Fq lines end in their ascent iteration counts, `steps=K`.

usage: python scripts/library_outputs.py [SRC]

SRC (default: the src/ next to this script) goes first on sys.path.  The
inputs are fixed, so two trees compute the same bits exactly when one version
of this script prints the same lines on both:

    python scripts/library_outputs.py base/src > base.txt
    python scripts/library_outputs.py src > head.txt
    diff base.txt head.txt

It uses only public names of the package and finishes in a few seconds.  A
solve that fails is hashed by its error message, and so is any input of the
`long`, `unimodular` and `aliased` lines that a tree refuses (older trees
refuse the long rectangles; newer ones the aliased first mode).
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).parents[1] / "src"))

from spintorus import (  # noqa: E402
    ContinuationSchedule, SpinorField, SpinStructure, build_alpha, closed_form_spectrum,
    constant_solution, count_zeros, export_mesh, functional_Fq, grad_Fq, integrate_immersion,
    l2_norm, make_lattice, maximize_Fq, mu_curve, normalize_euler_lagrange, solve_at_exponent,
    solve_critical, verify_immersion,
)
from spintorus.fields import first_positive_eigenspinor, random_band_limited  # noqa: E402


def emit(name, *parts, steps=None):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    print(name, digest.hexdigest(), *([] if steps is None else [f"steps={steps}"]))


def solution(sol):
    return json.dumps(sol.to_dict(), sort_keys=True)


def newton_steps(sol):
    return sum(stage["newton_iters"] for stage in sol.trace) if sol.trace else sol.meta["newton_iters"]


def caught(fn, *args, **kwargs):
    """fn's result, or the message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def emit_solve(name, fn, *args, **kwargs):
    """Hash fn's Solution as its file text, or the message of the error it raised."""
    sol = caught(fn, *args, **kwargs)
    if isinstance(sol, str):
        emit(name, sol, steps="failed")
    else:
        emit(name, solution(sol), steps=newton_steps(sol))


def low_mode_field(lat, spin, n, rng, band=3):
    """Unit-L^2 Gaussian random field on the modes |m|, |k| <= band of the N grid."""
    span = np.r_[0 : band + 1, n - band : n]
    coeffs = np.zeros((2, n, n), dtype=complex)
    block = rng.standard_normal((2, len(span), len(span), 2)) @ [1, 1j]
    coeffs[np.ix_([0, 1], span, span)] = block
    field = SpinorField.from_array(lat, spin, np.fft.ifft2(coeffs))
    return (1.0 / l2_norm(field)) * field


SPINS = SpinStructure.all_four()
# Eight skew tori (x, y), the first three with y < 1.2, each on two spin structures.
TORI = [(0.1, 0.8), (-0.3, 1.0), (0.45, 1.15), (0.0, 1.3), (0.2, 1.6), (-0.4, 1.9), (0.5, 2.4),
        (-0.15, 3.0)]

for i, (x, y) in enumerate(TORI):
    lat = make_lattice((1, 0), (x, y))
    emit(f"closed_form_spectrum/{i}", *(closed_form_spectrum(lat, s, 12) for s in SPINS))
    emit(f"constant_solution/{i}", *(solution(constant_solution(lat, s, 8 + 4 * i)) for s in SPINS))
    emit(f"random_band_limited/{i}",
         random_band_limited(lat, SPINS[i % 4], 4 + 2 * i, np.random.default_rng(i)).u.tobytes())
    lat1, spin = lat.unit_area(), SPINS[i % 4]
    rng = np.random.default_rng([9, i])
    init = first_positive_eigenspinor(lat1, spin, 32) + 0.1 * random_band_limited(lat1, spin, 32, rng)
    emit_solve(f"solve_at_exponent/normalized/{i}", solve_at_exponent, 3.0 + i / 8, init)
    # Newton converges only linearly on p4/3 (a 4-fold first level) and p4/4 (a
    # bifurcation exponent of the constant branch): both end steps=failed.
    emit_solve(f"solve_at_exponent/p4/{i}", solve_at_exponent, 4.0, init)

# Rectangles 1 x 2000, whose first mode lies across the short side.
for i, (v1, v2) in enumerate([((1, 0), (0, 2000)), ((2000, 0), (0, 1))]):
    emit(f"closed_form_spectrum/long/{i}",
         *(caught(closed_form_spectrum, make_lattice(v1, v2), s, 12) for s in SPINS))
# TORI[4] in the basis 7 gamma1 + 3 gamma2, 2 gamma1 + gamma2, with the spin signs
# eps1 eps2, eps2 that chi(a gamma1 + b gamma2) = eps1^a eps2^b carries to it.
g1, g2 = make_lattice((1, 0), TORI[4]).generator_matrix()
image = make_lattice(7 * g1 + 3 * g2, 2 * g1 + g2)
emit("closed_form_spectrum/unimodular", *(caught(
    closed_form_spectrum, image, SpinStructure(s.eps1 * s.eps2, s.eps2), 12) for s in SPINS))
# (1, 0), (0.3, 1.1) with gamma1 -> gamma1 + 5 gamma2: its first mode (-5, -1) lies
# outside the N = 8 grid.
emit("constant_solution/aliased", caught(
    lambda: solution(constant_solution(make_lattice((2.5, 5.5), (0.3, 1.1)), SPINS[0], 8))))

# Inits on the modes |m|, |k| <= 3 at N = 64, as `solve --resume` polishes them: they hold
# nothing outside the N/2 grid's modes, so the solver may take them to N/2 first.
for i, ((x, y), p) in enumerate((torus, p) for torus in TORI[3:7] for p in (3.0, 4.0)):
    lat1, spin = make_lattice((1, 0), (x, y)).unit_area(), SpinStructure(1, -1)
    init = first_positive_eigenspinor(lat1, spin, 64) + 0.2 * low_mode_field(
        lat1, spin, 64, np.random.default_rng([23, i]))
    emit_solve(f"solve_at_exponent/band_limited/{i}", solve_at_exponent, p, init)

sq, spin = make_lattice((1, 0), (0, 1)), SpinStructure(1, -1)
init = first_positive_eigenspinor(sq, spin, 16)
init = init + 0.02 * random_band_limited(sq, spin, 16, np.random.default_rng(20240815))
# Newton converges only linearly on the square, so round-off decides this
# solve's step count k: the cap k accepts the state of step k, one step fewer fails.
k = newton_steps(solve_at_exponent(4.0, init, schedule=ContinuationSchedule(max_newton=1000)))
emit_solve("solve_at_exponent/failing",
           solve_at_exponent, 4.0, init, schedule=ContinuationSchedule(max_newton=k - 1))
emit_solve("solve_at_exponent/last_step",
           solve_at_exponent, 4.0, init, schedule=ContinuationSchedule(max_newton=k))

lat = make_lattice((1, 0), (0.3, 1.4))
emit_solve("solve_critical", solve_critical, lat, spin, n_grid=16, seed=4, perturbation=0.2)

lat1 = lat.unit_area()
# The F_q oracle that maximize_Fq's returned mu and |grad| come from.
field = random_band_limited(lat1, spin, 16, np.random.default_rng(6))
emit("functional_Fq", *(functional_Fq(field, q) for q in (4 / 3, 1.6, 2.0)))
emit("grad_Fq", *(grad_Fq(field, q).u.tobytes() for q in (4 / 3, 1.6, 2.0)))
init = first_positive_eigenspinor(lat1, spin, 16) + 0.3 * random_band_limited(
    lat1, spin, 16, np.random.default_rng(5))
result = maximize_Fq(lat1, spin, 1.6, init)
emit("maximize_Fq", result.phi.u.tobytes(), result.mu, result.iterations, result.grad_norm,
     result.history, steps=result.iterations)
emit("normalize_euler_lagrange", solution(normalize_euler_lagrange(result.phi, 1.6, result.mu)))
# An ill-conditioned ascent: the long torus whose q < 20/11 maximizer is not constant-length.
long1, long_spin = make_lattice((1, 0), (0, 3)).unit_area(), SpinStructure(-1, 1)
init = first_positive_eigenspinor(long1, long_spin, 32) + 0.1 * random_band_limited(
    long1, long_spin, 32, np.random.default_rng(5))
result = maximize_Fq(long1, long_spin, 1.6, init)
emit("maximize_Fq/headline", result.phi.u.tobytes(), result.mu, result.iterations,
     result.grad_norm, result.history, steps=result.iterations)
emit("mu_curve", mu_curve(lat, spin, (1.5, 1.7, 2.0), n_grid=12, seed=2))

with tempfile.TemporaryDirectory() as tmp:
    for name, sol in [("constant", constant_solution(lat, SpinStructure(-1, 1), 24)),
                      ("solved", solve_critical(lat, spin, n_grid=16, seed=4, perturbation=0.2))]:
        alpha = build_alpha(sol.phi)
        emit(f"build_alpha/{name}", alpha.a.tobytes())
        imm = integrate_immersion(alpha, H=sol.lam)
        emit(f"integrate_immersion/{name}", imm.F.tobytes(), imm.V1.tobytes(), imm.V2.tobytes(),
             imm.summary())
        emit(f"verify_immersion/{name}", verify_immersion(imm, sol.phi).as_dict(), imm.diagnostics)
        emit(f"count_zeros/{name}", count_zeros(sol.phi, sol.lam))
        obj, sidecar = export_mesh(imm, (2, 1), Path(tmp) / f"{name}.obj", lam=sol.lam)
        emit(f"export_mesh/{name}", Path(obj).read_bytes(), Path(sidecar).read_bytes())
    # An N = 96 skew constant surface: its coordinates repeat across grid lines and copies.
    sol = constant_solution(lat, SpinStructure(-1, 1), 96)
    imm = integrate_immersion(build_alpha(sol.phi), H=sol.lam)
    for k1, k2 in [(3, 1), (2, 2)]:
        obj, sidecar = export_mesh(imm, (k1, k2), Path(tmp) / "skew96.obj", lam=sol.lam)
        emit(f"export_mesh/skew96/{k1}x{k2}", Path(obj).read_bytes(), Path(sidecar).read_bytes())
