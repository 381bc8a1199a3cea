"""Command-line surface tying the pipeline together.

Subcommands: spectrum, mu-curve, solve, surface, check.  Exit codes:
0 success, 2 validation error, 3 solver failure, 4 check failure.
Reports are deterministic JSON (schema_version field, canonical float
formatting); identical config and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, config_from_dict, load_config
from .dirac import dirac_spectrum_numeric, kernel_dimension, DENSE_GRID_CAP
from .fields import l2_norm, lp_norm, pointwise_norm
from .functional import (
    DegenerateFieldError,
    IterationLimitError,
    MaximizeOptions,
    mu_curve,
)
from .lattice import InvalidLatticeError, closed_form_spectrum, first_positive_eigenvalue
from .report import SCHEMA_VERSION, CheckReport, dump_report, threshold_verdict
from .solver import (
    ContinuationError,
    Solution,
    lambda_consistency,
    residual_field,
    solve_at_exponent,
    solve_critical,
)
from .weierstrass import (
    ClosednessError,
    build_alpha,
    count_zeros,
    export_mesh,
    integrate_immersion,
    verify_immersion,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4
#: Eigenvalues of smallest |value| listed in a report's closed-form spectrum.
SPECTRUM_ENTRIES = 10


def _resolve_config(args) -> RunConfig:
    """The config file's values with each given flag, even 0, laid over its key;
    --eps sets both eps1 and eps2."""
    data = (load_config(args.config) if args.config else RunConfig()).as_dict()
    data.update((key, value) for key, value in vars(args).items()
                if key in data and value is not None)
    if args.eps is not None:
        toks = args.eps.replace(",", " ").split()
        if len(toks) != 2:
            raise ConfigError(f"eps: expected two signs, got {args.eps!r}")
        data["eps1"], data["eps2"] = toks
    return config_from_dict(data)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir: {exc}") from exc
    return out


def _spectrum_summary(lat, spin) -> dict:
    closed = closed_form_spectrum(lat, spin, SPECTRUM_ENTRIES)
    lam1 = first_positive_eigenvalue(lat, spin)
    return {
        "closed_form": [[v, m] for v, m in closed],
        "lambda1_plus": lam1,
        "lambda1_sqrt_area": lam1 * math.sqrt(lat.area),
        "kernel_dim_complex": kernel_dimension(spin),
    }


def _write_report(cfg: RunConfig, command: str, body: dict, lines, passed: bool = True,
                  fail_code: int = EXIT_CHECK) -> int:
    """Write <command>_report.json: body under schema_version, command and the
    config (without out_dir, for byte-determinism). Print lines and the path;
    return the exit code."""
    config = cfg.as_dict()
    del config["out_dir"]
    report = {"schema_version": SCHEMA_VERSION, "command": command, "config": config, **body}
    path = _out_dir(cfg) / f"{command.replace('-', '_')}_report.json"
    dump_report(report, path)
    for line in lines:
        print(line)
    print(f"wrote {path}")
    return EXIT_OK if passed else fail_code


def _solution_threshold(sol: Solution) -> dict:
    """Threshold verdict of lambda * area^(2/p - 1/2) on the solution's own torus,
    the scale invariant at every p: lambda at p = 4, lambda * sqrt(area) at p = 2."""
    return threshold_verdict(sol.lam * sol.phi.lat.area ** (2.0 / sol.p - 0.5))


def cmd_spectrum(cfg: RunConfig, args) -> int:
    lat, spin = cfg.lattice(), cfg.spin()
    spec = _spectrum_summary(lat, spin)
    n_dense = min(cfg.n_grid, 12)
    pairs = dirac_spectrum_numeric(lat, spin, n_dense, k=10)
    report = {
        "spectrum": spec,
        "numeric": {"n_grid": n_dense, "values": [p.value for p in pairs], "cap": DENSE_GRID_CAP},
        "threshold": threshold_verdict(spec["lambda1_sqrt_area"]),
    }
    return _write_report(cfg, "spectrum", report, [
        f"lambda1+ = {spec['lambda1_plus']:.12g}, "
        f"lambda1+ * sqrt(area) = {spec['lambda1_sqrt_area']:.12g}",
        f"kernel dim (complex) = {spec['kernel_dim_complex']}",
        report["threshold"]["verdict"],
    ])


def cmd_mu_curve(cfg: RunConfig, args) -> int:
    lat, spin = cfg.lattice(), cfg.spin()
    opts = MaximizeOptions(tol_grad=cfg.tol_grad)
    points = mu_curve(lat, spin, cfg.q_values, n_grid=cfg.n_grid, opts=opts, seed=cfg.seed)
    lam1 = first_positive_eigenvalue(lat.unit_area(), spin)
    report = {
        "mu_curve": [
            {key: value for key, value in asdict(pt).items() if value is not None}
            for pt in points
        ],
        "duality_q2": {
            "mu_2_expected": 1.0 / lam1,
            "note": "mu_2 = 1/lambda1+ on the area-1 torus",
        },
        "threshold": threshold_verdict(first_positive_eigenvalue(lat, spin) * math.sqrt(lat.area)),
    }
    return _write_report(
        cfg, "mu-curve", report,
        [f"q = {pt.q:.4f}  mu_q = {pt.mu:.10g}  (|grad| = {pt.grad_norm:.2e})" for pt in points],
        passed=all(pt.converged for pt in points), fail_code=EXIT_SOLVER,
    )


def _solution_report_block(sol: Solution) -> dict:
    dens = pointwise_norm(sol.phi.u) ** 4
    return {
        "lambda": sol.lam,
        "p": sol.p,
        "residual": sol.residual,
        "norm_p": sol.norm_p,
        "min_abs": sol.min_abs(),
        "max_abs": sol.max_abs(),
        "lambda_consistency": lambda_consistency(sol),
        "trace": sol.trace,
        "conformal_factor": {
            "metric": "g = |phi|^4 g0",
            "min": float(dens.min()),
            "max": float(dens.max()),
            "mean": float(dens.mean()),
        },
    }


def cmd_solve(cfg: RunConfig, args) -> int:
    if args.resume:
        sol = solve_at_exponent(4.0, _load_solution(args.resume), schedule=cfg.schedule())
        sol.meta["resumed_from"] = Path(args.resume).name
        lat, spin = sol.phi.lat, sol.phi.spin
    else:
        lat, spin = cfg.lattice(), cfg.spin()
        sol = solve_critical(lat, spin, schedule=cfg.schedule(), n_grid=cfg.n_grid)
    checks = _equation_checks(cfg, sol)
    report = {
        "spectrum": _spectrum_summary(lat, spin),
        "solution": {**_solution_report_block(sol), "file": "solution.json"},
        "threshold": _solution_threshold(sol),
        "checks": checks.as_dict(),
    }
    with open(_out_dir(cfg) / "solution.json", "w", encoding="utf-8") as fh:
        json.dump(sol.to_dict(), fh, sort_keys=True, indent=1)
    return _write_report(cfg, "solve", report, [
        f"lambda = {sol.lam:.12g}  residual = {sol.residual:.3e}",
        report["threshold"]["verdict"],
        *checks.summary_lines(),
    ], passed=checks.passed)


def _equation_checks(cfg: RunConfig, sol: Solution) -> CheckReport:
    """Residual, ||phi||_p and lambda consistency, recomputed from phi, lambda, p."""
    tol_solve = cfg.schedule().solve_tolerance(sol.phi.n_grid)
    with np.errstate(over="ignore"):  # |residual|^2 overflows at a lambda near the float limit
        residual = l2_norm(residual_field(sol.phi, sol.lam, sol.p))
    norm_gap = abs(lp_norm(sol.phi, sol.p) - 1.0)
    lam_gap = abs(lambda_consistency(sol) - sol.lam)
    checks = CheckReport()
    checks.add("residual", residual, tol_solve, residual <= tol_solve,
               note="" if math.isfinite(residual) else f"not finite at lambda = {sol.lam:g}")
    checks.add("norm_p deviation", norm_gap, cfg.tol_norm, norm_gap <= cfg.tol_norm)
    checks.add("lambda consistency", lam_gap, 2.0 * tol_solve, lam_gap <= 2.0 * tol_solve)
    return checks


def _load_solution(path) -> Solution:
    """The nonzero solution saved at path; any defect is a ConfigError naming the file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        sol = Solution.from_dict(data)
        with np.errstate(over="ignore"):  # finite entries can still overflow |phi|^4
            if not math.isfinite(norm4 := lp_norm(sol.phi, 4.0)):
                raise ValueError("plus, minus: the integral of |phi|^4 overflows a double")
        if norm4 == 0.0:
            raise ValueError("plus, minus: the zero spinor, or one whose |phi|^4 underflows")
        return sol
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"solution file {path}: {exc}") from exc


def _verified_immersion(cfg: RunConfig, sol: Solution):
    """Immersion of sol and its checks; ClosednessError above cfg.tol_closed."""
    imm = integrate_immersion(
        build_alpha(sol.phi), H=sol.lam, tol_closed=cfg.tol_closed, zero_tol=cfg.zero_tol
    )
    return imm, verify_immersion(imm, sol.phi, cmc_tol=cfg.tol_cmc)


def cmd_surface(cfg: RunConfig, args) -> int:
    sol = _load_solution(args.solution)
    imm, checks = _verified_immersion(cfg, sol)
    report = {"threshold": _solution_threshold(sol), **imm.summary(), "checks": checks.as_dict()}
    if not args.verify_only:
        obj_path, sidecar = export_mesh(imm, cfg.copies, _out_dir(cfg) / "surface.obj")
        report["files"] = [Path(obj_path).name, Path(sidecar).name]
    return _write_report(cfg, "surface", report, checks.summary_lines(), passed=checks.passed)


def cmd_check(cfg: RunConfig, args) -> int:
    sol = _load_solution(args.solution)
    checks = _equation_checks(cfg, sol)
    zc = count_zeros(sol.phi, sol.lam, zero_tol=cfg.zero_tol)
    checks.add(
        "nodal bound",
        float(len(zc.zeros)),
        zc.bound,
        zc.ok,
        note=f"bound {zc.bound:.6g}",
    )
    try:
        _, sub = _verified_immersion(cfg, sol)
    except ClosednessError as exc:
        checks.add("closedness residual", exc.residual, cfg.tol_closed, False)
    else:  # closedness first, then the remaining checks in verification order
        checks.items.extend(sorted(sub.items, key=lambda it: it.name != "closedness residual"))
    threshold = _solution_threshold(sol)
    return _write_report(
        cfg, "check", {"threshold": threshold, "checks": checks.as_dict()},
        [*checks.summary_lines(), threshold["verdict"]], passed=checks.passed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintorus",
        description=(
            "Spectral Dirac pipeline on flat 2-tori: spectra, the conformal "
            "eigenvalue functional, the critical nonlinear Dirac equation, and "
            "periodic constant-mean-curvature surfaces."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="config file (key-value sections or JSON)")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--seed", type=int, help="random seed echoed in reports")
        p.add_argument("--grid", dest="n_grid", type=int, help="grid size N (even)")
        p.add_argument("--v1", help="lattice generator, e.g. '1 0'")
        p.add_argument("--v2", help="lattice generator, e.g. '0 2'")
        p.add_argument("--eps", help="holonomy signs, e.g. '+1 -1'")

    p_spec = sub.add_parser("spectrum", help="closed-form and numeric Dirac spectra")
    common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_mu = sub.add_parser("mu-curve", help="mu_q table over a q grid")
    common(p_mu)
    p_mu.set_defaults(func=cmd_mu_curve)

    p_solve = sub.add_parser("solve", help="subcritical continuation to p = 4")
    common(p_solve)
    p_solve.add_argument("--resume", help="saved solution file to re-polish")
    p_solve.set_defaults(func=cmd_solve)

    p_surf = sub.add_parser("surface", help="integrate and export the immersion")
    common(p_surf)
    p_surf.add_argument("--solution", required=True, help="solution JSON file")
    p_surf.add_argument("--copies", type=lambda text: text.lower().split("x"),
                        help="fundamental domain tiling K1xK2")
    p_surf.add_argument(
        "--verify-only", action="store_true", help="run checks, write no mesh"
    )
    p_surf.set_defaults(func=cmd_surface)

    p_check = sub.add_parser("check", help="verify a saved solution end to end")
    common(p_check)
    p_check.add_argument("--solution", required=True, help="solution JSON file")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.func(cfg, args)
    except (ConfigError, InvalidLatticeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ContinuationError, DegenerateFieldError, IterationLimitError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        trace = getattr(exc, "trace", None)
        if trace:
            print(f"partial trace: {trace}", file=sys.stderr)
        return EXIT_SOLVER
    except ClosednessError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
