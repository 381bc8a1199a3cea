"""The four benchmark workloads, their seeded inputs and correctness gates.

Every workload is a closed loop with one client: each op starts when the
previous one ends.  Each op gets a new lattice, so the per-(lattice, spin, N)
caches of spintorus start cold at every op, as they do for a user sweeping
tori.  Inputs reach the program as files in the frozen solution format
(README "File formats") wherever the op starts from a field.

The benchmark calls only names in `spintorus.__all__` and the `spintorus`
CLI, so refactors behind those names do not break it.

Continuous input parameters come from a randomly shifted R_d low-discrepancy
sequence (the seed fixes the shift), so every prefix of the op stream covers
the parameter box evenly.  This keeps run-to-run spread low at the op counts
a run of a few tens of seconds allows.  Where an input box is narrower than
the full problem, NOTES.md says which inputs were left out and why.
"""

from __future__ import annotations

import base64
import collections
import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import spintorus as st
from tracing import NullTracer

SPINS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
# Holonomy -1 along the second generator only: the README's spin structure.
TWISTED = st.SpinStructure(1, -1)

CLI_COMMANDS = ["spectrum", "solve", "surface", "check", "mu-curve"]

# `spintorus check` default tolerance on ||phi||_p - 1.
TOL_NORM = 1e-10


def rqmc_points(seed: int, dim: int):
    """Randomly shifted R_d sequence in [0, 1)^dim (Roberts' generalized golden ratio)."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = (1.0 / g) ** np.arange(1, dim + 1)
    shift = np.random.default_rng([seed, dim]).random(dim)
    for i in itertools.count():
        yield (shift + i * alpha) % 1.0


def skew_lattice(ux: float, uy: float, unit_area: bool, y_min: float = 0.6):
    """Generators (1, 0), (x, y) with x ~ U(-.5, .5), y ~ U(y_min, 3)."""
    x, y = -0.5 + ux, y_min + (3.0 - y_min) * uy
    lat = st.make_lattice((1.0, 0.0), (x, y))
    return (lat.unit_area() if unit_area else lat), (x, y)


# ---------------------------------------------------------------------------
# Frozen solution file format: base64 little-endian complex128, row-major.


def _decode(text: str, n: int) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<c16").reshape(n, n)


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<c16").tobytes()).decode()


def perturb(data: dict, amplitude: float, rng: np.random.Generator, max_mode: int) -> dict:
    """Add amplitude times a unit-L^2 Gaussian field on modes |m|, |k| <= max_mode.

    `data` is a solution in the frozen file format on a unit-area lattice,
    whose base field has unit L^2 norm, so the amplitude is relative.
    """
    n = int(data["n_grid"])
    max_mode = min(max_mode, n // 2 - 1)
    span = np.r_[0 : max_mode + 1, n - max_mode : n]
    coeffs = np.zeros((2, n, n), dtype=complex)
    shape = (2, len(span), len(span))
    coeffs[np.ix_([0, 1], span, span)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise = np.fft.ifft2(coeffs, axes=(1, 2))
    noise /= math.sqrt(float(np.sum(np.abs(noise) ** 2)) / n**2)
    out = dict(data)
    out["plus"] = _encode(_decode(data["plus"], n) + amplitude * noise[0])
    out["minus"] = _encode(_decode(data["minus"], n) + amplitude * noise[1])
    return out


def write_solution(path: Path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)


def write_init(work: Path, seed: int, i: int, lat, n_grid: int, amplitude: float,
               max_mode: int) -> Path:
    """First eigenspinor of `lat` (twisted spin) plus a seeded perturbation, as a file."""
    base = st.constant_solution(lat, TWISTED, n_grid).to_dict()
    path = work / "init.json"
    write_solution(path, perturb(base, amplitude, np.random.default_rng([seed, i]), max_mode))
    return path


def load_solution(path: Path, tr, counts: dict):
    with tr.span("fields.solution_load"):
        raw = path.read_bytes()
        sol = st.Solution.from_dict(json.loads(raw))
    counts["fields.solution_bytes"] += len(raw)
    return sol


def equation_gate(sol, p: float, tol: float) -> tuple[bool, str]:
    """Recompute residual, ||phi||_p and lambda consistency from phi, lambda, p.

    The residual stored in the solution is never read.
    """
    res = st.l2_norm(st.residual_field(sol.phi, sol.lam, sol.p))
    norm_p = st.lp_norm(sol.phi, sol.p)
    rayleigh = st.l2_inner(st.apply_dirac(sol.phi), sol.phi).real / norm_p**sol.p
    lam_gap = abs(rayleigh - sol.lam)
    ok = (
        abs(sol.p - p) < 1e-12
        and sol.lam > 0.0
        and res <= tol
        and abs(norm_p - 1.0) <= TOL_NORM
        and lam_gap <= 2.0 * tol
    )
    return ok, (
        f"residual {res:.2e} (tol {tol:.2e}) norm_gap {abs(norm_p - 1.0):.1e} "
        f"lambda_gap {lam_gap:.1e} lambda {sol.lam:.6f}"
    )


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    # Grid size of an op, and of the fixed warm-up op that set-up time includes.
    n_grid = 0
    tiny_grid = 0
    # Ops are issued in rounds; a run ends only after a whole round.
    round_size = 1

    def prepare(self, work: Path, env: dict) -> None:
        """Untimed, once per run, before any op."""

    def inputs(self, seed: int, n_grid: int, work: Path):
        """Endless stream of op inputs; each is built untimed, just before its op."""
        raise NotImplementedError

    def op(self, inp: dict, tr, counts: dict):
        raise NotImplementedError

    def gate(self, inp: dict, out, counts: dict) -> tuple[bool, str]:
        raise NotImplementedError


class CliReadme(Workload):
    name = "cli-readme"
    round_size = len(CLI_COMMANDS)
    COMMANDS = {
        "spectrum": ["spectrum", "--v1", "1 0", "--v2", "0 2", "--eps", "+1 -1", "--out", "out/"],
        "solve": ["solve", "--v1", "1 0", "--v2", "0 2", "--eps", "+1 -1", "--grid", "32",
                  "--seed", "1", "--out", "out/"],
        "surface": ["surface", "--solution", "out/solution.json", "--copies", "3x1", "--out", "out/"],
        "check": ["check", "--solution", "out/solution.json", "--out", "out/"],
        "mu-curve": ["mu-curve", "--v1", "1 0", "--v2", "0 1", "--eps", "+1 -1", "--grid", "16",
                     "--out", "out/"],
    }
    def prepare(self, work: Path, env: dict) -> None:
        self.env = env
        (work / "out").mkdir()
        # `surface` and `check` read the file `solve` writes; a round may start after `solve`.
        self._run(work, "solve")

    def _run(self, work: Path, command: str) -> int:
        argv = [sys.executable, "-m", "spintorus.cli", *self.COMMANDS[command]]
        done = subprocess.run(argv, cwd=work, env=self.env, capture_output=True, timeout=120)
        return done.returncode

    def inputs(self, seed: int, n_grid: int, work: Path):
        start = seed % len(CLI_COMMANDS)
        for i in itertools.count(start):
            yield {"command": CLI_COMMANDS[i % len(CLI_COMMANDS)], "work": work}

    def op(self, inp: dict, tr, counts: dict):
        inp["t0_ns"] = time.time_ns()
        with tr.span(f"cli.{inp['command']}"):
            return self._run(inp["work"], inp["command"])

    def gate(self, inp: dict, out, counts: dict) -> tuple[bool, str]:
        command, out_dir = inp["command"], inp["work"] / "out"
        if out != 0:
            counts["cli.nonzero_exits"] += 1
            return False, f"{command} exit {out}"
        report_path = out_dir / f"{command.replace('-', '_')}_report.json"
        counts["cli.out_bytes"] += sum(
            f.stat().st_size for f in out_dir.iterdir() if f.stat().st_mtime_ns >= inp["t0_ns"]
        )
        report = json.loads(report_path.read_text(encoding="utf-8"))
        checks = report.get("checks")
        if checks is not None and checks.get("passed") is not True:
            failed = [c["name"] for c in checks.get("checks", []) if not c.get("passed")]
            return False, f"{command} checks failed: {failed}"
        return True, f"{command} exit 0" + (", checks passed" if checks is not None else "")


class NewtonPolish(Workload):
    name = "newton-polish"
    n_grid = 64
    tiny_grid = 8
    y_min = 1.2
    amplitude = (0.05, 0.3)
    max_mode = 3

    def inputs(self, seed: int, n_grid: int, work: Path):
        for i, u in enumerate(rqmc_points(seed, 3)):
            lat, xy = skew_lattice(u[0], u[1], unit_area=True, y_min=self.y_min)
            a = self.amplitude[0] + (self.amplitude[1] - self.amplitude[0]) * u[2]
            path = write_init(work, seed, i, lat, n_grid, a, self.max_mode)
            yield {"path": path, "n": n_grid, "desc": f"x={xy[0]:+.3f} y={xy[1]:.3f} a={a:.3f}"}

    def op(self, inp: dict, tr, counts: dict):
        init = load_solution(inp["path"], tr, counts)
        try:
            with tr.span("solver.solve_at_exponent"):
                sol = st.solve_at_exponent(4.0, init)
        except Exception:
            counts["solver.nonconverged"] += 1
            raise
        counts["solver.newton_steps"] += int(sol.meta.get("newton_iters", 0))
        return sol

    def gate(self, inp: dict, sol, counts: dict) -> tuple[bool, str]:
        ratio = sol.min_abs() / sol.max_abs()
        if ratio < 1.0 - 1e-6:
            counts["solver.nonconstant_solutions"] += 1
        # solve_at_exponent's and `spintorus check`'s default tol_solve.
        ok, detail = equation_gate(sol, 4.0, 1e-9 * inp["n"])
        return ok, f"{detail} min/max|phi| {ratio:.3f} newton {sol.meta.get('newton_iters')}"


class FqAscent(Workload):
    name = "fq-ascent"
    n_grid = 32
    tiny_grid = 8
    y_min = 0.8
    q_range = (1.6, 2.0)
    amplitude = (0.1, 0.5)  # log-uniform
    max_mode = 4

    def inputs(self, seed: int, n_grid: int, work: Path):
        lo, hi = math.log(self.amplitude[0]), math.log(self.amplitude[1])
        for i, u in enumerate(rqmc_points(seed, 4)):
            lat, xy = skew_lattice(u[0], u[1], unit_area=True, y_min=self.y_min)
            q = self.q_range[0] + (self.q_range[1] - self.q_range[0]) * u[2]
            a = math.exp(lo + (hi - lo) * u[3])
            path = write_init(work, seed, i, lat, n_grid, a, self.max_mode)
            yield {
                "path": path, "n": n_grid, "lat": lat, "q": q,
                "desc": f"x={xy[0]:+.3f} y={xy[1]:.3f} q={q:.3f} a={a:.3f}",
            }

    def op(self, inp: dict, tr, counts: dict):
        init = load_solution(inp["path"], tr, counts)
        q = inp["q"]
        try:
            with tr.span("functional.maximize_Fq"):
                result = st.maximize_Fq(inp["lat"], TWISTED, q, init.phi)
        except Exception as exc:
            if type(exc).__name__ == "IterationLimitError":
                counts["functional.iteration_limit"] += 1
            raise
        counts["functional.ascent_iters"] += int(result.iterations)
        with tr.span("functional.normalize_euler_lagrange"):
            sol = st.normalize_euler_lagrange(result.phi, q, result.mu)
        return result, sol

    def gate(self, inp: dict, out, counts: dict) -> tuple[bool, str]:
        result, sol = out
        q = inp["q"]
        # The ascent stops at |grad F_q| < 1e-8 N; for the normalized solution
        # D phi - lambda |phi|^(p-2) phi = -(lambda / 2) grad F_q holds exactly.
        tol = 0.5 * sol.lam * 1e-8 * inp["n"] * (1.0 + 1e-6)
        ok, detail = equation_gate(sol, q / (q - 1.0), tol)
        ok = ok and result.converged
        return ok, f"{detail} |grad| {result.grad_norm:.2e} iters {result.iterations}"


class SurfaceExport(Workload):
    name = "surface-export"
    n_grid = 128
    tiny_grid = 16
    copies = (3, 1)

    def inputs(self, seed: int, n_grid: int, work: Path):
        for u in rqmc_points(seed, 5):
            # Every op costs about the same at one grid size, so op times would
            # take the machine's two speeds (fast and slow stretches a few
            # seconds long) and the median would jump between them from run to
            # run.  Grid sizes spread over 0.75-1.25 x n_grid smooth it.
            n = 2 * round(n_grid * (0.75 + 0.5 * u[4]) / 2)
            if u[0] < 0.5:  # twisted rectangles have the golden cylinders
                y = 0.6 + 2.4 * u[1]
                lat, spin, golden = st.make_lattice((1.0, 0.0), (0.0, y)), TWISTED, y
                desc = f"rectangle y={y:.3f}"
            else:
                lat, xy = skew_lattice(u[2], u[1], unit_area=False)
                eps, golden = SPINS[int(4 * u[3])], None
                spin = st.SpinStructure(*eps)
                desc = f"skew x={xy[0]:+.3f} y={xy[1]:.3f} eps={eps}"
            path = work / "solution.json"
            write_solution(path, st.constant_solution(lat, spin, n).to_dict())
            yield {"path": path, "golden_y": golden, "mesh": work / "surface.obj",
                   "desc": f"N={n} {desc}"}

    def op(self, inp: dict, tr, counts: dict):
        sol = load_solution(inp["path"], tr, counts)
        with tr.span("weierstrass.build_alpha"):
            alpha = st.build_alpha(sol.phi)
        with tr.span("weierstrass.integrate_immersion"):
            imm = st.integrate_immersion(alpha, H=sol.lam)
        with tr.span("weierstrass.verify_immersion"):
            report = st.verify_immersion(imm, sol.phi, H=sol.lam)
        with tr.span("weierstrass.count_zeros"):
            zeros = st.count_zeros(sol.phi, sol.lam)
        with tr.span("weierstrass.export_mesh"):
            files = st.export_mesh(imm, self.copies, inp["mesh"], lam=sol.lam)
        return sol, imm, report, zeros, files

    def gate(self, inp: dict, out, counts: dict) -> tuple[bool, str]:
        sol, imm, report, zeros, files = out
        counts["weierstrass.export_mesh.bytes"] += sum(Path(f).stat().st_size for f in files)
        failed = [item.name for item in report.items if not item.passed]
        counts["weierstrass.checks_failed"] += len(failed)
        ok, detail = not failed and zeros.ok, f"verify {'passed' if not failed else failed}"
        y = inp["golden_y"]
        if y is not None:
            # Reference cylinder: radius sqrt(y)/(2 pi), axis period 1/sqrt(y), H = pi/sqrt(y).
            axis = imm.V1 / np.linalg.norm(imm.V1)
            pts = imm.F.reshape(-1, 3)
            radial = pts - np.outer(pts @ axis, axis)
            radial -= radial.mean(axis=0)
            r_dev = float(np.max(np.abs(np.linalg.norm(radial, axis=1) - math.sqrt(y) / (2 * math.pi))))
            period_err = abs(float(np.linalg.norm(imm.V1)) - 1.0 / math.sqrt(y))
            h_err = abs(sol.lam - math.pi / math.sqrt(y)) / (math.pi / math.sqrt(y))
            ok = ok and r_dev < 1e-4 and period_err < 1e-8 and h_err < 1e-12
            detail += f" cylinder radius_dev {r_dev:.1e} period_err {period_err:.1e} H_err {h_err:.1e}"
        return ok, detail


def warmup(wl: Workload, work: Path) -> str:
    """Run the fixed tiny op that set-up time includes (the same input for every seed).

    Returns the gate's verdict; a failure here shows again in the timed ops.
    """
    counts = collections.Counter()  # warm-up counts are discarded
    inp = next(wl.inputs(0, wl.tiny_grid, work))
    try:
        ok, detail = wl.gate(inp, wl.op(inp, NullTracer(), counts), counts)
    except Exception as exc:  # reported, not raised: the timed loop counts failures
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return f"{'PASS' if ok else 'FAIL'}: {detail}"


WORKLOADS = {w.name: w for w in (CliReadme(), NewtonPolish(), FqAscent(), SurfaceExport())}
