import base64
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

BASE = [sys.executable, "-m", "spintorus.cli"]


def run_cli(*args, check=True):
    result = subprocess.run(
        BASE + list(args), capture_output=True, text=True
    )
    if check and result.returncode != 0:
        raise AssertionError(f"cli failed ({result.returncode}): {result.stderr}")
    return result


def test_spectrum_trivial_square_reports_kernel(tmp_path):
    out = tmp_path / "s"
    run_cli("spectrum", "--v1", "1 0", "--v2", "0 1", "--eps", "+1 +1", "--out", str(out))
    report = json.loads((out / "spectrum_report.json").read_text())
    assert report["schema_version"] == "1"
    assert report["spectrum"]["kernel_dim_complex"] == 2
    assert [0.0, 2] in report["spectrum"]["closed_form"]


def test_spectrum_unit_square_nontrivial(tmp_path):
    out = tmp_path / "s"
    run_cli("spectrum", "--v1", "1 0", "--v2", "0 1", "--eps", "+1 -1", "--out", str(out))
    report = json.loads((out / "spectrum_report.json").read_text())
    assert report["spectrum"]["lambda1_sqrt_area"] == pytest.approx(math.pi, rel=1e-12)
    assert report["threshold"]["below_threshold"] is True


def test_validation_error_names_field(tmp_path):
    result = run_cli("spectrum", "--grid", "7", "--out", str(tmp_path), check=False)
    assert result.returncode == 2
    assert "n_grid" in result.stderr


def test_solve_below_threshold(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "solve", "--v1", "1 0", "--v2", "0 1", "--eps", "+1 -1",
        "--grid", "16", "--seed", "5", "--out", str(out),
    )
    report = json.loads((out / "solve_report.json").read_text())
    assert report["solution"]["lambda"] == pytest.approx(math.pi, abs=1e-6)
    assert report["threshold"]["below_threshold"] is True
    assert "minimizer regime" in report["threshold"]["verdict"]
    assert report["checks"]["passed"] is True
    assert (out / "solution.json").exists()


def test_solve_above_threshold_flat_torus(tmp_path):
    # y = 0.6: lambda sqrt(area) = pi/sqrt(0.6) > 2 sqrt(pi)
    out = tmp_path / "run"
    run_cli(
        "solve", "--v1", "1 0", "--v2", "0 0.6", "--eps", "+1 -1",
        "--grid", "16", "--seed", "5", "--out", str(out),
    )
    report = json.loads((out / "solve_report.json").read_text())
    assert report["solution"]["lambda"] == pytest.approx(math.pi / math.sqrt(0.6), abs=1e-5)
    assert report["threshold"]["below_threshold"] is False
    assert "threshold not met" in report["threshold"]["verdict"]


def test_reports_are_byte_identical(tmp_path):
    args = ["solve", "--v1", "1 0", "--v2", "0 2", "--eps", "+1 -1", "--grid", "16", "--seed", "3"]
    run_cli(*args, "--out", str(tmp_path / "a"))
    run_cli(*args, "--out", str(tmp_path / "b"))
    a = (tmp_path / "a" / "solve_report.json").read_bytes()
    b = (tmp_path / "b" / "solve_report.json").read_bytes()
    assert a == b


def test_resume_is_deterministic(tmp_path):
    args = ["--v1", "1 0", "--v2", "0 2", "--eps", "+1 -1", "--grid", "16", "--seed", "3"]
    run_cli("solve", *args, "--out", str(tmp_path / "a"))
    run_cli("solve", *args, "--resume", str(tmp_path / "a" / "solution.json"),
            "--out", str(tmp_path / "b"))
    a = json.loads((tmp_path / "a" / "solve_report.json").read_text())
    b = json.loads((tmp_path / "b" / "solve_report.json").read_text())
    assert abs(a["solution"]["lambda"] - b["solution"]["lambda"]) < 1e-12


def test_surface_export_and_verify_only(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "solve", "--v1", "1 0", "--v2", "0 2", "--eps", "+1 -1",
        "--grid", "32", "--seed", "1", "--out", str(out),
    )
    sol_file = str(out / "solution.json")
    run_cli("surface", "--solution", sol_file, "--verify-only", "--out", str(out / "v"))
    assert not (out / "v" / "surface.obj").exists()
    report = json.loads((out / "v" / "surface_report.json").read_text())
    assert report["checks"]["passed"] is True

    run_cli("surface", "--solution", sol_file, "--copies", "2x1", "--out", str(out / "m"))
    assert (out / "m" / "surface.obj").exists()
    assert (out / "m" / "surface.json").exists()
    sidecar = json.loads((out / "m" / "surface.json").read_text())
    assert sidecar["copies"] == [2, 1]


def test_check_passes_on_good_solution(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "solve", "--v1", "1 0", "--v2", "0 1", "--eps", "+1 -1",
        "--grid", "16", "--seed", "2", "--out", str(out),
    )
    result = run_cli("check", "--solution", str(out / "solution.json"), "--out", str(out))
    assert result.returncode == 0


def test_check_fails_on_tampered_solution(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "solve", "--v1", "1 0", "--v2", "0 1", "--eps", "+1 -1",
        "--grid", "16", "--seed", "2", "--out", str(out),
    )
    data = json.loads((out / "solution.json").read_text())
    data["lambda"] *= 1.01
    data["residual"] = 0.0
    (out / "bad.json").write_text(json.dumps(data))
    result = run_cli("check", "--solution", str(out / "bad.json"), "--out", str(out), check=False)
    assert result.returncode == 4


def _check_items(out):
    report = json.loads((out / "check_report.json").read_text())
    return {item["name"]: item for item in report["checks"]["checks"]}


def test_check_recomputes_residual(tmp_path):
    from spintorus.cli import EXIT_CHECK, EXIT_OK, EXIT_VALIDATION, main
    from spintorus.fields import random_band_limited
    from spintorus.lattice import SpinStructure, make_lattice
    from spintorus.solver import constant_solution

    lat, spin = make_lattice((1, 0), (0, 1)), SpinStructure(1, -1)
    honest = constant_solution(lat, spin, 16)
    data = honest.to_dict()
    data["residual"] = 1.0
    path = tmp_path / "honest.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "a"
    assert main(["check", "--solution", str(path), "--out", str(out)]) == EXIT_OK
    assert _check_items(out)["residual"]["value"] < 1e-12

    honest.phi = honest.phi + 1e-3 * random_band_limited(
        lat, spin, 16, np.random.default_rng(7)
    )
    data = honest.to_dict()
    data["residual"] = 0.0
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "b"
    assert main(["check", "--solution", str(path), "--out", str(out)]) == EXIT_CHECK
    assert _check_items(out)["residual"]["passed"] is False

    data["p"] = 5.0
    path.write_text(json.dumps(data))
    assert main(["check", "--solution", str(path), "--out", str(out)]) == EXIT_VALIDATION


SCIPY_FREE_SCRIPT = """
import json, sys
from pathlib import Path
import spintorus
from spintorus.cli import main
from spintorus.solver import constant_solution

work = Path(sys.argv[1])
sol = constant_solution(
    spintorus.make_lattice((1, 0), (0, 2)), spintorus.SpinStructure(1, -1), 16
)
(work / "solution.json").write_text(json.dumps(sol.to_dict()))
try:
    main(["--version"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
sol_file = str(work / "solution.json")
assert main(["spectrum", "--v1", "1 0", "--v2", "0 2", "--eps", "+1 -1", "--out", str(work)]) == 0
assert main(["surface", "--solution", sol_file, "--out", str(work)]) == 0
assert main(["check", "--solution", sol_file, "--out", str(work)]) == 0
assert main(["mu-curve", "--grid", "8", "--out", str(work)]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded[:5]
"""


def test_scipy_free_commands_do_not_import_scipy(tmp_path):
    # The pytest process has scipy loaded already; only a fresh interpreter can tell.
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_SCRIPT, str(tmp_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


SCIPY_BLOCKED_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
from spintorus.cli import main

out = sys.argv[1]
readme = [
    ["spectrum", "--v1", "1 0", "--v2", "0 2", "--eps", "+1 -1"],
    ["solve", "--v1", "1 0", "--v2", "0 2", "--eps", "+1 -1", "--grid", "32", "--seed", "1"],
    ["surface", "--solution", out + "/solution.json", "--copies", "3x1"],
    ["check", "--solution", out + "/solution.json"],
    ["mu-curve", "--v1", "1 0", "--v2", "0 1", "--eps", "+1 -1", "--grid", "16"],
]
for argv in readme:
    code = main(argv + ["--out", out])
    assert code == 0, (argv[0], code)
"""


def test_readme_commands_run_with_scipy_unimportable(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_SCRIPT, str(tmp_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", ["check --solution", "surface --solution", "solve --resume"])
def test_surface_rejects_zero_spinor(tmp_path, command):
    from spintorus.fields import SpinorField
    from spintorus.lattice import SpinStructure, make_lattice
    from spintorus.solver import Solution

    sol = Solution(
        phi=SpinorField.from_array(
            make_lattice((1, 0), (0, 1)), SpinStructure(1, -1), np.zeros((2, 8, 8), complex)
        ),
        lam=1.0, p=4.0, residual=0.0, norm_p=0.0,
    )
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(sol.to_dict()))
    result = run_cli(*command.split(), str(path), "--out", str(tmp_path), check=False)
    assert result.returncode == 2
    assert "zero.json: plus, minus:" in result.stderr


def test_config_file_ini_and_json(tmp_path):
    ini = tmp_path / "run.cfg"
    ini.write_text(
        "[lattice]\nv1 = 1 0\nv2 = 0 2\n"
        "[spin]\neps1 = +1\neps2 = -1\n"
        "[run]\nn_grid = 16\nseed = 9\n"
        "[tolerances]\ntol_norm = 1e-10\n"
    )
    out = tmp_path / "ini_out"
    run_cli("solve", "--config", str(ini), "--out", str(out))
    rep_ini = json.loads((out / "solve_report.json").read_text())

    jsn = tmp_path / "run.json"
    jsn.write_text(json.dumps({"v1": [1, 0], "v2": [0, 2], "eps1": 1, "eps2": -1,
                               "n_grid": 16, "seed": 9}))
    out2 = tmp_path / "json_out"
    run_cli("solve", "--config", str(jsn), "--out", str(out2))
    rep_json = json.loads((out2 / "solve_report.json").read_text())
    assert rep_ini["solution"]["lambda"] == rep_json["solution"]["lambda"]


def test_mu_curve_command(tmp_path):
    out = tmp_path / "mu"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q_values": [1.8, 2.0], "n_grid": 12}))
    run_cli("mu-curve", "--config", str(cfg), "--v1", "1 0", "--v2", "0 1",
            "--eps", "+1 -1", "--out", str(out))
    report = json.loads((out / "mu_curve_report.json").read_text())
    mus = {row["q"]: row["mu"] for row in report["mu_curve"]}
    assert mus[2.0] == pytest.approx(1 / math.pi, abs=1e-7)
    assert mus[1.8] >= mus[2.0] - 1e-7


@pytest.mark.parametrize(
    "name, text, field",
    [
        ("run.cfg", "[run]\nn_grid = abc\n", "n_grid"),
        ("run.cfg", "[spin]\neps1 = x\n", "eps1"),
        ("run.cfg", "[run]\ngrid = 8\n", "grid"),
        ("run.json", '{"v1": 5}', "v1"),
        ("run.json", '{"v1": [1, 0, 0]}', "v1"),
        ("run.json", '{"n_grid": "x"}', "n_grid"),
        ("run.json", '{"n_grid": 8,', "config JSON"),
        ("run.json", "[1, 2]", "config JSON"),
    ],
    ids=["ini-int", "ini-sign", "ini-unknown", "json-pair-type", "json-pair-length",
         "json-int", "json-syntax", "json-list"],
)
def test_malformed_config_exits_2_naming_field(tmp_path, capsys, name, text, field):
    from spintorus.cli import EXIT_VALIDATION, main

    path = tmp_path / name
    path.write_text(text)
    code = main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert f"configuration error: {field}:" in capsys.readouterr().err


def _nan_payload(data):
    n = data["n_grid"]
    data["plus"] = base64.b64encode(np.full(n * n, np.nan, "<c16").tobytes()).decode()


def _short_payload(data):
    data["minus"] = base64.b64encode(np.zeros(7, "<c16").tobytes()).decode()


SOLUTION_DEFECTS = {
    "format": lambda data: data.update(format="spintorus-spinor"),
    "plus": _nan_payload,
    "minus": _short_payload,
    "lambda": lambda data: data.update({"lambda": math.inf}),
    "p": lambda data: data.update(p=5.0),
}


@pytest.mark.parametrize("command", ["check", "surface"])
@pytest.mark.parametrize("field", sorted(SOLUTION_DEFECTS))
def test_invalid_solution_file_exits_2_naming_field(tmp_path, capsys, command, field):
    from spintorus.cli import EXIT_VALIDATION, main
    from spintorus.lattice import SpinStructure, make_lattice
    from spintorus.solver import constant_solution

    data = constant_solution(make_lattice((1, 0), (0, 2)), SpinStructure(1, -1), 8).to_dict()
    SOLUTION_DEFECTS[field](data)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    code = main([command, "--solution", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert f"s.json: {field}:" in capsys.readouterr().err


def test_zero_grid_flag_exits_2_naming_n_grid(tmp_path, capsys):
    from spintorus.cli import EXIT_VALIDATION, main

    code = main(["mu-curve", "--grid", "0", "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert "configuration error: n_grid:" in capsys.readouterr().err


def test_mu_curve_honours_tol_grad(tmp_path):
    from spintorus.cli import EXIT_OK, main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q_values": [1.8, 2.0], "n_grid": 8, "tol_grad": 1.0}))
    code = main(["mu-curve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "mu_curve_report.json").read_text())
    # A gradient tolerance of 1 stops the ascent far above the default 1e-8 * N.
    assert all(row["converged"] and 1e-3 < row["grad_norm"] < 1.0
               for row in report["mu_curve"])


def test_check_and_surface_share_branch_order_verdict(tmp_path):
    from spintorus.cli import EXIT_CHECK, main
    from spintorus.lattice import SpinStructure, make_lattice
    from spintorus.solver import constant_solution

    sol = constant_solution(make_lattice((1, 0), (0, 2)), SpinStructure(1, -1), 8)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sol.to_dict()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"zero_tol": 2.0}))  # every grid cell counts as a zero
    common = ["--solution", str(path), "--config", str(cfg)]
    assert main(["check", *common, "--out", str(tmp_path / "c")]) == EXIT_CHECK
    assert main(["surface", "--verify-only", *common, "--out", str(tmp_path / "s")]) == EXIT_CHECK
    surface = json.loads((tmp_path / "s" / "surface_report.json").read_text())
    surface_items = {item["name"]: item for item in surface["checks"]["checks"]}
    branch = _check_items(tmp_path / "c")["branch orders even"]
    assert branch == surface_items["branch orders even"]
    assert branch["passed"] is False


@pytest.mark.parametrize(
    "name, text, needle",
    [("missing.json", None, "missing.json"), ("list.json", "[1, 2]", "not a JSON object"),
     ("p.json", "p", "p.json: p:")],
    ids=["missing", "non-object", "field"],
)
def test_resume_bad_file_exits_2_naming_file_or_field(tmp_path, capsys, name, text, needle):
    from spintorus.cli import EXIT_VALIDATION, main
    from spintorus.lattice import SpinStructure, make_lattice
    from spintorus.solver import constant_solution

    path = tmp_path / name
    if text == "p":
        data = constant_solution(make_lattice((1, 0), (0, 2)), SpinStructure(1, -1), 8).to_dict()
        SOLUTION_DEFECTS["p"](data)
        text = json.dumps(data)
    if text is not None:
        path.write_text(text)
    code = main(["solve", "--resume", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: solution file {path}")
    assert needle in err


def test_surface_and_check_gate_closedness_at_tol_closed(tmp_path, capsys):
    from spintorus.cli import main
    from spintorus.fields import random_band_limited
    from spintorus.lattice import SpinStructure, make_lattice
    from spintorus.solver import constant_solution

    lat, spin = make_lattice((1, 0), (0, 1)), SpinStructure(1, -1)
    sol = constant_solution(lat, spin, 16)
    sol.phi = sol.phi + 1e-4 * random_band_limited(lat, spin, 16, np.random.default_rng(7))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sol.to_dict()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol_closed": 0.1}))
    common = ["--solution", str(path), "--config", str(cfg)]
    main(["check", *common, "--out", str(tmp_path / "c")])
    main(["surface", "--verify-only", *common, "--out", str(tmp_path / "s")])
    lines = [line for line in capsys.readouterr().out.splitlines() if "closedness" in line]
    surface = json.loads((tmp_path / "s" / "surface_report.json").read_text())
    surface_items = {item["name"]: item for item in surface["checks"]["checks"]}
    closed = _check_items(tmp_path / "c")["closedness residual"]
    assert closed == surface_items["closedness residual"]
    assert closed["tol"] == 0.1 and closed["passed"] is True and closed["value"] > 1e-5
    assert len(lines) == 2 and lines[0] == lines[1] and lines[0].startswith("[PASS]")


def test_resume_reports_the_spectrum_of_the_solution_torus(tmp_path):
    from spintorus.cli import EXIT_OK, main

    torus = ["--v1", "1 0", "--v2", "0 2", "--eps", "+1 -1"]
    assert main(["solve", *torus, "--grid", "16", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["spectrum", *torus, "--out", str(tmp_path / "a")]) == EXIT_OK
    # No --v1/--v2: the config torus is the unit square, lambda1 sqrt(area) = pi.
    assert main(["solve", "--resume", str(tmp_path / "a" / "solution.json"),
                 "--out", str(tmp_path / "b")]) == EXIT_OK
    resumed = json.loads((tmp_path / "b" / "solve_report.json").read_text())["spectrum"]
    direct = json.loads((tmp_path / "a" / "spectrum_report.json").read_text())["spectrum"]
    assert resumed["lambda1_sqrt_area"] == pytest.approx(math.pi / math.sqrt(2), rel=1e-12)
    assert resumed["lambda1_sqrt_area"] == pytest.approx(direct["lambda1_sqrt_area"], rel=1e-12)
    assert resumed["kernel_dim_complex"] == direct["kernel_dim_complex"]


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_generator_exits_2_naming_lattice(tmp_path, capsys, bad):
    from spintorus.cli import EXIT_VALIDATION, main

    argv = ["--v1", "1 0", "--v2", f"{bad} 2", "--eps", "+1 -1", "--out", str(tmp_path)]
    assert main(["solve", *argv]) == EXIT_VALIDATION
    assert "configuration error: lattice:" in capsys.readouterr().err


SKEWED_TORUS_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from spintorus.cli import main
sys.exit(main(["spectrum", "--v1", "1 0", "--v2", "0 1e-9", "--eps", "+1 -1",
               "--out", sys.argv[1]]))
"""


def test_very_skewed_torus_exits_2_naming_lattice(tmp_path):
    # Its first mode has |xi| ~ 5e8.  The address space is capped at 1 GiB so
    # that a mode-window search without bound ends in MemoryError at once
    # instead of exhausting the machine's memory.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", SKEWED_TORUS_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 2, result.stderr[-2000:]
    assert "configuration error: lattice: generators" in result.stderr


HEADER_DEFECTS = {
    "lattice-string": ("lattice", lambda data: data["lattice"].update(gamma1=["a", 0])),
    "lattice-null": ("lattice", lambda data: data["lattice"].update(gamma1=None)),
    "lattice-3-entries": ("lattice", lambda data: data["lattice"].update(gamma1=[1, 0, 0])),
    "lattice-bool": ("lattice", lambda data: data["lattice"].update(gamma1=[1, False])),
    "lambda-bool": ("lambda", lambda data: data.update({"lambda": True})),
    "spin": ("spin", lambda data: data["spin"].update(eps1=3)),
    "n_grid": ("n_grid", lambda data: data.update(n_grid="abc")),
    "residual": ("residual", lambda data: data.update(residual="0.0")),
    "norm_p": ("norm_p", lambda data: data.update(norm_p="x")),
    "trace": ("trace", lambda data: data.update(trace=5)),
    "trace-string": ("trace", lambda data: data.update(trace="x")),
    "meta": ("meta", lambda data: data.update(meta=5)),
    "plus-int": ("plus", lambda data: data.update(plus=5)),
}


def _defective_solution_file(tmp_path, defect):
    from spintorus.lattice import SpinStructure, make_lattice
    from spintorus.solver import constant_solution

    data = constant_solution(make_lattice((1, 0), (0, 2)), SpinStructure(1, -1), 8).to_dict()
    HEADER_DEFECTS[defect][1](data)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("command", ["check", "surface"])
@pytest.mark.parametrize("defect", sorted(HEADER_DEFECTS))
def test_malformed_header_exits_2_naming_field(tmp_path, capsys, command, defect):
    from spintorus.cli import EXIT_VALIDATION, main

    path = _defective_solution_file(tmp_path, defect)
    code = main([command, "--solution", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert f"s.json: {HEADER_DEFECTS[defect][0]}:" in capsys.readouterr().err


def test_check_of_lambda_whose_square_overflows_fails_with_a_report(tmp_path):
    from spintorus.cli import EXIT_CHECK, main
    from spintorus.lattice import SpinStructure, make_lattice
    from spintorus.solver import constant_solution

    data = constant_solution(make_lattice((1, 0), (0, 2)), SpinStructure(1, -1), 8).to_dict()
    data["lambda"] = 1e200
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--solution", str(path), "--out", str(out)]) == EXIT_CHECK
    report = json.loads((out / "check_report.json").read_text())
    items = {c["name"]: c for c in report["checks"]["checks"]}
    assert not report["checks"]["passed"] and items["nodal bound"]["note"] == "bound inf"
    assert "lambda" in items["residual"]["note"] and not items["residual"]["passed"]


@pytest.mark.parametrize("command", ["check --solution", "surface --solution", "solve --resume"])
def test_solution_verdict_compares_the_scale_invariant_lambda(tmp_path, command):
    """At p = 4 the solved lambda is already scale invariant: a torus of area 4
    reports its lambda, pi, below 2 sqrt(pi), as `spectrum` does for it."""
    from spintorus.cli import main
    from spintorus.lattice import SpinStructure, make_lattice
    from spintorus.solver import constant_solution

    sol = constant_solution(make_lattice((2, 0), (0, 2)), SpinStructure(1, -1), 16)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sol.to_dict()))
    out = tmp_path / "out"
    assert main([*command.split(), str(path), "--out", str(out)]) == 0
    name = command.split()[0]
    report = json.loads((out / f"{name}_report.json").read_text())
    lam = report["solution"]["lambda"] if name == "solve" else sol.lam
    assert report["threshold"]["lambda_sqrt_area"] == lam == pytest.approx(math.pi, rel=1e-9)
    assert report["threshold"]["below_threshold"] is True


@pytest.mark.parametrize("v1, v2", [("1 0", "0 2"), ("1 0", "0.3 1.4"), ("0.8 0.2", "-0.5 1.7")])
@pytest.mark.parametrize("eps1, eps2", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_swapped_generators_carry_their_holonomy_signs(tmp_path, v1, v2, eps1, eps2):
    from spintorus.cli import main

    def numbers(*argv):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        assert main(["spectrum", "--grid", "8", *argv, "--out", str(out)]) == 0
        report = json.loads((out / "spectrum_report.json").read_text())
        return report["spectrum"], report["numeric"], report["threshold"]

    ordered = numbers("--v1", v1, "--v2", v2, "--eps", f"{eps1:+d} {eps2:+d}")
    assert numbers("--v1", v2, "--v2", v1, "--eps", f"{eps2:+d} {eps1:+d}") == ordered


def test_resume_of_three_entry_generator_exits_2_naming_lattice(tmp_path, capsys):
    from spintorus.cli import EXIT_VALIDATION, main

    path = _defective_solution_file(tmp_path, "lattice-3-entries")
    assert main(["solve", "--resume", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "s.json: lattice: generators must be pairs" in capsys.readouterr().err


def test_solve_that_cannot_converge_exits_3_without_a_report(tmp_path, capsys):
    from spintorus.cli import EXIT_SOLVER, main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol_solve": 1e-30}))
    out = tmp_path / "out"
    assert main(["solve", "--grid", "8", "--config", str(cfg), "--out", str(out)]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith(
        "solver failure: continuation aborted at p=2.0: Newton did not converge"
    )
    assert not (out / "solve_report.json").exists()


def test_mu_curve_that_cannot_converge_exits_3_with_the_error_in_its_row(tmp_path):
    from spintorus.cli import EXIT_SOLVER, main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q_values": [2.0], "n_grid": 8, "tol_grad": 1e-30}))
    out = tmp_path / "out"
    assert main(["mu-curve", "--config", str(cfg), "--out", str(out)]) == EXIT_SOLVER
    (row,) = json.loads((out / "mu_curve_report.json").read_text())["mu_curve"]
    assert row["converged"] is False
    assert row["error"].startswith("no convergence")


def test_surface_of_a_field_that_is_not_closed_exits_4(tmp_path, capsys):
    from spintorus.cli import EXIT_CHECK, main
    from spintorus.fields import random_band_limited
    from spintorus.lattice import SpinStructure, make_lattice
    from spintorus.solver import constant_solution

    lat, spin = make_lattice((1, 0), (0, 1)), SpinStructure(1, -1)
    sol = constant_solution(lat, spin, 16)
    sol.phi = sol.phi + 1e-2 * random_band_limited(lat, spin, 16, np.random.default_rng(7))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sol.to_dict()))
    assert main(["surface", "--solution", str(path), "--out", str(tmp_path / "out")]) == EXIT_CHECK
    err = capsys.readouterr().err
    assert err.startswith("check failure: closedness residual ")
    assert "exceeds tol_closed=1.000e-05" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [("surface", "--copies", "3y1"), ("spectrum", "--eps", "+1"),
     ("spectrum", "--config", "/nonexistent/run.cfg"), ("spectrum", "--config", "utf16.cfg")],
    ids=["copies", "eps", "config-missing", "config-not-utf8"],
)
def test_malformed_flag_exits_2_naming_it(tmp_path, monkeypatch, capsys, command, flag, value):
    from spintorus.cli import EXIT_VALIDATION, main

    # A UTF-16 file opens with the byte order mark ff fe, which is not UTF-8.
    (tmp_path / "utf16.cfg").write_text('{"n_grid": 16}', encoding="utf-16")
    monkeypatch.chdir(tmp_path)
    argv = [command, flag, value, "--out", str(tmp_path / "out")]
    if command == "surface":
        argv += ["--solution", str(tmp_path / "missing.json")]
    assert main(argv) == EXIT_VALIDATION
    assert f"configuration error: {flag[2:]}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, flags, key",
    [
        ({"eps1": 3}, [], "eps1"),
        ({"q_values": [1.2]}, [], "q_values"),
        ({"q_values": [2.5]}, [], "q_values"),
        ({"v2": "0 0"}, [], "lattice"),
        ({"p_values": [2, 3]}, [], "p_values"),
        ({"tol_closed": 0}, [], "tol_closed"),
        ({"tol_cmc": -1}, [], "tol_cmc"),
        ({"copies": [0, 1]}, [], "copies"),
        ({"n_grid": 7}, [], "n_grid"),
        ({"n_grid": 514}, [], "n_grid"),
        (None, ["--grid", "7"], "n_grid"),
        (None, ["--copies", "0x1"], "copies"),
        ({"eps1": -1.5}, [], "eps1"),
        ({"n_grid": 8.7}, [], "n_grid"),
        ({"copies": [2.9, 1]}, [], "copies"),
        ({"eps2": True}, [], "eps2"),
        ({"out_dir": None}, [], "out_dir"),
        ({"tol_norm": None}, [], "tol_norm"),
        ({"tol_closed": None}, [], "tol_closed"),
        ({"tol_cmc": None}, [], "tol_cmc"),
        ({"zero_tol": None}, [], "zero_tol"),
        ({"tol_norm": 10**400}, [], "tol_norm"),
        ({"tol_norm": math.nan}, [], "tol_norm"),
        ({"p_values": [2, math.nan, 4]}, [], "p_values"),
        ({"p_values": [math.nan]}, [], "p_values"),
        ({"tol_cmc": True}, [], "tol_cmc"),
        ({"tol_solve": True}, [], "tol_solve"),
        ({"v1": [True, 0]}, [], "v1"),
        ({"p_values": [2, True, 4]}, [], "p_values"),
        ({"q_values": [True]}, [], "q_values"),
        ({"q_values": []}, [], "q_values"),
        ({"seed": -1}, [], "seed"),
        (None, ["--seed", "-1"], "seed"),
    ],
    ids=["eps1-3", "q-low", "q-high", "lattice-degenerate", "p-end", "tol-closed-0",
         "tol-cmc-negative", "copies-0", "n-grid-odd", "n-grid-large", "flag-grid-odd",
         "flag-copies-0", "eps1-fraction", "n-grid-fraction", "copies-fraction", "eps2-bool",
         "out-dir-null", "tol-norm-null", "tol-closed-null", "tol-cmc-null", "zero-tol-null",
         "tol-norm-overflow", "tol-norm-nan", "p-nan", "p-only-nan", "tol-cmc-bool",
         "tol-solve-bool", "v1-bool", "p-bool", "q-bool", "q-empty", "seed-negative",
         "flag-seed-negative"],
)
def test_every_settings_rule_exits_2_naming_its_key(tmp_path, capsys, config, flags, key):
    from spintorus.cli import EXIT_VALIDATION, main

    argv = ["surface", "--solution", str(tmp_path / "missing.json"), *flags]
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == EXIT_VALIDATION
    assert f"configuration error: {key}:" in capsys.readouterr().err


def test_out_dir_that_cannot_be_made_exits_2_naming_out_dir(tmp_path, capsys):
    from spintorus.cli import EXIT_VALIDATION, main

    (tmp_path / "afile").write_text("")
    code = main(["spectrum", "--grid", "8", "--out", str(tmp_path / "afile" / "sub")])
    assert code == EXIT_VALIDATION
    assert "configuration error: out_dir:" in capsys.readouterr().err


def test_null_solve_and_ascent_tolerances_take_their_defaults(tmp_path):
    from spintorus.cli import EXIT_OK, main

    path = tmp_path / "run.json"
    path.write_text(json.dumps({"tol_grad": None, "tol_solve": None, "n_grid": 8}))
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK


def test_solution_file_with_a_fractional_sign_exits_2_naming_spin(tmp_path, capsys):
    from spintorus.cli import EXIT_VALIDATION, main
    from spintorus.lattice import SpinStructure, make_lattice
    from spintorus.solver import constant_solution

    data = constant_solution(make_lattice((1, 0), (0, 2)), SpinStructure(1, -1), 8).to_dict()
    data["spin"]["eps1"] = 1.0
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    code = main(["check", "--solution", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert "s.json: spin: eps1:" in capsys.readouterr().err
