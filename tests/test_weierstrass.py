import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from spintorus.fields import (
    SpinorField,
    pointwise_norm,
    random_band_limited,
    squared_twist_grid,
)
from spintorus.lattice import SpinStructure, make_lattice
from spintorus.solver import constant_solution
from spintorus.weierstrass import (
    ClosednessError,
    build_alpha,
    count_zeros,
    discrete_mean_curvature,
    export_mesh,
    integrate_immersion,
    load_obj_vertices,
    rigid_align,
    verify_immersion,
)

SQ = make_lattice((1, 0), (0, 1))
NT = SpinStructure(1, -1)
TRIV = SpinStructure.trivial()


def synthetic_one_zero_field(n=32):
    """phi_plus winds once around (0,0); phi_minus kills the other sign zeros."""
    j = np.arange(n) / n
    ss, tt = np.meshgrid(j, j, indexing="ij")
    plus = np.sin(2 * np.pi * ss) + 1j * np.sin(2 * np.pi * tt)
    minus = (2.0 - np.cos(2 * np.pi * ss) - np.cos(2 * np.pi * tt)).astype(complex)
    return SpinorField(SQ, TRIV, plus, minus)


def test_alpha_of_zero_field():
    alpha = build_alpha(SpinorField.from_array(SQ, NT, np.zeros((2, 8, 8), complex)))
    assert all(np.all(a == 0) for a in alpha.components())


def test_alpha_parallel_spinor_gives_affine_plane():
    n = 16
    c = 0.8
    phi = SpinorField(SQ, TRIV, np.full((n, n), c, complex), np.zeros((n, n), complex))
    imm = integrate_immersion(build_alpha(phi), H=0.0)
    assert imm.diagnostics["closedness"] < 1e-13
    # affine image: both periods nonzero, all normals identical, flat
    assert np.linalg.norm(imm.V1) > 0 and np.linalg.norm(imm.V2) > 0
    h, normals = discrete_mean_curvature(imm)
    assert np.max(np.abs(h)) < 1e-6
    assert np.max(np.linalg.norm(normals - normals[0, 0], axis=-1)) < 1e-10


def test_alpha_conformal_factor_identity(rng):
    phi = random_band_limited(SQ, SpinStructure(-1, -1), 16, rng)
    alpha = build_alpha(phi)
    assert np.allclose(alpha.conformal_factor(), pointwise_norm(phi.u) ** 2, atol=1e-12)


def test_alpha_sign_gauge(rng):
    phi = random_band_limited(SQ, NT, 8, rng)
    a = build_alpha(phi)
    b = build_alpha(-1.0 * phi)
    for x, y in zip(a.components(), b.components()):
        assert np.array_equal(x, y)


def test_closedness_detects_non_solutions(rng):
    sol = constant_solution(SQ, NT, 32)
    assert integrate_immersion(build_alpha(sol.phi)).diagnostics["closedness"] < 1e-10
    junk = random_band_limited(SQ, NT, 32, rng)
    with pytest.raises(ClosednessError) as excinfo:
        integrate_immersion(build_alpha(junk))
    assert excinfo.value.residual > 0.1


def test_integrate_refuses_non_closed(rng):
    junk = random_band_limited(SQ, NT, 16, rng)
    with pytest.raises(ClosednessError):
        integrate_immersion(build_alpha(junk))


def test_zero_alpha_integrates_to_origin():
    zero = SpinorField.from_array(SQ, NT, np.zeros((2, 8, 8), complex))
    imm = integrate_immersion(build_alpha(zero), H=0.0)
    assert np.all(imm.F == 0)
    assert np.all(imm.V1 == 0) and np.all(imm.V2 == 0)


@pytest.mark.parametrize("y", [1.0, 2.0])
def test_cylinder_geometry(y):
    n = 64
    lat = make_lattice((1, 0), (0, y))
    sol = constant_solution(lat, NT, n)
    assert sol.lam == pytest.approx(math.pi / math.sqrt(y), rel=1e-12)
    imm = integrate_immersion(build_alpha(sol.phi), H=sol.lam)
    assert np.linalg.norm(imm.V1) == pytest.approx(1.0 / math.sqrt(y), abs=1e-12)
    assert np.linalg.norm(imm.V2) < 1e-12
    # radial distance from the axis is the cylinder radius
    axis = imm.V1 / np.linalg.norm(imm.V1)
    pts = imm.F.reshape(-1, 3)
    centered = pts - pts.mean(axis=0)
    radial = centered - np.outer(centered @ axis, axis)
    r = np.linalg.norm(radial, axis=1)
    assert np.max(np.abs(r - math.sqrt(y) / (2 * math.pi))) < 1e-12


def test_verify_immersion_cylinder():
    lat = make_lattice((1, 0), (0, 2))
    sol = constant_solution(lat, NT, 64)
    imm = integrate_immersion(build_alpha(sol.phi), H=sol.lam)
    report = verify_immersion(imm, sol.phi, H=sol.lam)
    assert report.passed
    by_name = {item.name: item for item in report.items}
    assert by_name["conformality |dF|=|phi|^2"].value < 1e-10
    assert by_name["cmc median relative error"].value < 1e-4
    assert by_name["period additivity"].value < 1e-12


def test_period_homomorphism_additivity():
    n = 32
    sol = constant_solution(make_lattice((1, 0), (0, 2)), NT, n)
    imm = integrate_immersion(build_alpha(sol.phi), H=sol.lam)
    assert np.allclose(imm.at(n, n), imm.V1 + imm.V2, atol=1e-15)
    assert np.allclose(imm.at(2 * n, -3 * n), 2 * imm.V1 - 3 * imm.V2, atol=1e-15)


def test_branch_point_detected_with_even_order():
    phi = synthetic_one_zero_field()
    alpha = build_alpha(phi)
    # not a solution: force integration to inspect the branch structure
    imm = integrate_immersion(alpha, H=None, tol_closed=math.inf)
    assert len(imm.branch_points) == 1
    j, l, order = imm.branch_points[0]
    assert (j, l) == (0, 0)
    assert order == 2


def _cmc_item(report):
    return next(item for item in report.items if item.name == "cmc median relative error")


def test_cmc_item_names_branch_points_when_every_vertex_is_near_one():
    phi = synthetic_one_zero_field(n=6)
    imm = integrate_immersion(build_alpha(phi), H=1.0, tol_closed=math.inf)
    item = _cmc_item(verify_immersion(imm, phi, H=1.0))
    assert math.isnan(item.value) and not item.passed
    assert item.note == "every vertex lies near a branch point"


def test_cmc_item_says_no_h_without_a_target_curvature():
    sol = constant_solution(SQ, NT, 16)
    imm = integrate_immersion(build_alpha(sol.phi))
    item = _cmc_item(verify_immersion(imm, sol.phi))
    assert math.isnan(item.value) and not item.passed
    assert item.note == "no H"


def test_count_zeros_synthetic_field():
    phi = synthetic_one_zero_field()
    zc = count_zeros(phi, lam=4.0)
    assert len(zc.zeros) == 1
    assert zc.bound >= 1.0
    assert zc.ok


def test_count_zeros_constant_solution():
    sol = constant_solution(SQ, NT, 32)
    zc = count_zeros(sol.phi, sol.lam)
    assert zc.zeros == []
    assert zc.bound == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert zc.ok


def test_count_zeros_nowhere_small(rng):
    phi = random_band_limited(SQ, NT, 16, rng)
    lifted = SpinorField(SQ, NT, phi.u[0] + 10.0, phi.u[1])
    assert count_zeros(lifted, lam=1.0).zeros == []


def test_export_mesh_roundtrip(tmp_path):
    n = 32
    lat = make_lattice((1, 0), (0, 1))
    sol = constant_solution(lat, NT, n)
    imm = integrate_immersion(build_alpha(sol.phi), H=sol.lam)
    obj_path, sidecar = export_mesh(imm, (3, 1), tmp_path / "cyl.obj", lam=sol.lam)
    verts = load_obj_vertices(obj_path)
    assert len(verts) == (3 * n + 1) * (n + 1)
    import json

    meta = json.loads((tmp_path / "cyl.json").read_text())
    assert meta["H"] == pytest.approx(sol.lam)
    assert len(meta["periods"]) == 2
    # faces reference valid 1-based vertex ids
    with open(obj_path) as fh:
        for line in fh:
            if line.startswith("f "):
                assert all(1 <= int(t) <= len(verts) for t in line.split()[1:])
                break


def test_export_mesh_sidecar_lands_beside_the_mesh(tmp_path):
    # A dot in a directory name is not the mesh's suffix.
    sol = constant_solution(make_lattice((1, 0), (0, 1)), NT, 8)
    imm = integrate_immersion(build_alpha(sol.phi), H=sol.lam)
    (tmp_path / "runs.v2").mkdir()
    _, sidecar = export_mesh(imm, (1, 1), tmp_path / "runs.v2" / "mesh")
    assert sidecar == str(tmp_path / "runs.v2" / "mesh.json")
    assert sorted(p.name for p in tmp_path.rglob("*.json")) == ["mesh.json"]


def _per_line_obj(imm, copies):
    """Reference OBJ writer: one f-string per vertex and per face."""
    k1, k2 = copies
    n = imm.n_grid
    rows = k1 * n + 1
    cols = k2 * n + 1
    jg, lg = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    verts = (
        imm.F[jg % n, lg % n]
        + (jg // n)[..., None] * imm.V1[None, None, :]
        + (lg // n)[..., None] * imm.V2[None, None, :]
    ).reshape(-1, 3)

    def vid(a, b):
        return a * cols + b + 1

    lines = ["# spintorus periodic immersion mesh"]
    lines += [f"v {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for p in verts]
    for a in range(rows - 1):
        for b in range(cols - 1):
            lines.append(f"f {vid(a, b)} {vid(a + 1, b)} {vid(a + 1, b + 1)}")
            lines.append(f"f {vid(a, b)} {vid(a + 1, b + 1)} {vid(a, b + 1)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _skew_surface(n=16):
    sol = constant_solution(make_lattice((1, 0), (0.3, 1.1)), SpinStructure(-1, 1), n)
    return integrate_immersion(build_alpha(sol.phi), H=sol.lam)


def _assert_bytes_match_per_line_writer(imm, copies, path):
    obj_path, _ = export_mesh(imm, copies, path)
    with open(obj_path, "rb") as fh:
        text = fh.read()
    assert text == _per_line_obj(imm, copies)
    return text.decode("ascii")


@pytest.mark.parametrize("copies", [(1, 1), (2, 2), (3, 1), (1, 3)])
def test_export_mesh_bytes_match_per_line_writer(tmp_path, copies):
    # 289, 1089 and 833 vertices: the ids cross 10, 100 and 1000.
    _assert_bytes_match_per_line_writer(_skew_surface(), copies, tmp_path / "skew.obj")


def test_export_mesh_bytes_match_without_repeated_coordinates(tmp_path, rng):
    imm = _skew_surface()
    noisy = dataclasses.replace(
        imm, F=imm.F + 1e-3 * rng.standard_normal(imm.F.shape),
        V1=np.array([0.7123, -0.2291, 0.3187]), V2=np.array([0.1377, 0.9041, -0.4423]),
    )
    text = _assert_bytes_match_per_line_writer(noisy, (3, 1), tmp_path / "noisy.obj")
    coords = [line.split()[1:] for line in text.splitlines() if line.startswith("v ")]
    assert len({c for line in coords for c in line}) == 3 * len(coords)


PLANTED = [-0.0, 0.0, 1e-05, 1e16, 5e-324, -2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308]


@pytest.mark.parametrize("copies", [(1, 1), (2, 2)])
def test_export_mesh_bytes_match_on_planted_coordinates(tmp_path, copies):
    imm = _skew_surface(8)
    F = imm.F.copy()
    F.reshape(-1)[5 * np.arange(len(PLANTED))] = PLANTED  # x, z, y, x, z, y, x, z
    # Periods of -0.0 in x keep the planted -0.0 there on every copy.
    planted = dataclasses.replace(imm, F=F, V1=np.array([-0.0, 0.0, 0.25]),
                                  V2=np.array([-0.0, 0.5, -0.0]))
    text = _assert_bytes_match_per_line_writer(planted, copies, tmp_path / "planted.obj")
    assert {repr(value) for value in PLANTED} <= set(text.split())


def test_export_mesh_peak_memory_is_a_few_vertex_arrays(tmp_path):
    n = 160
    sol = constant_solution(make_lattice((1, 0), (0, 1.3)), NT, n)
    imm = integrate_immersion(build_alpha(sol.phi), H=sol.lam)
    vertex_bytes = (3 * n + 1) * (n + 1) * 3 * 8
    tracemalloc.start()
    try:
        export_mesh(imm, (3, 1), tmp_path / "cyl.obj")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * vertex_bytes


def test_exported_cylinder_matches_analytic_model(tmp_path):
    n = 32
    y = 1.0
    sol = constant_solution(make_lattice((1, 0), (0, y)), NT, n)
    imm = integrate_immersion(build_alpha(sol.phi), H=sol.lam)
    obj_path, _ = export_mesh(imm, (1, 1), tmp_path / "c.obj")
    verts = load_obj_vertices(obj_path)
    r = math.sqrt(y) / (2 * math.pi)
    jj, ll = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    model = np.stack(
        [r * np.cos(2 * np.pi * ll / n), r * np.sin(2 * np.pi * ll / n), (jj / n) / math.sqrt(y)],
        axis=-1,
    ).reshape(-1, 3)
    _, dev = rigid_align(model, verts)
    assert dev < 1e-4


def test_rigid_align_recovers_random_motion(rng):
    pts = rng.standard_normal((40, 3))
    theta = 0.7
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, -1.0],  # allow a reflection
        ]
    )
    moved = pts @ rot.T + np.array([0.3, -1.2, 2.0])
    _, dev = rigid_align(pts, moved)
    assert dev < 1e-12


def test_skewed_lattice_pipeline_verifies():
    # non-rectangular generators exercise the full jacobian bookkeeping
    lat = make_lattice((1, 0), (0.5, 0.9))
    sol = constant_solution(lat, SpinStructure(-1, -1), 64)
    imm = integrate_immersion(build_alpha(sol.phi), H=sol.lam)
    report = verify_immersion(imm, sol.phi, H=sol.lam)
    assert report.passed, report.summary_lines()


def test_image_fundamental_domain_area_is_one():
    # area of the image fundamental domain = integral of |dF|^2 = ||phi||_4^4 = 1
    for y in (1.0, 2.0):
        lat = make_lattice((1, 0), (0, y))
        sol = constant_solution(lat, NT, 32)
        alpha = build_alpha(sol.phi)
        mu = alpha.conformal_factor()
        area = float((lat.area / 32**2) * np.sum(mu**2))
        assert area == pytest.approx(1.0, abs=1e-12)


def test_cmc_error_small_under_refinement():
    lat = make_lattice((1, 0), (0, 2))
    errs = []
    for n in (32, 64, 128):
        sol = constant_solution(lat, NT, n)
        imm = integrate_immersion(build_alpha(sol.phi), H=sol.lam)
        h_signed, _ = discrete_mean_curvature(imm)
        errs.append(float(np.median(np.abs(h_signed - sol.lam))) / sol.lam)
    # the cotangent formula is exact on these structured cylinder meshes,
    # so all three levels sit at round-off
    assert max(errs) < 1e-10


def test_export_mesh_rejects_bad_copies(tmp_path):
    sol = constant_solution(SQ, NT, 16)
    imm = integrate_immersion(build_alpha(sol.phi), H=sol.lam)
    with pytest.raises(ValueError):
        export_mesh(imm, (0, 1), tmp_path / "x.obj")


def test_zeroing_the_twist_grid_leaves_alpha_intact(rng):
    lat = make_lattice((1.0, 0.0), (0.29, 1.31))  # a torus no other test builds
    spin = SpinStructure(-1, 1)
    phi = random_band_limited(lat, spin, 8, rng)
    before = build_alpha(phi).a
    squared_twist_grid(lat, spin, 8)[...] = 0.0
    assert np.array_equal(build_alpha(phi).a, before)
