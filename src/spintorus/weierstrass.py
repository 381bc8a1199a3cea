"""Spinorial Weierstrass representation on the flat torus.

A solution phi = (phi_plus, phi_minus) of D phi = H |phi|^2 phi encodes a
periodic branched conformal immersion F of the universal cover into R^3
with constant mean curvature H.  The R^3-valued (0,1)-form is built from
the squares

    a1 = phi_plus^2 + conj(phi_minus)^2
    a2 = i (phi_plus^2 - conj(phi_minus)^2)
    a3 = 2 i phi_plus conj(phi_minus)

(coefficient functions of alpha = (a1, a2, a3) dzbar in the flat
trivialization; they are honestly lattice periodic because the holonomy
twist cancels in quadratic expressions).  The closed real 1-form is

    dF_k = -Im(a_k) dx1 + Re(a_k) dx2.

The phase and scale of this realization are frozen by one calibration: for
the explicit constant solution on the rectangle (1,0),(0,y) with holonomy
signs (+1,-1) the integral must reproduce the reference cylinder of radius
sqrt(y)/(2 pi), axis period of norm 1/sqrt(y), and mean curvature
+pi/sqrt(y); the conformal factor then satisfies |dF| = |phi|^2 exactly.

F splits into a linear part (whose evaluation on the generators gives the
period homomorphism) plus a lattice-periodic part integrated spectrally.
Mean curvature of exported meshes is measured with the cotangent formula;
the sign convention is H = -(Laplace F . n)/2 with the outward normal of
the counterclockwise parameter orientation, which makes the calibration
cylinder come out positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fields import SpinorField, mode_index_grid, pointwise_norm, squared_twist_grid
from .lattice import Lattice
from .report import CheckReport


#: verify_immersion gates on the relative deviation of |dF| from |phi|^2 and
#: the relative period additivity error.
CONFORMALITY_TOL = 1e-8
PERIOD_TOL = 1e-10
#: The cmc check skips vertices within this many grid cells of a branch point.
BRANCH_MARGIN = 3


class ClosednessError(RuntimeError):
    """d(Re alpha) too large: the 1-form does not integrate to a surface."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class OneFormField:
    """Coefficients of the R^3-valued (0,1)-form alpha = (a1, a2, a3) dzbar,
    stored as one complex (3, N, N) array `a` whose rows are a1, a2, a3."""

    lat: Lattice
    a: np.ndarray

    @property
    def n_grid(self) -> int:
        return self.a.shape[-1]

    def components(self):
        """The rows (a1, a2, a3) of `a`, as views."""
        return tuple(self.a)

    def conformal_factor(self) -> np.ndarray:
        """Pointwise |dF| = sqrt(sum |a_k|^2 / 2); equals |phi|^2 by construction."""
        total = sum(np.abs(a) ** 2 for a in self.components())
        return np.sqrt(total / 2.0)


@dataclass
class Immersion:
    """Grid immersion values of one fundamental domain plus its periods."""

    lat: Lattice
    F: np.ndarray  # (N, N, 3), F at x = (j/N) gamma1 + (l/N) gamma2, F(0) = 0
    V1: np.ndarray  # period over gamma1
    V2: np.ndarray  # period over gamma2
    tol_closed: float  # the closedness gate integration passed
    H: float | None = None
    branch_points: list = field(default_factory=list)  # (j, l, order)
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_grid(self) -> int:
        return self.F.shape[0]

    def at(self, j, l) -> np.ndarray:
        """F at integer grid indices (j, l) of the universal cover (broadcast):
        F[j mod N, l mod N] + (j div N) V1 + (l div N) V2."""
        n = self.n_grid
        return (
            self.F[j % n, l % n]
            + np.multiply.outer(j // n, self.V1)
            + np.multiply.outer(l // n, self.V2)
        )

    def period(self, n1: int, n2: int) -> np.ndarray:
        """Period homomorphism on n1 gamma1 + n2 gamma2 (additive by construction)."""
        return n1 * self.V1 + n2 * self.V2

    def summary(self) -> dict:
        """Periods, H, diagnostics and branch points as reports serialize them."""
        n = self.n_grid
        return {
            "periods": [list(map(float, self.V1)), list(map(float, self.V2))],
            "H": self.H,
            "diagnostics": self.diagnostics,
            "branch_points": [
                {"u": j / n, "v": l / n, "order": order} for j, l, order in self.branch_points
            ],
        }


def build_alpha(phi: SpinorField) -> OneFormField:
    tw = squared_twist_grid(phi.lat, phi.spin, phi.n_grid)
    p2 = phi.u[0] ** 2 * tw
    m2 = np.conj(phi.u[1]) ** 2 * np.conj(tw)
    a = np.stack([p2 + m2, 1j * (p2 - m2), 2j * phi.u[0] * np.conj(phi.u[1])])
    return OneFormField(phi.lat, a)


def _lattice_spectra(alpha: OneFormField):
    """Spectra of dF pulled back to lattice coordinates, dF_k = U_k ds + V_k dt.

    Returns (fft2(U), fft2(V)), each stacked over k as a (3, N, N) array.
    """
    g1, g2 = alpha.lat.gamma1, alpha.lat.gamma2
    u = -alpha.a.imag  # dx1 coefficient
    v = alpha.a.real  # dx2 coefficient
    return np.fft.fft2(u * g1[0] + v * g1[1]), np.fft.fft2(u * g2[0] + v * g2[1])


def _closedness_from_spectra(lat: Lattice, u_hat, v_hat) -> float:
    n = u_hat.shape[-1]
    mm, kk = mode_index_grid(n)
    r_hat = 2j * np.pi * (mm * v_hat - kk * u_hat)
    r = np.fft.ifft2(r_hat).real / lat.det()
    # One sum per component, added in component order: a fixed rounding order.
    total = sum(float(np.sum(rk**2)) for rk in r)
    return math.sqrt(lat.area / n**2 * total)


def closedness_residual(alpha: OneFormField) -> float:
    """L^2 norm of d(Re alpha), measured as a Euclidean-coordinate density.

    Zero analytically for exact solutions of D phi = H |phi|^2 phi, so the
    reported value is the discretization / solver residual.
    """
    return _closedness_from_spectra(alpha.lat, *_lattice_spectra(alpha))


def integrate_immersion(
    alpha: OneFormField, H: float | None = None, tol_closed: float = 1e-5,
    zero_tol: float = 1e-6,
) -> Immersion:
    """Integrate dF = Re alpha into F with F(0) = 0 and period vectors.

    The lattice-periodic coefficient functions split into mean plus
    oscillation; the oscillation integrates spectrally (mode division), the
    mean gives the linear part whose values on gamma1, gamma2 are the
    periods.  Refuses to integrate when the closedness residual exceeds
    tol_closed.
    """
    u_hat, v_hat = _lattice_spectra(alpha)
    res_closed = _closedness_from_spectra(alpha.lat, u_hat, v_hat)
    if not res_closed <= tol_closed:
        raise ClosednessError(
            f"closedness residual {res_closed:.3e} exceeds tol_closed={tol_closed:.3e}",
            res_closed,
        )
    n = alpha.n_grid
    mm, kk = mode_index_grid(n)
    denom = mm**2 + kk**2
    denom[0, 0] = 1.0
    lin = np.stack([u_hat[:, 0, 0].real, v_hat[:, 0, 0].real], axis=1) / n**2
    f_hat = (mm * u_hat + kk * v_hat) / (2j * np.pi * denom)
    f_hat[:, 0, 0] = 0.0
    per = np.fft.ifft2(f_hat).real
    F = np.moveaxis(per - per[:, :1, :1], 0, -1).copy()
    ss = np.arange(n)[:, None] / n
    tt = np.arange(n)[None, :] / n
    F += ss[..., None] * lin[:, 0] + tt[..., None] * lin[:, 1]
    mu = alpha.conformal_factor()
    imm = Immersion(
        lat=alpha.lat,
        F=F,
        V1=lin[:, 0].copy(),
        V2=lin[:, 1].copy(),
        H=H,
        branch_points=_detect_branch_points(mu, zero_tol),
        diagnostics={"closedness": res_closed},
        tol_closed=tol_closed,
    )
    return imm


# ---------------------------------------------------------------------------
# Branch points and spinor zeros


def _periodic_clusters(mask: np.ndarray) -> list[list[tuple[int, int]]]:
    """Connected components of a boolean grid with periodic wrap (8-neighbor)."""
    n0, n1 = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    clusters = []
    for j0, l0 in np.argwhere(mask).tolist():  # masked cells, row-major
        if seen[j0, l0]:
            continue
        stack = [(j0, l0)]
        seen[j0, l0] = True
        comp = []
        while stack:
            j, l = stack.pop()
            comp.append((j, l))
            for dj in (-1, 0, 1):
                for dl in (-1, 0, 1):
                    jj, ll = (j + dj) % n0, (l + dl) % n1
                    if mask[jj, ll] and not seen[jj, ll]:
                        seen[jj, ll] = True
                        stack.append((jj, ll))
        clusters.append(comp)
    return clusters


def _ring(center: tuple[int, int], radius: int, n: int):
    """Cells at Chebyshev distance `radius`, counterclockwise, wrapped."""
    cj, cl = center
    cells = []
    for dl in range(-radius, radius):
        cells.append((cj + radius, cl + dl))
    for dj in range(radius, -radius, -1):
        cells.append((cj + dj, cl + radius))
    for dl in range(radius, -radius, -1):
        cells.append((cj - radius, cl + dl))
    for dj in range(-radius, radius):
        cells.append((cj + dj, cl - radius))
    return [(j % n, l % n) for j, l in cells]


def _ring_mean(arr: np.ndarray, center, radius: int) -> float:
    vals = [arr[j, l] for j, l in _ring(center, radius, arr.shape[0])]
    return float(np.mean(vals))


def _zero_clusters(mu: np.ndarray, zero_tol: float) -> list:
    """(center, cells) of each periodic grid cluster where mu < zero_tol * max mu;
    the center is the cell of least mu.  Empty when mu vanishes identically."""
    top = float(mu.max())
    if top <= 0.0:
        return []
    return [
        (min(comp, key=lambda c: mu[c]), comp)
        for comp in _periodic_clusters(mu < zero_tol * top)
    ]


def _detect_branch_points(mu: np.ndarray, zero_tol: float) -> list:
    """Zeros of the conformal factor with vanishing order from a 5x5 fit."""
    pts = []
    for center, _ in _zero_clusters(mu, zero_tol):
        s1 = _ring_mean(mu, center, 1)
        s2 = _ring_mean(mu, center, 2)
        if s1 <= 0.0 or s2 <= 0.0:
            order = 0
        else:
            order = int(round(math.log(s2 / s1) / math.log(2.0)))
        pts.append((center[0], center[1], order))
    return pts


def _winding(values: np.ndarray) -> int:
    """Winding number of a complex loop sample; 0 when the loop is unreliable."""
    mags = np.abs(values)
    if mags.min() <= 1e-3 * mags.max() or mags.max() == 0.0:
        return 0
    args = np.angle(values)
    diffs = np.diff(np.append(args, args[0]))
    diffs = (diffs + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(diffs.sum() / (2.0 * np.pi)))


@dataclass
class ZeroCount:
    zeros: list  # (j, l, order)
    bound: float
    ok: bool


def count_zeros(phi: SpinorField, lam: float, zero_tol: float = 1e-6) -> ZeroCount:
    """Detected spinor zeros against the torus's Gauss-Bonnet bound lambda^2/(4 pi).

    A grid cluster below zero_tol * max|phi| counts as a zero when either
    half-spinor component has nonzero winding around it.
    """
    n = phi.n_grid
    zeros = []
    for center, comp in _zero_clusters(pointwise_norm(phi.u), zero_tol):
        extent = max(max(abs(j - center[0]), abs(l - center[1])) for j, l in comp)
        radius = min(max(2, extent + 2), n // 2 - 1)
        ring = _ring(center, radius, n)
        w_plus = _winding(np.array([phi.u[0][c] for c in ring]))
        w_minus = _winding(np.array([phi.u[1][c] for c in ring]))
        order = max(abs(w_plus), abs(w_minus))
        if order >= 1:
            zeros.append((center[0], center[1], order))
    try:
        bound = lam**2 / (4.0 * np.pi)
    except OverflowError:  # a finite lambda whose square overflows a double
        bound = math.inf
    return ZeroCount(zeros, bound, ok=len(zeros) <= bound)


# ---------------------------------------------------------------------------
# Discrete mean curvature on the periodic grid mesh

_NEIGHBOR_CYCLE = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def _cot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cot of the angle between vector fields a, b (last axis 3)."""
    dots = np.sum(a * b, axis=-1)
    cross = np.linalg.norm(np.cross(a, b), axis=-1)
    return dots / np.maximum(cross, 1e-300)


def discrete_mean_curvature(imm: Immersion):
    """Signed cotangent-formula mean curvature at every grid vertex.

    Returns (h_signed, normals); sign convention H = -(Lap F . n)/2 with the
    counterclockwise parameter normal (calibration cylinder is positive).
    """
    n = imm.n_grid
    v = imm.F
    idx = np.arange(-1, n + 1)
    collar = imm.at(idx[:, None], idx[None, :])  # the grid plus a one-cell collar
    nbrs = [collar[1 + dj : n + 1 + dj, 1 + dl : n + 1 + dl] for dj, dl in _NEIGHBOR_CYCLE]
    shape = v.shape[:2]
    lap = np.zeros_like(v)
    area = np.zeros(shape)
    normal = np.zeros_like(v)
    k = len(nbrs)
    for i in range(k):
        p_prev = nbrs[(i - 1) % k]
        p_i = nbrs[i]
        p_next = nbrs[(i + 1) % k]
        cot_a = _cot(v - p_prev, p_i - p_prev)
        cot_b = _cot(v - p_next, p_i - p_next)
        lap += ((cot_a + cot_b)[..., None]) * (p_i - v)
        tri_cross = np.cross(p_i - v, p_next - v)
        area += 0.5 * np.linalg.norm(tri_cross, axis=-1)
        normal += tri_cross
    vertex_area = area / 3.0
    lap /= np.maximum(2.0 * vertex_area, 1e-300)[..., None]
    norm_len = np.linalg.norm(normal, axis=-1, keepdims=True)
    normal = normal / np.maximum(norm_len, 1e-300)
    h_signed = -0.5 * np.sum(lap * normal, axis=-1)
    return h_signed, normal


def _branch_mask(imm: Immersion) -> np.ndarray:
    """True on vertices within BRANCH_MARGIN cells of a branch point."""
    n = imm.n_grid
    mask = np.zeros((n, n), dtype=bool)
    for j, l, _ in imm.branch_points:
        for dj in range(-BRANCH_MARGIN, BRANCH_MARGIN + 1):
            for dl in range(-BRANCH_MARGIN, BRANCH_MARGIN + 1):
                mask[(j + dj) % n, (l + dl) % n] = True
    return mask


# ---------------------------------------------------------------------------
# Verification


def _spectral_jacobian(imm: Immersion):
    """Euclidean-coordinate derivative matrices d F / d x (N, N, 3, 2)."""
    n = imm.n_grid
    mm, kk = mode_index_grid(n)
    # subtract the linear part, differentiate the periodic part spectrally
    ss = np.arange(n)[:, None] / n
    tt = np.arange(n)[None, :] / n
    v1, v2 = imm.V1[:, None, None], imm.V2[:, None, None]  # periods, one row per component
    per = np.ascontiguousarray(np.moveaxis(imm.F, -1, 0)) - ss * v1 - tt * v2
    f_hat = np.fft.fft2(per)
    d_s = np.fft.ifft2(2j * np.pi * mm * f_hat).real + v1
    d_t = np.fft.ifft2(2j * np.pi * kk * f_hat).real + v2
    # x = G^T (s, t), G rows = generators, so dF/dx = [d_s F, d_t F] (G^T)^{-1}
    g_inv_t = np.linalg.inv(imm.lat.generator_matrix()).T
    return np.stack([np.moveaxis(d, 0, -1) for d in (d_s, d_t)], axis=-1) @ g_inv_t


def verify_immersion(
    imm: Immersion,
    phi: SpinorField,
    H: float | None = None,
    cmc_tol: float = 0.01,
) -> CheckReport:
    """Check conformality, closedness (against the tol_closed integration passed),
    CMC (within cmc_tol), branch orders, and period additivity."""
    if phi.n_grid != imm.n_grid:
        raise ValueError("grid mismatch between immersion and spinor field")
    if H is None:
        H = imm.H
    checks = CheckReport()

    jac = _spectral_jacobian(imm)
    target = pointwise_norm(phi.u) ** 2
    top = float(target.max())
    s1 = np.linalg.norm(jac[..., 0], axis=-1)
    s2 = np.linalg.norm(jac[..., 1], axis=-1)
    ortho = np.sum(jac[..., 0] * jac[..., 1], axis=-1)
    dev = max(
        float(np.max(np.abs(s1 - target))),
        float(np.max(np.abs(s2 - target))),
        float(np.max(np.abs(ortho))) / max(top, 1e-300),
    )
    conf = dev / max(top, 1e-300)
    checks.add("conformality |dF|=|phi|^2", conf, CONFORMALITY_TOL, conf < CONFORMALITY_TOL)

    closed = imm.diagnostics["closedness"]
    checks.add("closedness residual", closed, imm.tol_closed, closed <= imm.tol_closed)

    h_signed, _ = discrete_mean_curvature(imm)
    good = ~_branch_mask(imm)
    cmc_err, note = math.nan, ""
    if H is None:
        note = "no H"
    elif not np.any(good):
        note = "every vertex lies near a branch point"
    else:
        scale = max(abs(H), 1e-300)
        rel = np.abs(h_signed[good] - H) / scale if H != 0 else np.abs(h_signed[good])
        cmc_err = float(np.median(rel))
    checks.add("cmc median relative error", cmc_err, cmc_tol, cmc_err < cmc_tol, note)

    orders_even = all(order % 2 == 0 and order > 0 for _, _, order in imm.branch_points)
    checks.add(
        "branch orders even",
        float(len(imm.branch_points)),
        math.inf,
        orders_even or not imm.branch_points,
        f"orders={[o for _, _, o in imm.branch_points]}",
    )

    diag = _diagonal_period(imm, jac)
    add_err = float(np.linalg.norm(diag - (imm.V1 + imm.V2)))
    scale = max(np.linalg.norm(imm.V1) + np.linalg.norm(imm.V2), 1.0)
    checks.add("period additivity", add_err / scale, PERIOD_TOL, add_err / scale < PERIOD_TOL)

    imm.diagnostics.update({"conformality": conf, "cmc_median_err": cmc_err})
    return checks


def _diagonal_period(imm: Immersion, jac: np.ndarray) -> np.ndarray:
    """Period over the diagonal loop gamma1 + gamma2 by direct line quadrature.

    `jac` is `_spectral_jacobian(imm)`.
    """
    n = imm.n_grid
    gamma = np.array(imm.lat.gamma1) + np.array(imm.lat.gamma2)
    idx = np.arange(n)
    samples = jac[idx, idx] @ gamma  # dF(gamma) along the diagonal
    return samples.sum(axis=0) / n


# ---------------------------------------------------------------------------
# Mesh export


def export_mesh(imm: Immersion, copies: tuple[int, int], path, lam: float | None = None):
    """Write a triangulated OBJ tiling plus a JSON sidecar.

    Vertices are F(x) + m V1 + l V2 on a (k1 N + 1) x (k2 N + 1) grid (the +1
    closes the seams), two counterclockwise triangles per grid cell, 1-based
    OBJ indices.  The sidecar records periods, H, lambda, diagnostics, and
    branch points.  Returns (obj_path, sidecar_path).
    """
    k1, k2 = copies
    if k1 < 1 or k2 < 1:
        raise ValueError("tiling counts must be >= 1")
    n = imm.n_grid
    rows = k1 * n + 1
    cols = k2 * n + 1
    verts = imm.at(np.arange(rows)[:, None], np.arange(cols)[None, :]).reshape(rows, 3 * cols)
    # Cell (a, b) gets triangles (v00, v10, v11) and (v00, v11, v01), where
    # v00 = a cols + b + 1 is the 1-based id of grid vertex (a, b).
    v00 = np.arange(rows - 1)[:, None] * cols + np.arange(cols - 1)[None, :] + 1
    faces = np.stack(
        [v00, v00 + cols, v00 + cols + 1, v00, v00 + cols + 1, v00 + 1], axis=-1
    ).reshape(rows - 1, -1)
    # One %-format per grid row; %r of a Python float is its shortest repr.
    v_row = "v %r %r %r\n" * cols
    f_row = "f %d %d %d\n" * (2 * (cols - 1))
    obj_path = str(path)
    try:
        with open(obj_path, "w", encoding="utf-8") as fh:
            fh.write("# spintorus periodic immersion mesh\n")
            for row in verts:
                fh.write(v_row % tuple(row.tolist()))
            for row in faces:
                fh.write(f_row % tuple(row.tolist()))
        sidecar_path = str(Path(obj_path).with_suffix(".json"))
        sidecar = {
            **imm.summary(),
            "lambda": lam if lam is not None else imm.H,
            "copies": [k1, k2],
            "n_grid": n,
        }
        with open(sidecar_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, sort_keys=True, indent=1)
    except OSError as exc:
        raise OSError(f"mesh export to {obj_path} failed: {exc}") from exc
    return obj_path, sidecar_path


def load_obj_vertices(path) -> np.ndarray:
    """Vertex array of an ASCII OBJ file (for round-trip checks)."""
    verts = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append([float(tok) for tok in line.split()[1:4]])
    return np.array(verts)


def rigid_align(src: np.ndarray, dst: np.ndarray):
    """Best O(3)+translation alignment of src onto dst (points in rows).

    Returns (aligned_src, max_deviation).  Reflections are allowed because
    the reference immersions are defined up to P in O(3).
    """
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    h = (src - mu_s).T @ (dst - mu_d)
    u, _, vt = np.linalg.svd(h)
    rot = (u @ vt).T
    aligned = (src - mu_s) @ rot.T + mu_d
    dev = float(np.max(np.linalg.norm(aligned - dst, axis=1)))
    return aligned, dev
