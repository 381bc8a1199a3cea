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

from .fields import SpinorField, _fft2, _ifft2, mode_index_grid, pointwise_norm, squared_twist_grid
from .lattice import Lattice
from .report import CheckReport


#: verify_immersion gates on the relative deviation of |dF| from |phi|^2 and
#: the relative period additivity error.
CONFORMALITY_TOL = 1e-8
PERIOD_TOL = 1e-10
#: The cmc check skips vertices within this many grid cells of a branch point.
BRANCH_MARGIN = 3
#: Lines per block of the OBJ writer: bounds its buffers, not its output.
_BLOCK = 4096


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


def integrate_immersion(
    alpha: OneFormField, H: float | None = None, tol_closed: float = 1e-5,
    zero_tol: float = 1e-6,
) -> Immersion:
    """Integrate dF = Re alpha into F with F(0) = 0 and period vectors.

    The lattice-periodic coefficient functions split into mean plus
    oscillation; the oscillation integrates spectrally (mode division), the
    mean gives the linear part whose values on gamma1, gamma2 are the
    periods.  The closedness residual, the L^2 norm of d(Re alpha) as a
    Euclidean density (zero for exact solutions), is diagnostics["closedness"];
    above tol_closed integration refuses with a ClosednessError carrying it.
    """
    lat = alpha.lat
    g1, g2 = lat.gamma1, lat.gamma2
    u = -alpha.a.imag  # dx1 coefficient
    v = alpha.a.real  # dx2 coefficient
    # dF pulled back to lattice coordinates, dF_k = U_k ds + V_k dt, stacked over k
    u_hat = _fft2(u * g1[0] + v * g1[1])
    v_hat = _fft2(u * g2[0] + v * g2[1])
    n = u_hat.shape[-1]
    mm, kk = mode_index_grid(n)
    r = _ifft2(2j * np.pi * (mm * v_hat - kk * u_hat)).real / lat.det()
    # One sum per component, added in component order: a fixed rounding order.
    res_closed = math.sqrt(lat.area / n**2 * sum(float(np.sum(rk**2)) for rk in r))
    if not res_closed <= tol_closed:
        raise ClosednessError(
            f"closedness residual {res_closed:.3e} exceeds tol_closed={tol_closed:.3e}",
            res_closed,
        )
    denom = mm**2 + kk**2
    denom[0, 0] = 1.0
    lin = np.stack([u_hat[:, 0, 0].real, v_hat[:, 0, 0].real], axis=1) / n**2
    f_hat = (mm * u_hat + kk * v_hat) / (2j * np.pi * denom)
    f_hat[:, 0, 0] = 0.0
    per = _ifft2(f_hat).real
    F = np.moveaxis(per - per[:, :1, :1], 0, -1).copy()
    ss = np.arange(n)[:, None] / n
    tt = np.arange(n)[None, :] / n
    F += ss[..., None] * lin[:, 0] + tt[..., None] * lin[:, 1]
    return Immersion(
        lat=lat, F=F, V1=lin[:, 0].copy(), V2=lin[:, 1].copy(), H=H, tol_closed=tol_closed,
        branch_points=_detect_branch_points(alpha.conformal_factor(), zero_tol),
        diagnostics={"closedness": res_closed},
    )


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
        s1, s2 = (
            float(np.mean([mu[c] for c in _ring(center, r, mu.shape[0])])) for r in (1, 2)
        )
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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b of component-major vector fields (first axis 3), summed in component order."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b of component-major vector fields, with np.cross's products."""
    return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _cot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cot of the angle between component-major vector fields a, b."""
    cross = _cross(a, b)
    return _dot(a, b) / np.maximum(np.sqrt(_dot(cross, cross)), 1e-300)


def discrete_mean_curvature(imm: Immersion):
    """Signed cotangent-formula mean curvature at every grid vertex.

    Returns (h_signed, normals (N, N, 3)); sign convention H = -(Lap F . n)/2 with
    the counterclockwise parameter normal (calibration cylinder is positive).
    """
    n = imm.n_grid
    v = np.moveaxis(imm.F, -1, 0)
    idx = np.arange(-1, n + 1)
    collar = np.moveaxis(imm.at(idx[:, None], idx[None, :]), -1, 0)  # grid and one-cell collar
    nbrs = [collar[:, 1 + dj : n + 1 + dj, 1 + dl : n + 1 + dl] for dj, dl in _NEIGHBOR_CYCLE]
    lap, area, normal = np.zeros((3, n, n)), np.zeros((n, n)), np.zeros((3, n, n))
    for p_prev, p_i, p_next in zip(nbrs[-1:] + nbrs[:-1], nbrs, nbrs[1:] + nbrs[:1]):
        cot_a = _cot(v - p_prev, p_i - p_prev)
        cot_b = _cot(v - p_next, p_i - p_next)
        lap += (cot_a + cot_b) * (p_i - v)
        tri_cross = _cross(p_i - v, p_next - v)
        area += 0.5 * np.sqrt(_dot(tri_cross, tri_cross))
        normal += tri_cross
    vertex_area = area / 3.0
    lap /= np.maximum(2.0 * vertex_area, 1e-300)
    normal = normal / np.maximum(np.sqrt(_dot(normal, normal)), 1e-300)
    h_signed = -0.5 * _dot(lap, normal)
    return h_signed, np.moveaxis(normal, 0, -1)


def _branch_mask(imm: Immersion) -> np.ndarray:
    """True on vertices within BRANCH_MARGIN cells of a branch point."""
    n = imm.n_grid
    mask = np.zeros((n, n), dtype=bool)
    near = np.arange(-BRANCH_MARGIN, BRANCH_MARGIN + 1)
    for j, l, _ in imm.branch_points:
        mask[np.ix_((j + near) % n, (l + near) % n)] = True
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
    f_hat = _fft2(per)
    d_s = _ifft2(2j * np.pi * mm * f_hat).real + v1
    d_t = _ifft2(2j * np.pi * kk * f_hat).real + v2
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

    # the period over the diagonal loop gamma1 + gamma2 by direct line quadrature
    idx = np.arange(imm.n_grid)
    gamma = np.array(imm.lat.gamma1) + np.array(imm.lat.gamma2)
    diag = (jac[idx, idx] @ gamma).sum(axis=0) / imm.n_grid  # dF(gamma) along the diagonal
    add_err = float(np.linalg.norm(diag - (imm.V1 + imm.V2)))
    scale = max(np.linalg.norm(imm.V1) + np.linalg.norm(imm.V2), 1.0)
    checks.add("period additivity", add_err / scale, PERIOD_TOL, add_err / scale < PERIOD_TOL)

    imm.diagnostics.update({"conformality": conf, "cmc_median_err": cmc_err})
    return checks


# ---------------------------------------------------------------------------
# Mesh export


def _repr_table(values: np.ndarray):
    """(table, ids): the repr of each distinct float in `values`, keyed on its bits (so
    -0.0 is not 0.0), as uint8 rows padded with zero bytes, and each value's row."""
    keys, ids = np.unique(values.view(np.uint64), return_inverse=True)
    table = np.zeros(len(keys), "S24")  # 24 bytes hold the longest float64 repr
    for i in range(0, len(keys), _BLOCK):
        table[i : i + _BLOCK] = list(map(repr, keys[i : i + _BLOCK].view(float).tolist()))
    return table.view(np.uint8).reshape(-1, 24), ids


def _write_lines(fh, tag: str, fields) -> None:
    """Write one line per id: tag, then for each (table, ids) field a space and the table
    row at its id, then a newline; the zero bytes that pad table rows are dropped."""
    n = len(fields[0][1])
    head, space, newline = (np.full((n, 1), ord(c), np.uint8) for c in tag + " \n")
    line = np.hstack([head, *(c for table, ids in fields for c in (space, table[ids])), newline])
    fh.write(line[line != 0].tobytes().decode("ascii"))


def export_mesh(imm: Immersion, copies: tuple[int, int], path, lam: float | None = None):
    """Write a triangulated OBJ tiling plus a JSON sidecar.

    Vertices are F(x) + m V1 + l V2 on a (k1 N + 1) x (k2 N + 1) grid (the +1
    closes the seams), two counterclockwise triangles per grid cell, 1-based
    OBJ indices.  The sidecar records periods, H, lambda, diagnostics, and
    branch points.  Returns (obj_path, sidecar_path).

    Each distinct coordinate of a column is formatted once, as its shortest repr.
    That is fast because tilings repeat coordinates bit for bit (a constant-branch
    surface is a round cylinder along z); the bytes do not depend on it.
    """
    k1, k2 = copies
    if k1 < 1 or k2 < 1:
        raise ValueError("tiling counts must be >= 1")
    n = imm.n_grid
    rows = k1 * n + 1
    cols = k2 * n + 1
    verts = imm.at(np.arange(rows)[:, None], np.arange(cols)[None, :]).reshape(-1, 3)
    tables = [_repr_table(verts[:, k]) for k in range(3)]
    # Row i of digits: the decimal digits of vertex id i, left-padded with zero bytes.
    rest = np.arange(rows * cols + 1)
    digits = np.zeros((len(rest), len(str(rows * cols))), np.uint8)
    for k in range(digits.shape[1] - 1, -1, -1):
        digits[:, k] = np.where(rest > 0, rest % 10 + 48, 0)
        rest //= 10
    band = max(1, _BLOCK // (2 * (cols - 1)))  # cell rows per block of face lines
    obj_path = str(path)
    try:
        with open(obj_path, "w", encoding="utf-8") as fh:
            fh.write("# spintorus periodic immersion mesh\n")
            for at in range(0, rows * cols, _BLOCK):
                _write_lines(fh, "v", [(table, ids[at : at + _BLOCK]) for table, ids in tables])
            for a in range(0, rows - 1, band):
                # Cell (a, b) gets triangles (v00, v10, v11) and (v00, v11, v01), where
                # v00 = a cols + b + 1 is the 1-based id of grid vertex (a, b).
                v00 = np.arange(a, min(a + band, rows - 1))[:, None] * cols + np.arange(1, cols)
                tri = np.stack([v00, v00 + cols, v00 + cols + 1, v00, v00 + cols + 1, v00 + 1], -1)
                _write_lines(fh, "f", [(digits, ids) for ids in tri.reshape(-1, 3).T])
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
