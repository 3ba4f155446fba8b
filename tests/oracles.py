"""Scalar oracles for the array membership, nearest-neighbour and ray
kernels, the region raster and the PLY writer, and whole-volume oracles for
the streamed OCT scan.

These are the one-point-at-a-time versions that ``points_in_polygon``,
``ScenePhantom.region_index``, the batched ``nearest_neighbor`` and the
batched ``intersect_scene`` replaced, kept as they were so the tests can
hold the array kernels to them. ``raster_on`` is the per-pixel region
raster (``points_in_polygon`` over every pixel centre) that the scanline
fill in ``metrics._raster_on`` replaced, ``sample_polygon_boundary`` the
edge-by-edge, step-by-step outline sampler that the array expression in
``metrics`` replaced, and ``write_ply_cloud`` the row-at-a-time writer that
the column-wise ``io.write_ply_cloud`` replaced.
``render_oct_volume`` and ``segment_surface`` are the eager C-scan and its
full-volume axis-1 reduction that the B-scan stream replaced; the eager
render evaluates every axial row, where the stream evaluates only the band
around the peaks; the eager segmentation reduces with ``argmax``, where
the stream uses ``sensors.column_peaks``. ``render_camera_image`` paints
the whole grid at once through label strings, where the harness paints
through region indices, a block of grid rows at a time.
``polygon_is_simple`` is the all-pairs edge-crossing check that test
polygons must pass before they serve as membership inputs.
``solve_ik`` and ``plan_trajectory`` are the one-target Newton loop and the
per-target plan that the array Newton loop in ``kinematics`` replaced, with
the ``Ray``-based forward model they stepped through and its beam-plane
intersection ``ray_plane_intersect``. These oracles own the plane form the
library no longer has: a ``(center, unit normal)`` pair of (3,) arrays, as
``target_plane`` makes one. ``spot_prediction``, ``laser_least_squares`` and
``reprojection_error`` predict one board observation at a time, as the
laser calibration did before its residual and Jacobian became array
expressions; ``observation_rows`` splits a ``SpotObservations`` record into
the per-shot (beta, plane, spot) rows they walk. ``synth_spectrum``,
``preprocess`` (with its 1-D ``savgol_smooth``), ``band_mean``,
``threshold_classify`` and ``mlp_predict`` are the one-spectrum bodies that
the (n, w) versions in ``sensors`` and ``spectra`` replaced, which the
harness called once per scan point; ``mlp_predict`` normalizes and runs the
forward pass on one call's rows together, so a batch through it is one
batched pass, not n one-row ones. ``mlp_forward`` is the class-probability
pass it runs, which the blocked, error-bounded ``spectra.mlp_predict`` no
longer calls. ``mlp_train`` is the trainer that took whole gradient
arrays from ``nll_loss_and_gradients`` each step and ran the Adam update
(``adam_step``) over each whole parameter array, before
``spectra.mlp_train`` split the update into row slices that two threads
share, each slice making its own gradient rows as the backward pass
releases its layer.
``write_spot_observations_csv``, ``write_cut_plan_csv`` and
``write_spectra_csv`` are the ``csv.writer`` bodies that
``io._write_csv_rows`` replaced.
``Ray`` is the one-beam record (an origin and a unit direction) that these
oracles step along. ``ray_mesh_intersect`` is the one-ray kernel that box
tests every triangle, and ``locate`` the one-spot body of
``SpotLocator.locate`` that ran it once per scan point; the batched kernel
and the raster ``locate`` replaced them.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from resectsim.calibration import (
    angles_from_beam,
    beam_angle_jacobian,
    beam_from_angles,
    waypoint_position,
)
from resectsim.errors import (
    AllZero,
    EmptyBand,
    EmptyCloud,
    EmptySurface,
    NoRayHit,
    ParallelRay,
    PipelineError,
    ShapeMismatch,
    Unreachable,
)
from resectsim.geometry import (
    EDGE_EPS,
    PARALLEL_EPS,
    SurfaceCloud,
    as_vec3,
    normalize,
    points_in_polygon,
)
from resectsim.kinematics import IK_TOLERANCE, CutPlan, IkSolution
from resectsim.io import write_json
from resectsim.sensors import (
    _CLASS_CODE,
    RAY_SAMPLES,
    RAY_T_MAX,
    SpectrumConfig,
)
from resectsim import spectra
from resectsim.spectra import (
    HEALTHY,
    HIDDEN_SIZES,
    TUMOR,
    UNCERTAIN,
    PreprocessConfig,
    Spectrum,
    TrainConfig,
    _forward_cached,
    _log_softmax,
    init_mlp,
    savgol_weights,
)


def point_on_segment(p, a, b, eps: float = EDGE_EPS) -> bool:
    ab = b - a
    ap = p - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return bool(np.linalg.norm(ap) <= eps)
    t = np.clip(float(ap @ ab) / denom, 0.0, 1.0)
    return bool(np.linalg.norm(ap - t * ab) <= eps)


def point_in_polygon(point, vertices, include_boundary: bool = True) -> bool:
    """Even-odd membership test; boundary points count as inside by default."""
    p = np.asarray(point, dtype=float).reshape(2)
    verts = np.asarray(vertices, dtype=float).reshape(-1, 2)
    n = len(verts)
    if include_boundary:
        for i in range(n):
            if point_on_segment(p, verts[i], verts[(i + 1) % n]):
                return True
    inside = False
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        if (y1 > p[1]) != (y2 > p[1]):
            t = (p[1] - y1) / (y2 - y1)
            if p[0] < x1 + t * (x2 - x1):
                inside = not inside
    return inside


def nearest_neighbor(query, cloud) -> tuple[int, float]:
    """Index and Euclidean distance of the closest cloud point (2D or 3D).

    Ties break to the lowest index.
    """
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise EmptyCloud("nearest_neighbor needs a nonempty (N,k) cloud")
    q = np.asarray(query, dtype=float).reshape(-1)
    if q.shape[0] != pts.shape[1]:
        raise ValueError("query dimension does not match cloud")
    d2 = np.sum((pts - q) ** 2, axis=1)
    idx = int(np.argmin(d2))
    return idx, float(np.sqrt(d2[idx]))


def _region_hits(self, x: float, y: float):
    hit = None
    for reg in self.regions:
        if reg["kind"] == "disc":
            cx, cy = reg["center"]
            if (x - cx) ** 2 + (y - cy) ** 2 <= reg["radius"] ** 2:
                hit = reg
        elif point_in_polygon((x, y), reg["vertices"],
                              include_boundary=False):
            hit = reg
    return hit


def label_at(scene, x, y) -> str:
    reg = _region_hits(scene, float(x), float(y))
    return reg["label"] if reg is not None else HEALTHY


def albedo_at(scene, x, y) -> float:
    reg = _region_hits(scene, float(x), float(y))
    key = reg["label"] if reg is not None else "default"
    return float(scene.albedo.get(key, scene.albedo.get("default", 0.9)))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segments_cross(a, b, c, d) -> bool:
    """Proper intersection of open segments ab and cd."""
    d1 = _cross(c, d, a)
    d2 = _cross(c, d, b)
    d3 = _cross(a, b, c)
    d4 = _cross(a, b, d)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def polygon_is_simple(vertices) -> bool:
    """No two non-adjacent edges cross, checked over all O(n^2) pairs."""
    verts = np.asarray(vertices, dtype=float).reshape(-1, 2)
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = verts[j], verts[(j + 1) % n]
            if _segments_cross(a, b, c, d):
                return False
    return True


@dataclass(frozen=True)
class Ray:
    """Beam model: an origin point plus a unit direction."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", as_vec3(self.origin))
        object.__setattr__(self, "direction", normalize(self.direction))

    def at(self, t: float) -> np.ndarray:
        return self.origin + t * self.direction


def ray_mesh_intersect(ray, mesh):
    """Nearest positive-parameter ray/triangle hit ``(point, index)``, or
    None: Moller-Trumbore over the triangles whose xy box overlaps the ray's
    padded xy shadow inside the mesh's z range, in ascending index order
    (every triangle when |d_z| <= 1e-12), ties to the lowest index."""
    if len(mesh.triangles) == 0:
        return None
    d = ray.direction
    cand = np.arange(len(mesh.triangles))
    if abs(d[2]) > 1e-12:
        lo, hi, zmin, zmax = mesh.bounds
        # ray parameters where it crosses the slab's faces, clipped to t >= 0
        t = np.maximum((np.array([zmin, zmax]) - ray.origin[2]) / d[2], 0.0)
        seg = ray.origin[:2] + t[:, None] * d[:2]
        pad = 1e-9 * (1.0 + float(np.max(np.abs(seg))))
        s_lo, s_hi = seg.min(axis=0) - pad, seg.max(axis=0) + pad
        cand = np.flatnonzero((lo[0] <= s_hi[0]) & (hi[0] >= s_lo[0])
                              & (lo[1] <= s_hi[1]) & (hi[1] >= s_lo[1]))
    tris = mesh.triangles[cand]
    v0 = mesh.vertices[tris[:, 0]]
    e1 = mesh.vertices[tris[:, 1]] - v0
    e2 = mesh.vertices[tris[:, 2]] - v0
    p = np.cross(np.broadcast_to(d, e2.shape), e2)
    det = np.einsum("ij,ij->i", e1, p)
    usable = np.abs(det) > 1e-12
    inv_det = np.where(usable, 1.0 / np.where(usable, det, 1.0), 0.0)
    tvec = ray.origin - v0
    u = np.einsum("ij,ij->i", tvec, p) * inv_det
    q = np.cross(tvec, e1)
    v = np.einsum("j,ij->i", d, q) * inv_det
    t = np.einsum("ij,ij->i", e2, q) * inv_det
    hit = usable & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > 1e-12)
    if not np.any(hit):
        return None
    t_masked = np.where(hit, t, np.inf)
    idx = int(np.argmin(t_masked))
    return ray.at(float(t[idx])), int(cand[idx])


def locate(locator, pixel_left, pixel_right, laser_ray) -> np.ndarray:
    """One spot on ``locator``'s surface: the mean of each camera's nearest
    valid point (a one-row ``nearest`` query each) and the ray's mesh hit.
    Raises NoRayHit when the ray misses the mesh."""
    cam_estimates = []
    for (grid, visible), pixel in zip(locator._views,
                                      (pixel_left, pixel_right)):
        idx, _ = grid.nearest(np.reshape(pixel, (1, 2)))
        cam_estimates.append(locator.points[visible[idx[0]]])
    hit = ray_mesh_intersect(laser_ray, locator.mesh)
    if hit is None:
        raise NoRayHit("laser ray misses the surface mesh")
    return (cam_estimates[0] + cam_estimates[1] + hit[0]) / 3.0


def locate_all(locator, pixels_left, pixels_right, origins, direction):
    """``SpotLocator.locate`` as the e2e scan ran it, one spot at a time:
    the indices of the spots whose ray hits and their (m, 3) positions."""
    mapped, spots = [], []
    for k, origin in enumerate(origins):
        try:
            spots.append(locate(locator, pixels_left[k], pixels_right[k],
                                Ray(origin, direction)))
        except NoRayHit:
            continue
        mapped.append(k)
    return np.array(mapped, dtype=int), np.reshape(spots, (-1, 3))


def intersect_scene(ray, scene) -> np.ndarray:
    """First intersection of one descending ``Ray`` with the height field:
    bracket among ``RAY_SAMPLES`` even steps, then 90 scalar bisections."""

    def gap(t):
        p = ray.at(t)
        return p[2] - scene.height(p[0], p[1])

    ts = np.linspace(0.0, RAY_T_MAX, RAY_SAMPLES)
    pts = ray.origin[None, :] + ts[:, None] * ray.direction[None, :]
    gaps = pts[:, 2] - scene.height(pts[:, 0], pts[:, 1])
    crossing = np.flatnonzero((gaps[:-1] > 0.0) & (gaps[1:] <= 0.0))
    if len(crossing) == 0:
        raise NoRayHit("ray does not reach the surface")
    lo, hi = float(ts[crossing[0]]), float(ts[crossing[0] + 1])
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return ray.at(0.5 * (lo + hi))


def raster_on(polygon, x0, y0, nx, ny, pitch) -> np.ndarray:
    """Even-odd (ny, nx) mask: ``points_in_polygon`` at every pixel centre."""
    xs = x0 + (np.arange(nx) + 0.5) * pitch
    ys = y0 + (np.arange(ny) + 0.5) * pitch
    gx, gy = np.meshgrid(xs, ys)
    flat = points_in_polygon(np.column_stack([gx.ravel(), gy.ravel()]),
                             polygon)
    return flat.reshape(ny, nx)


def sample_polygon_boundary(vertices, spacing) -> np.ndarray:
    """Points along the polygon outline at most ``spacing`` apart, one edge
    and one step at a time."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    out = []
    n = len(v)
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        length = float(np.linalg.norm(b - a))
        steps = max(1, int(np.ceil(length / spacing)))
        for t in np.arange(steps) / steps:
            out.append(a + t * (b - a))
    return np.array(out)


def render_camera_image(scene, camera, oct_cfg) -> np.ndarray:
    """The camera view painted through the label strings: ``np.unique``
    over ``label_at`` of every projected grid point, then a palette."""
    from resectsim.harness import IMAGE_BACKGROUND, REGION_COLORS
    from resectsim.sensors import project_points

    img = np.tile(np.array(IMAGE_BACKGROUND, dtype=np.uint8),
                  (camera.height, camera.width, 1))
    xs = np.arange(oct_cfg.n_lateral) * oct_cfg.pitch_x
    ys = np.arange(oct_cfg.n_bscans * 4) * (oct_cfg.pitch_y / 4.0)
    gx, gy = np.meshgrid(xs, ys)
    gz = scene.height(gx, gy)
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    uv, in_front = project_points(camera, pts)
    cols = np.round(uv[:, 0]).astype(np.int64, copy=False)
    rows = np.round(uv[:, 1]).astype(np.int64, copy=False)
    ok = in_front & (cols >= 0) & (cols < camera.width) & \
        (rows >= 0) & (rows < camera.height)
    names, inverse = np.unique(scene.label_at(pts[ok, 0], pts[ok, 1]),
                               return_inverse=True)
    palette = np.array([REGION_COLORS[n] for n in names], dtype=np.uint8)
    img[rows[ok], cols[ok]] = palette[inverse]
    return img


def write_ply_cloud(path, points, color=None, label=None) -> Path:
    """ASCII PLY formatted one row and one ``"%.9g" % v`` at a time."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    lines = ["ply", "format ascii 1.0", f"element vertex {n}",
             "property float x", "property float y", "property float z"]
    if color is not None:
        color = np.asarray(color).reshape(-1, 3)
        lines += ["property uchar red", "property uchar green",
                  "property uchar blue"]
    if label is not None:
        label = np.asarray(label).reshape(-1)
        lines += ["property uchar label"]
    lines.append("end_header")
    for i in range(n):
        parts = ["%.9g" % v for v in points[i]]
        if color is not None:
            parts += [str(int(c)) for c in color[i]]
        if label is not None:
            parts.append(str(int(label[i])))
        lines.append(" ".join(parts))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def render_oct_volume(scene, window, cfg, seed=0) -> np.ndarray:
    """The whole (n_bscans, n_axial, n_lateral) float32 C-scan at once,
    noise drawn for the whole volume in one ``rng.uniform`` call."""
    x0, y0 = window
    xs = x0 + np.arange(cfg.n_lateral) * cfg.pitch_x
    ys = y0 + np.arange(cfg.n_bscans) * cfg.pitch_y
    gx, gy = np.meshgrid(xs, ys)  # (n_bscans, n_lateral)
    height = scene.height(gx, gy)
    albedo = scene.albedo_at(gx, gy)

    k0 = height / cfg.axial_pitch  # fractional peak index per A-scan
    k = np.arange(cfg.n_axial, dtype=float)
    # peak[j, k, i] = albedo[j, i] * exp(-(k - k0[j, i])^2 / (2 sigma^2))
    two_s2 = 2.0 * cfg.peak_sigma_px ** 2
    vol = np.empty((cfg.n_bscans, cfg.n_axial, cfg.n_lateral), dtype=np.float32)
    for j in range(cfg.n_bscans):
        prof = np.exp(-((k[:, None] - k0[j][None, :]) ** 2) / two_s2)
        vol[j] = (albedo[j][None, :] * prof).astype(np.float32)
    if cfg.noise_amplitude > 0.0:
        rng = np.random.default_rng(seed)
        vol += rng.uniform(
            0.0, cfg.noise_amplitude, size=vol.shape
        ).astype(np.float32)
        np.clip(vol, 0.0, 1.0, out=vol)
    return vol


def segment_surface(vol, cfg, origin) -> SurfaceCloud:
    """Surface cloud from the whole-volume ``argmax(axis=1)`` and
    ``max(axis=1)`` of a (n_bscans, n_axial, n_lateral) array."""
    peak_idx = vol.argmax(axis=1)  # (n_bscans, n_lateral)
    peak_val = vol.max(axis=1)
    valid = peak_val >= 0.15
    if not np.any(valid):
        raise EmptySurface("no A-scan max reached threshold 0.15")

    x0, y0 = origin
    xs = x0 + np.arange(cfg.n_lateral) * cfg.pitch_x
    ys = y0 + np.arange(cfg.n_bscans) * cfg.pitch_y
    gx, gy = np.meshgrid(xs, ys)
    gz = peak_idx * cfg.axial_pitch
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    return SurfaceCloud(cfg.n_bscans, cfg.n_lateral, pts,
                        valid=valid.ravel())


def target_plane(target):
    """Horizontal virtual plane through the target's height, as a
    (center, normal) pair."""
    t = as_vec3(target)
    return np.array([0.0, 0.0, t[2]]), np.array([0.0, 0.0, 1.0])


def ray_plane_intersect(ray, plane) -> np.ndarray:
    """Intersection of a beam with a virtual plane (center, unit normal).

    Returns p = origin - [n.(origin - center) / n.direction] * direction.
    Raises ParallelRay when |n.direction| <= 1e-9.
    """
    center, normal = plane
    denom = float(np.dot(normal, ray.direction))
    if abs(denom) <= PARALLEL_EPS:
        raise ParallelRay(f"|normal . direction| = {abs(denom):.3e} <= {PARALLEL_EPS}")
    t = -float(np.dot(normal, ray.origin - center)) / denom
    return ray.origin + t * ray.direction


def beam(calibration, beta) -> Ray:
    """The beam fired from the commanded waypoint ``beta``."""
    return Ray(waypoint_position(calibration.frame, calibration.alpha, beta),
               calibration.v_w)


def forward_model(calibration, beta, plane) -> np.ndarray:
    """The beam from the commanded waypoint intersected with the plane."""
    return ray_plane_intersect(beam(calibration, beta), plane)


def beta_jacobian(calibration, plane) -> np.ndarray:
    """(3, 2) derivative of the predicted spot wrt beta for a fixed plane."""
    n, v = plane[1], calibration.v_w
    d = float(np.dot(n, v))
    if abs(d) <= 1e-9:
        raise ParallelRay("beam parallel to the virtual plane")
    cols = []
    for axis in (calibration.frame.v_x, calibration.frame.v_y):
        cols.append(axis - (float(np.dot(n, axis)) / d) * v)
    return np.column_stack(cols)


def solve_ik(calibration, target, bounds=None,
             tol: float = IK_TOLERANCE) -> IkSolution:
    """One target's Newton loop, one single-RHS least-squares step a turn."""
    target = as_vec3(target)
    plane = target_plane(target)
    jac = beta_jacobian(calibration, plane)
    beta = np.zeros(2)
    residual = np.inf
    for _ in range(10):
        diff = forward_model(calibration, beta, plane) - target
        residual = float(np.linalg.norm(diff))
        if residual <= tol * 0.01:
            break
        step, *_ = np.linalg.lstsq(jac, -diff, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        beta = beta + step
        diff = forward_model(calibration, beta, plane) - target
        residual = float(np.linalg.norm(diff))
    if residual > tol:
        raise Unreachable(
            f"IK residual {residual:.3e} mm above tolerance {tol:.1e}"
        )
    if bounds is not None:
        (xl, xh), (yl, yh) = bounds
        if not (xl <= beta[0] <= xh and yl <= beta[1] <= yh):
            raise Unreachable(
                f"waypoint {beta} outside workspace bounds {bounds}"
            )
    return IkSolution(beta, residual)


def plan_trajectory(calibration, targets, bounds=None) -> CutPlan:
    """``solve_ik`` on each target in input order; the first failure aborts."""
    targets = np.asarray(targets, dtype=float).reshape(-1, 3)
    waypoints = np.empty((len(targets), 2))
    residuals = np.empty(len(targets))
    for k, t in enumerate(targets):
        try:
            sol = solve_ik(calibration, t, bounds=bounds)
        except Unreachable as exc:
            raise Unreachable(f"target {k}: {exc}", index=k) from exc
        waypoints[k] = sol.beta
        residuals[k] = sol.residual
    return CutPlan(targets, waypoints, residuals)


def spot_prediction(frame, alpha, beta, theta, phi, plane):
    """One board observation's predicted spot on the plane (center, unit
    normal), with v, d, s and p_w."""
    center, normal = plane
    v = beam_from_angles(theta, phi)
    p_w = waypoint_position(frame, alpha, beta)
    d = float(np.dot(normal, v))
    s = float(np.dot(normal, p_w - center))
    return p_w - (s / d) * v, v, d, s, p_w


def observation_rows(observations):
    """(beta, (center, normal), spot) for each row of a record."""
    o = observations
    return list(zip(o.betas, zip(o.centers, o.normals), o.spots))


def laser_least_squares(frame, observations):
    """(residual, jacobian) of the laser calibration, filled one
    observation's three rows at a time."""
    obs = observation_rows(observations)

    def residual(x):
        theta, phi, ax, ay = x
        out = np.empty(3 * len(obs))
        for k, (beta, plane, spot) in enumerate(obs):
            pred, _, _, _, _ = spot_prediction(
                frame, (ax, ay), beta, theta, phi, plane)
            out[3 * k:3 * k + 3] = pred - spot
        return out

    def jacobian(x):
        theta, phi, ax, ay = x
        jac = np.empty((3 * len(obs), 4))
        dv = beam_angle_jacobian(theta, phi)
        for k, (beta, plane, _) in enumerate(obs):
            _, v, d, s, _ = spot_prediction(
                frame, (ax, ay), beta, theta, phi, plane)
            n = plane[1]
            t = s / d
            for col in range(2):  # theta, phi
                dvc = dv[:, col]
                dd = float(n @ dvc)
                jac[3 * k:3 * k + 3, col] = (s * dd / d**2) * v - t * dvc
            for col, axis in ((2, frame.v_x), (3, frame.v_y)):
                jac[3 * k:3 * k + 3, col] = axis - (float(n @ axis) / d) * v
        return jac

    return residual, jacobian


class EmptyObservations(PipelineError):
    """Residual statistics need at least one observation."""


def reprojection_error(calibration, observations):
    """Per-observation distances between predicted and measured spots, plus RMS."""
    obs = observation_rows(observations)
    if not obs:
        raise EmptyObservations("no observations to evaluate")
    theta, phi = angles_from_beam(calibration.v_w)
    res = []
    for beta, plane, spot in obs:
        pred, _, _, _, _ = spot_prediction(
            calibration.frame, calibration.alpha, beta, theta, phi, plane)
        res.append(float(np.linalg.norm(pred - spot)))
    res = np.array(res)
    return res, float(np.sqrt(np.mean(res**2)))


def synth_spectrum(label: str, seed: int,
                   cfg: SpectrumConfig = SpectrumConfig()) -> Spectrum:
    """Deterministic class-conditional spectrum for (label, seed)."""
    if label not in _CLASS_CODE:
        raise ValueError(f"label must be one of {sorted(_CLASS_CODE)}")
    wl = cfg.wavelengths()
    amps = cfg.healthy_amps if label == HEALTHY else cfg.tumor_amps
    base = np.zeros_like(wl)
    for a, c, w in zip(amps, cfg.centers, cfg.widths):
        base += a * np.exp(-((wl - c) ** 2) / (2.0 * w * w))
    base *= cfg.scale

    rng = np.random.default_rng([int(seed), _CLASS_CODE[label]])
    if cfg.jitter_sigma > 0:
        base = base * np.exp(rng.normal(0.0, cfg.jitter_sigma))
    if cfg.noise_sigma > 0:
        base = base + rng.normal(0.0, cfg.noise_sigma, size=base.shape)
    return Spectrum(wl, np.clip(base, 0.0, None), state="raw")


def savgol_smooth(x: np.ndarray, window: int, polyorder: int) -> np.ndarray:
    """Savitzky-Golay smoothing of a 1-D signal with mirror padding."""
    w = savgol_weights(window, polyorder)
    h = window // 2
    n = len(x)
    xp = np.pad(x, h, mode="reflect")
    out = xp[h:h + n] * w[h]
    for j in range(h, 0, -1):
        out += (xp[h - j:h - j + n] + xp[h + j:h + j + n]) * w[h - j]
    return out


def preprocess(s: Spectrum, cfg: PreprocessConfig = PreprocessConfig()) -> Spectrum:
    """Crop to the configured band, divide by the band maximum, then smooth."""
    if s.state != "raw":
        raise ValueError("preprocess expects a raw spectrum")
    lo, hi = cfg.band
    keep = (s.wavelengths >= lo) & (s.wavelengths <= hi)
    if not np.any(keep):
        raise EmptyBand(f"band [{lo}, {hi}] nm misses the wavelength grid")
    wl = s.wavelengths[keep]
    it = s.intensities[keep]
    m = float(it.max())
    if m == 0.0:
        raise AllZero("spectrum is identically zero in the band")
    it = it / m
    if len(it) < cfg.window:
        raise ValueError("band too narrow for the smoothing window")
    it = savgol_smooth(it, cfg.window, cfg.polyorder)
    it = np.clip(it, 0.0, None)
    return Spectrum(wl, it, state="preprocessed")


def band_mean(s: Spectrum, bands) -> float:
    """Mean intensity over the union of the given wavelength bands."""
    sel = np.zeros(len(s.wavelengths), dtype=bool)
    for lo, hi in bands:
        sel |= (s.wavelengths >= lo) & (s.wavelengths <= hi)
    if not np.any(sel):
        raise EmptyBand("no wavelength falls inside the classifier bands")
    return float(s.intensities[sel].mean())


def threshold_classify(clf, s: Spectrum) -> str:
    """Classify one preprocessed spectrum as tumor, healthy, or uncertain."""
    if s.state != "preprocessed":
        raise ValueError("threshold_classify expects a preprocessed spectrum")
    m = band_mean(s, clf.bands)
    if abs(m - clf.threshold) <= clf.half_width:
        return UNCERTAIN
    below = m < clf.threshold
    if (below and clf.tumor_side == "low") or (not below and clf.tumor_side == "high"):
        return TUMOR
    return HEALTHY


def mlp_forward(model, x) -> np.ndarray:
    """Class probabilities for one normalized vector or a batch of them."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != model.weights[0].shape[0]:
        raise ShapeMismatch(
            f"input width {arr.shape[1]} != model width {model.weights[0].shape[0]}"
        )
    logits = _forward_cached(model, arr)[-1]
    probs = np.exp(_log_softmax(logits))
    return probs[0] if single else probs


def mlp_predict(model, x) -> np.ndarray:
    """Normalize with the stored stats and return argmax labels."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    probs = mlp_forward(model, (arr - model.norm_mean) / model.norm_std)
    labels = probs.argmax(axis=1)
    return labels[0] if single else labels


def adam_step(p, g, m, v, b1, b2, lr_t, eps_t):
    """One whole-array Adam step, in place."""
    s = np.empty_like(p)
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * np.square(g, out=g)
    np.sqrt(v, out=s)
    s += eps_t
    np.divide(m, s, out=s)
    s *= lr_t
    p -= s


def mlp_train(x, y, cfg=TrainConfig(), hidden=HIDDEN_SIZES):
    """Adam training with one whole-array update of each parameter a step."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    mean = float(x.mean())
    std = float(x.std())
    if std == 0.0:
        std = 1.0
    xn = (x - mean) / std

    model = init_mlp(x.shape[1], hidden=hidden, seed=cfg.seed)
    model.norm_mean, model.norm_std = mean, std

    params = model.weights + model.biases
    moments1 = [np.zeros_like(p) for p in params]
    moments2 = [np.zeros_like(p) for p in params]

    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    rng = np.random.default_rng(cfg.seed + 1)
    history = []
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(xn))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, gw, gb = spectra.nll_loss_and_gradients(model, xn[idx],
                                                          y[idx])
            losses.append(loss)
            step += 1
            lr_t = cfg.learning_rate * np.sqrt(1.0 - b2**step) / (1.0 - b1**step)
            eps_t = cfg.adam_eps * np.sqrt(1.0 - b2**step)
            for p, g, m, v in zip(params, gw + gb, moments1, moments2):
                adam_step(p, g, m, v, b1, b2, lr_t, eps_t)
            if step % spectra.FLUSH_EVERY == 0:
                for m in moments1:
                    m[np.abs(m) < np.finfo(float).tiny] = 0.0
        history.append(float(np.mean(losses)))
    return model, history


def write_spot_observations_csv(path, observations) -> Path:
    path = Path(path)
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["beta_x", "beta_y", "px", "py", "pz",
                    "nx", "ny", "nz", "sx", "sy", "sz"])
        o = observations
        for row in zip(o.betas, o.centers, o.normals, o.spots):
            w.writerow([repr(float(x)) for part in row for x in part])
    return path


def write_cut_plan_csv(path, plan: CutPlan) -> Path:
    path = Path(path)
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["k", "beta_x", "beta_y", "px", "py", "pz", "residual"])
        for k in range(len(plan)):
            w.writerow([k] + [repr(float(x)) for x in
                              (*plan.waypoints[k], *plan.targets[k],
                               plan.residuals[k])])
    return path


def write_spectra_csv(path_base, wavelengths, intensity_rows,
                      subjects, labels) -> tuple[Path, Path]:
    """First CSV row is the wavelength grid; each later row one spectrum."""
    base = Path(path_base)
    csv_path = base.with_suffix(".csv")
    with csv_path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow([repr(float(x)) for x in wavelengths])
        for row in np.asarray(intensity_rows, dtype=float):
            w.writerow([repr(float(x)) for x in row])
    sidecar = write_json(base.with_suffix(".sidecar.json"), [
        {"subject": str(s), "label": str(l)}
        for s, l in zip(subjects, labels)
    ])
    return csv_path, sidecar
