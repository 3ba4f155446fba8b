"""Camera extrinsic estimation and laser rig calibration.

Two estimators live here, and both take their data as arrays. The first
recovers a camera pose from fiducial pixels (n, 2) and world points (n, 3):
a direct linear estimate on normalized image coordinates seeds a damped
Gauss-Newton refinement of the pixel reprojection error. The second recovers
the laser rig parameters (frame offsets alpha and the beam incidence
direction) from a ``SpotObservations`` record, one row per board shot: the
commanded waypoint, the board plane at one of several heights and the
measured spot center. ``calibrate_laser_axes`` builds the motion frame from
one (start, end) fiducial pair per axis.

The beam direction is parameterized by two tilt angles applied to the
canonical down vector (0, 0, -1); a roll angle would be unobservable for a
rotationally symmetric beam, so it is excluded by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAxis,
    DegenerateConfiguration,
    IllConditioned,
    NonConvergence,
)
from .geometry import ReferenceFrame, as_vec3, normalize
from .optimize import levenberg_marquardt
from .sensors import PinholeCamera

CONDITION_LIMIT = 1e12
MIN_AXIS_LENGTH = 0.5  # mm


@dataclass(frozen=True)
class SpotObservations:
    """Board shots, one row each: the commanded waypoints ``betas`` (m, 2),
    the board planes' ``centers`` and unit ``normals`` (m, 3), and the
    measured spot centers ``spots`` (m, 3). Each normal is scaled to unit
    length as ``geometry.normalize`` scales it alone."""

    betas: np.ndarray
    centers: np.ndarray
    normals: np.ndarray
    spots: np.ndarray

    def __post_init__(self):
        for name, width in (("betas", 2), ("centers", 3), ("normals", 3),
                            ("spots", 3)):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim != 2 or a.shape[1] != width or not np.isfinite(a).all():
                raise ValueError(f"{name} must be a finite (m, {width}) "
                                 f"array, not {a.shape}")
            object.__setattr__(self, name, a)
        if len({len(self.betas), len(self.centers), len(self.normals),
                len(self.spots)}) > 1:
            raise ValueError("observation arrays differ in row count")
        norm = np.sqrt(np.vecdot(self.normals, self.normals))
        if np.any(norm == 0.0):
            raise ValueError("board normals must be nonzero")
        object.__setattr__(self, "normals", self.normals / norm[:, None])

    def __len__(self):
        return len(self.betas)


@dataclass(frozen=True)
class LaserCalibration:
    """Calibrated rig: motion frame, fixed offsets, and beam direction."""

    frame: ReferenceFrame
    alpha: np.ndarray
    v_w: np.ndarray
    residual_rms: float = 0.0
    iterations: int = 0
    stop: str | None = None  # LeastSquaresResult.stop of the solve, if any

    def __post_init__(self):
        object.__setattr__(self, "alpha",
                           np.asarray(self.alpha, dtype=float).reshape(2))
        v = as_vec3(self.v_w)
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            v = normalize(v)
        if v[2] >= 0:
            raise ValueError("beam direction must point downward (v_z < 0)")
        object.__setattr__(self, "v_w", v)


def waypoint_position(frame: ReferenceFrame, alpha, beta) -> np.ndarray:
    """Waypoint p = origin + (alpha_x + beta_x) v_x + (alpha_y + beta_y) v_y.

    ``beta`` is one waypoint (2,) or a plan (n, 2); the result is (3,) or
    (n, 3), each row computed as for its waypoint alone.
    """
    alpha = np.asarray(alpha, dtype=float).reshape(2)
    beta = np.asarray(beta, dtype=float)
    if beta.shape[-1:] != (2,) or beta.ndim > 2:
        raise ValueError(f"waypoints must be (2,) or (n, 2), not {beta.shape}")
    s = alpha + beta
    return frame.origin + s[..., :1] * frame.v_x + s[..., 1:] * frame.v_y


def beam_from_angles(theta: float, phi: float) -> np.ndarray:
    """Tilted down vector: rotate (0,0,-1) by theta about x, then phi about y."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    return np.array([-sp * ct, st, -cp * ct])


def beam_angle_jacobian(theta: float, phi: float) -> np.ndarray:
    """(3, 2) derivative of beam_from_angles wrt (theta, phi)."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    return np.array([
        [sp * st, -cp * ct],
        [ct, 0.0],
        [cp * st, sp * ct],
    ])


def angles_from_beam(v_w) -> tuple[float, float]:
    """Inverse of beam_from_angles for downward unit vectors."""
    v = normalize(v_w)
    theta = float(np.arcsin(np.clip(v[1], -1.0, 1.0)))
    phi = float(np.arctan2(-v[0], -v[2]))
    return theta, phi


def predict_spots(frame: ReferenceFrame, alpha, beta, v, normal, center):
    """Spots p_w - (s / d) v where the beams along ``v`` from waypoints
    ``beta`` ((2,) or (m, 2)) meet their planes, with d = n.v and
    s = n.(p_w - c). ``normal`` and ``center`` are (3,) or one per row; each
    row's ``np.vecdot`` is the ``np.dot`` of that row alone."""
    p_w = waypoint_position(frame, alpha, beta)
    d = np.vecdot(normal, v)
    s = np.vecdot(normal, p_w - center)
    return p_w - (s / d)[..., None] * v, d, s


def calibrate_laser_axes(origin, x_axis, y_axis) -> ReferenceFrame:
    """Build the motion frame from one (start, end) fiducial pair per axis.

    Axes are stored exactly as measured; orthogonality is not enforced.
    """
    axes = []
    for name, (start, end) in (("x", x_axis), ("y", y_axis)):
        delta = as_vec3(end) - as_vec3(start)
        length = float(np.linalg.norm(delta))
        if length <= MIN_AXIS_LENGTH:
            raise DegenerateAxis(
                f"axis '{name}' fiducials only {length:.3f} mm apart"
            )
        axes.append(delta / length)
    return ReferenceFrame(as_vec3(origin), *axes)


def laser_least_squares(frame: ReferenceFrame, observations):
    """(residual, jacobian) of the laser calibration: for x = (theta, phi,
    alpha_x, alpha_y), the (3m,) predicted minus measured spot centers and
    their (3m, 4) derivative, as array expressions over the m observations
    whose rows are the doubles of each observation alone."""
    betas, centers = observations.betas, observations.centers
    normals, measured = observations.normals, observations.spots

    def predict(x):
        theta, phi, ax, ay = x
        v = beam_from_angles(theta, phi)
        return (v, *predict_spots(frame, (ax, ay), betas, v, normals, centers))

    def residual(x):
        return (predict(x)[1] - measured).ravel()

    def jacobian(x):
        v, _, d, s = predict(x)
        t = (s / d)[:, None]
        # float_power squares through pow(), as Python's d**2 does
        d2 = np.float_power(d, 2.0)
        cols = [(s * np.vecdot(normals, dvc) / d2)[:, None] * v - t * dvc
                for dvc in beam_angle_jacobian(x[0], x[1]).T]
        cols += [axis - (np.vecdot(normals, axis) / d)[:, None] * v
                 for axis in (frame.v_x, frame.v_y)]
        return np.stack(cols, axis=-1).reshape(-1, 4)

    return residual, jacobian


def calibrate_laser_orientation(frame: ReferenceFrame,
                                observations) -> LaserCalibration:
    """Estimate (v_w, alpha) from the ``SpotObservations`` of board shots.

    Solves min over (theta, phi, alpha) of the summed squared distances
    between predicted and measured spot centers, by damped Gauss-Newton
    with the analytic Jacobian of ``laser_least_squares``, always from a
    vertical beam with zero offsets (theta = phi = 0, alpha = (0, 0)).
    Boards must span at least two distinct heights; a single plane leaves
    the frame offsets and the beam tilt coupled along a one-parameter
    family. A beam solved to point up is a solver failure. The result
    carries the solver's ``stop``.
    """
    if len(observations) < 3:
        raise ValueError("need at least 3 spot observations")
    heights = np.sort(np.vecdot(observations.normals, observations.centers))
    if not np.any(np.diff(heights) > 1e-9):
        raise IllConditioned(
            "all boards at one height: offsets and beam tilt are coupled"
        )
    residual, jacobian = laser_least_squares(frame, observations)

    result = levenberg_marquardt(residual, jacobian, np.zeros(4))
    if not result.converged:
        raise NonConvergence("laser calibration did not converge in "
                             f"{result.iterations} iterations")
    cond = float(np.linalg.cond(result.jacobian))
    if cond > CONDITION_LIMIT:
        raise IllConditioned(f"Jacobian condition {cond:.2e} at solution")

    theta, phi, ax, ay = result.x
    beam = beam_from_angles(theta, phi)
    if not beam[2] < 0:
        raise NonConvergence("laser calibration converged to a beam with "
                             f"v_z = {beam[2]:.3g}, not pointing down")
    r = residual(result.x).reshape(-1, 3)
    rms = float(np.sqrt(np.mean(np.sum(r * r, axis=1))))
    return LaserCalibration(frame, (ax, ay), beam, residual_rms=rms,
                            iterations=result.iterations, stop=result.stop)


def synthesize_spot_observations(calibration: LaserCalibration, betas,
                                 plane_heights, noise_sigma: float = 0.0,
                                 rng=None) -> SpotObservations:
    """Forward-generate board observations from a known calibration.

    One observation per (height, beta) pair on horizontal boards, heights
    outermost; optional isotropic Gaussian noise on the measured spot
    centers, drawn as one (m, 3) array in observation order.
    """
    v = beam_from_angles(*angles_from_beam(calibration.v_w))
    if rng is None:
        rng = np.random.default_rng(0)
    heights = np.asarray(plane_heights, dtype=float).reshape(-1)
    betas = np.asarray(betas, dtype=float).reshape(-1, 2)
    centers = np.zeros((len(heights) * len(betas), 3))
    centers[:, 2] = np.repeat(heights, len(betas))
    normals = np.tile([0.0, 0.0, 1.0], (len(centers), 1))
    betas = np.tile(betas, (len(heights), 1))
    spots, _, _ = predict_spots(calibration.frame, calibration.alpha, betas,
                                v, normals, centers)
    if noise_sigma > 0:
        spots = spots + rng.normal(0.0, noise_sigma, spots.shape)
    return SpotObservations(betas, centers, normals, spots)


# ---------------------------------------------------------------------------
# Camera extrinsics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtrinsicStats:
    """Reprojection quality. Millimeter equivalents convert each pixel
    residual at that point's camera depth (err_px * Z / focal)."""

    pixel_residuals: np.ndarray
    rms_px: float
    mm_equivalents: np.ndarray
    rms_mm: float
    iterations: int
    cost_history: tuple
    stop: str  # LeastSquaresResult.stop of the pose solve


def _skew(v):
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def _rodrigues(w):
    angle = np.linalg.norm(w)
    if angle < 1e-16:
        return np.eye(3) + _skew(w)
    k = w / angle
    kx = _skew(k)
    return np.eye(3) + np.sin(angle) * kx + (1 - np.cos(angle)) * (kx @ kx)


def _linear_pose_estimate(xn, world):
    """DLT for the normalized projection matrix; returns (R, t) candidates."""
    n = len(world)
    a = np.zeros((2 * n, 12))
    wh = np.column_stack([world, np.ones(n)])
    a[0::2, 0:4] = wh
    a[0::2, 8:12] = -xn[:, 0:1] * wh
    a[1::2, 4:8] = wh
    a[1::2, 8:12] = -xn[:, 1:2] * wh
    _, s, vt = np.linalg.svd(a)
    if s[-2] < 1e-10 * s[0]:
        raise DegenerateConfiguration(
            "correspondences do not determine a unique pose (rank-deficient)"
        )
    p = vt[-1].reshape(3, 4)

    candidates = []
    for sign in (1.0, -1.0):
        pm = sign * p
        u, sv, vt3 = np.linalg.svd(pm[:, :3])
        d = np.linalg.det(u @ vt3)
        r = u @ np.diag([1.0, 1.0, d]) @ vt3
        scale = sv.mean()
        t = pm[:, 3] / scale
        depth = world @ r[2] + t[2]
        candidates.append(((depth > 0).sum(), r, t))
    candidates.sort(key=lambda c: -c[0])
    _, r, t = candidates[0]
    return r, t


def estimate_camera_extrinsics(camera: PinholeCamera, image_points,
                               world_points
                               ) -> tuple[PinholeCamera, ExtrinsicStats]:
    """Estimate the world-to-camera pose from fiducials seen at pixels
    ``image_points`` (n, 2) and known to lie at ``world_points`` (n, 3).

    ``camera`` supplies the intrinsics (its pose fields are ignored).
    Returns a camera with the estimated pose plus reprojection statistics.
    """
    uv = np.asarray(image_points, dtype=float)
    world = np.asarray(world_points, dtype=float)
    if not (uv.ndim == 2 and uv.shape[1] == 2 and world.shape == (len(uv), 3)
            and np.isfinite(uv).all() and np.isfinite(world).all()):
        raise ValueError("fiducials must be finite (n, 2) pixels and (n, 3) "
                         f"world points, not {uv.shape} and {world.shape}")
    if len(uv) < 6:
        raise ValueError("need at least 6 correspondences")

    xn = np.column_stack([
        (uv[:, 0] - camera.cx) / camera.fx,
        (uv[:, 1] - camera.cy) / camera.fy,
    ])
    r, t = _linear_pose_estimate(xn, world)

    focal = np.array([camera.fx, camera.fy])
    center = np.array([camera.cx, camera.cy])

    # x packs the rotation matrix (row-major) and the translation; steps are
    # a rotation vector composed on the left plus a translation increment
    def camera_points(x):
        return world @ x[:9].reshape(3, 3).T + x[9:]

    def residual(x):
        pc = camera_points(x)
        z = pc[:, 2]
        proj = pc[:, :2] / z[:, None] * focal + center
        return (proj - uv).ravel()

    def jacobian(x):
        pc = camera_points(x)
        jac = np.zeros((2 * len(pc), 6))
        for i, p in enumerate(pc):
            xc, yc, z = p
            du = np.array([camera.fx / z, 0.0, -camera.fx * xc / z**2])
            dv = np.array([0.0, camera.fy / z, -camera.fy * yc / z**2])
            dp_dw = -_skew(p - x[9:])
            jac[2 * i, 0:3] = du @ dp_dw
            jac[2 * i, 3:6] = du
            jac[2 * i + 1, 0:3] = dv @ dp_dw
            jac[2 * i + 1, 3:6] = dv
        return jac

    def retract(x, step):
        r_new = _rodrigues(step[0:3]) @ x[:9].reshape(3, 3)
        return np.concatenate([r_new.ravel(), x[9:] + step[3:6]])

    result = levenberg_marquardt(residual, jacobian,
                                 np.concatenate([r.ravel(), t]),
                                 lam0=1e-6, retract=retract)
    if not result.converged:
        raise NonConvergence("extrinsic refinement did not converge in "
                             f"{result.iterations} iterations")

    # re-orthonormalize after repeated composition
    u, _, vt3 = np.linalg.svd(result.x[:9].reshape(3, 3))
    r = u @ np.diag([1.0, 1.0, np.linalg.det(u @ vt3)]) @ vt3
    t = result.x[9:]

    x = np.concatenate([r.ravel(), t])
    pc = camera_points(x)
    f = residual(x)
    px = np.linalg.norm(f.reshape(-1, 2), axis=1)
    mm = px * pc[:, 2] / float(focal.mean())
    stats = ExtrinsicStats(
        pixel_residuals=px,
        rms_px=float(np.sqrt(np.mean(px**2))),
        mm_equivalents=mm,
        rms_mm=float(np.sqrt(np.mean(mm**2))),
        iterations=result.iterations,
        cost_history=tuple(result.cost_history),
        stop=result.stop,
    )
    posed = PinholeCamera(camera.fx, camera.fy, camera.cx, camera.cy,
                          r, t, camera.width, camera.height)
    return posed, stats
