"""Laser forward model, single-target IK, trajectory planning, raster grids.

The forward model composes the commanded waypoint (frame origin plus offsets
along the calibrated axes) with the beam/plane intersection. Because the
waypoint is affine in the commanded coordinates beta and the beam direction
is fixed after calibration, the predicted spot is affine in beta, and the
single-target problem is solved exactly by one linearized step; the solver
still iterates to polish floating-point error and to verify the residual.

Each target gets a horizontal virtual plane through its own height
(center (0, 0, z_target), normal (0, 0, 1)), which makes every subproblem
well-posed without estimating surface normals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import LaserCalibration
from .errors import BadStep, ParallelRay, Unreachable
from .geometry import PlaneFrame, as_vec3, ray_plane_intersect

IK_TOLERANCE = 1e-9  # mm


def target_plane(target) -> PlaneFrame:
    """Horizontal virtual plane through the target's height."""
    t = as_vec3(target)
    return PlaneFrame([0.0, 0.0, t[2]], [0.0, 0.0, 1.0])


def forward_model(calibration: LaserCalibration, beta,
                  plane: PlaneFrame) -> np.ndarray:
    """Predicted spot: beam from the commanded waypoint intersected with the plane.

    The beam anchors at the commanded waypoint p_w (origin plus offsets), not
    at the bare frame origin; an alternative reading that anchors the ray
    term at the frame origin would decouple the spot from beta entirely and
    is rejected here.
    """
    return ray_plane_intersect(calibration.beam(beta), plane)


def beta_jacobian(calibration: LaserCalibration, plane: PlaneFrame) -> np.ndarray:
    """(3, 2) derivative of the predicted spot wrt beta; constant for a fixed plane."""
    n, v = plane.normal, calibration.v_w
    d = float(np.dot(n, v))
    if abs(d) <= 1e-9:
        raise ParallelRay("beam parallel to the virtual plane")
    cols = []
    for axis in (calibration.frame.v_x, calibration.frame.v_y):
        cols.append(axis - (float(np.dot(n, axis)) / d) * v)
    return np.column_stack(cols)


@dataclass(frozen=True)
class IkSolution:
    beta: np.ndarray
    residual: float


def solve_ik(calibration: LaserCalibration, target,
             bounds=None, tol: float = IK_TOLERANCE) -> IkSolution:
    """Waypoint coordinates that drive the spot onto the target.

    ``bounds`` is an optional ((x_lo, x_hi), (y_lo, y_hi)) workspace box;
    solutions outside it (or residuals above ``tol``) raise Unreachable.
    """
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


@dataclass(frozen=True)
class CutPlan:
    """Ordered targets with their solved waypoints and per-target residuals."""

    targets: np.ndarray
    waypoints: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.targets, dtype=float).reshape(-1, 3)
        w = np.asarray(self.waypoints, dtype=float).reshape(-1, 2)
        r = np.asarray(self.residuals, dtype=float).reshape(-1)
        if not (len(t) == len(w) == len(r)):
            raise ValueError("targets, waypoints, residuals must align")
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "waypoints", w)
        object.__setattr__(self, "residuals", r)

    def __len__(self):
        return len(self.targets)


def plan_trajectory(calibration: LaserCalibration, targets,
                    bounds=None) -> CutPlan:
    """Solve the multi-target problem.

    The summed objective is separable across targets, so the optimum is the
    concatenation of single-target solutions; input order is preserved. The
    first failing target aborts with Unreachable carrying its index.
    """
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


@dataclass(frozen=True)
class ScanPattern:
    """Serpentine waypoint grid over a rectangular extent; construction checks
    that consecutive waypoints are at most one step diagonal apart."""

    waypoints: np.ndarray
    nx: int
    ny: int
    step: tuple[float, float]

    def __post_init__(self):
        w = np.asarray(self.waypoints, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "waypoints", w)
        if len(w) != self.nx * self.ny:
            raise ValueError("waypoint count must equal nx * ny")
        gaps = np.linalg.norm(np.diff(w, axis=0), axis=1)
        if len(gaps) and gaps.max() > max(self.step) * np.sqrt(2.0) + 1e-12:
            raise ValueError("serpentine gaps exceed one step diagonal")

    def __len__(self):
        return len(self.waypoints)


def raster_pattern(extent, points: int, origin=(0.0, 0.0)) -> ScanPattern:
    """Serpentine meshgrid of ``points`` waypoints (a perfect square total)
    over ``extent`` anchored at ``origin``.

    The order is fixed: rows run along x, and every odd row is reversed.
    """
    n = int(round(np.sqrt(points)))
    if n * n != points or n < 2:
        raise BadStep(f"points {points} is not a square count >= 4")
    sx, sy = float(extent[0]) / (n - 1), float(extent[1]) / (n - 1)
    x0, y0 = origin
    rows = []
    for j in range(n):
        xs = x0 + np.arange(n) * sx
        if j % 2 == 1:
            xs = xs[::-1]
        rows.append(np.column_stack([xs, np.full(n, y0 + j * sy)]))
    return ScanPattern(np.vstack(rows), n, n, (sx, sy))
