"""Laser forward model, array IK, trajectory planning, raster grids.

The forward model composes the commanded waypoint (frame origin plus offsets
along the calibrated axes) with the beam/plane intersection. Because the
waypoint is affine in the commanded coordinates beta and the beam direction
is fixed after calibration, the predicted spot is affine in beta, and each
target is solved exactly by one linearized step; the solver still iterates
to polish floating-point error and to verify the residual.

Each target gets a horizontal virtual plane through its own height, which
makes every subproblem well-posed without estimating surface normals and
gives every target the same (3, 2) Jacobian. The Newton loop runs on all
targets of a plan at once, one least-squares solve with a right-hand side
per still-active target each turn; one target is the same loop on one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import LaserCalibration, predict_spots
from .errors import BadStep, ParallelRay, Unreachable
from .geometry import PARALLEL_EPS, as_vec3, normalize

IK_TOLERANCE = 1e-9  # mm
UP = np.array([0.0, 0.0, 1.0])


def forward_model(calibration: LaserCalibration, beta, z) -> np.ndarray:
    """Predicted spots of waypoints ``beta`` ((2,) or (n, 2)) on the
    horizontal planes at heights ``z`` (one, or one per waypoint).

    The beam anchors at the commanded waypoint p_w (origin plus offsets),
    not at the bare frame origin, which would decouple the spot from beta.
    Its direction is ``v_w`` normalized once more, as the mapping's ray
    casts take it.
    """
    direction = normalize(calibration.v_w)
    if abs(direction[2]) <= PARALLEL_EPS:
        raise ParallelRay("beam parallel to the virtual plane")
    center = np.zeros(np.shape(z) + (3,))
    center[..., 2] = z
    spots, _, _ = predict_spots(calibration.frame, calibration.alpha, beta,
                                direction, UP, center)
    return spots


def beta_jacobian(calibration: LaserCalibration) -> np.ndarray:
    """(3, 2) derivative of the predicted spot wrt beta on a horizontal plane."""
    v, frame = calibration.v_w, calibration.frame
    if abs(v[2]) <= 1e-9:
        raise ParallelRay("beam parallel to the virtual plane")
    return np.column_stack([a - (a[2] / v[2]) * v
                            for a in (frame.v_x, frame.v_y)])


def _solve(calibration: LaserCalibration, targets: np.ndarray, bounds,
           tol: float):
    """(waypoints (n, 2), residuals (n,)) of the Newton loop on all targets:
    a row stops at residual <= ``tol * 0.01`` or a non-finite step, after at
    most 10 steps. The first row above ``tol`` or outside ``bounds`` raises
    Unreachable with its index."""
    beta = np.zeros((len(targets), 2))
    if not len(targets):
        return beta, np.zeros(0)
    jac = beta_jacobian(calibration)
    diff = forward_model(calibration, beta, targets[:, 2]) - targets
    residual = np.sqrt(np.vecdot(diff, diff))
    active = np.arange(len(targets))
    for _ in range(10):
        active = active[~(residual[active] <= tol * 0.01)]
        if not len(active):
            break
        step = np.linalg.lstsq(jac, -diff[active].T, rcond=None)[0].T
        finite = np.all(np.isfinite(step), axis=1)
        active, step = active[finite], step[finite]
        beta[active] += step
        diff[active] = (forward_model(calibration, beta[active],
                                      targets[active, 2]) - targets[active])
        # vecdot takes the norm as np.linalg.norm does for one row
        residual[active] = np.sqrt(np.vecdot(diff[active], diff[active]))
    failed = residual > tol
    if bounds is not None:
        (xl, xh), (yl, yh) = bounds
        x, y = beta.T
        failed |= ~((xl <= x) & (x <= xh) & (yl <= y) & (y <= yh))
    if failed.any():
        k = int(np.argmax(failed))
        if residual[k] > tol:
            raise Unreachable(f"IK residual {residual[k]:.3e} mm above "
                              f"tolerance {tol:.1e}", index=k)
        raise Unreachable(f"waypoint {beta[k]} outside workspace bounds "
                          f"{bounds}", index=k)
    return beta, residual


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
    beta, residual = _solve(calibration, as_vec3(target)[None], bounds, tol)
    return IkSolution(beta[0], float(residual[0]))


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
    concatenation of single-target solutions; input order is preserved and
    every row has the bits its single-target solve gives. The first failing
    target aborts with Unreachable carrying its index; a non-finite target
    before it raises ValueError.
    """
    targets = np.asarray(targets, dtype=float).reshape(-1, 3)
    finite = np.all(np.isfinite(targets), axis=1)
    n = int(np.argmin(finite)) if not finite.all() else len(targets)
    try:
        waypoints, residuals = _solve(calibration, targets[:n], bounds,
                                      IK_TOLERANCE)
    except Unreachable as exc:
        raise Unreachable(f"target {exc.index}: {exc}",
                          index=exc.index) from exc
    if n < len(targets):
        raise ValueError("vector components must be finite")
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
