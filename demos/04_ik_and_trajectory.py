#!/usr/bin/env python3
"""Waypoint solving: forward model, single-target IK, multi-target plans.

Shows the forward spot prediction, inverts it for single targets, round-trips
a thousand random commands in one array pass, and plans a serpentine raster
plus an S-curve over a curved surface.
"""

import numpy as np

from resectsim.calibration import LaserCalibration
from resectsim.geometry import ReferenceFrame, normalize
from resectsim.kinematics import (
    forward_model,
    plan_trajectory,
    raster_pattern,
    solve_ik,
)

frame = ReferenceFrame([0.0, 0.0, 56.3], [1.0, 0.0, 0.0],
                       [np.cos(np.radians(88)), np.sin(np.radians(88)), 0.0])
calib = LaserCalibration(frame, alpha=(1.5, -2.0),
                         v_w=normalize([0.15, -0.05, -1.0]))

# --- forward model -----------------------------------------------------------
spot = forward_model(calib, beta=(2.0, 1.0), z=3.0)
print("commanded (2, 1) lands on the plane z = 3 at", spot.round(4))

# --- single-target inversion ---------------------------------------------------
target = np.array([5.0, 7.0, 3.0])
sol = solve_ik(calib, target)
print(f"target {target} needs waypoint {sol.beta.round(6)} "
      f"(residual {sol.residual:.2e} mm)")

# --- forward/inverse round trip -----------------------------------------------
rng = np.random.default_rng(0)
betas = rng.uniform(-6, 6, (1000, 2))
spots = forward_model(calib, betas, rng.uniform(0, 6, 1000))
back = plan_trajectory(calib, spots)
worst = float(np.max(np.abs(back.waypoints - betas)))
print(f"1000 forward/inverse round trips, worst waypoint error {worst:.2e} mm")

# --- raster pattern -------------------------------------------------------------
pattern = raster_pattern((13.0, 13.0), points=100)
print(f"\nraster: {pattern.nx}x{pattern.ny} at {pattern.step[0]:.3f} mm "
      "(serpentine); first four waypoints:")
print(pattern.waypoints[:4])

# --- trajectory over a curved surface -------------------------------------------
def surface_z(x, y):
    return 2.0 + 1.2 * np.exp(-((x - 6) ** 2 + (y - 6) ** 2) / 6.0)


t = np.linspace(0.0, 1.0, 60)
targets = np.column_stack([
    6.0 + 3.0 * np.sin(2 * np.pi * t),
    1.0 + 10.0 * t,
    surface_z(6.0 + 3.0 * np.sin(2 * np.pi * t), 1.0 + 10.0 * t),
])
plan = plan_trajectory(calib, targets)
print(f"\nS-curve over a bump: {len(plan)} targets, max residual "
      f"{plan.residuals.max():.2e} mm")
