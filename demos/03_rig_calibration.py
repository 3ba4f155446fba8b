#!/usr/bin/env python3
"""Laser rig calibration: recover beam direction and frame offsets.

Forward-generates spot observations on boards at four heights from a known
rig, then recovers the rig from scratch (vertical initial guess) and sweeps
the measurement noise to show how the fit residual scales. The observations
are one ``SpotObservations`` record: the commanded waypoints, board centers,
board normals and measured spots as (m, 2) and (m, 3) arrays, one row per
board shot.
"""

import numpy as np

from resectsim.calibration import (
    LaserCalibration,
    calibrate_laser_orientation,
    synthesize_spot_observations,
)
from resectsim.geometry import ReferenceFrame, normalize
from resectsim.kinematics import forward_model

frame = ReferenceFrame([0.0, 0.0, 56.3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
truth = LaserCalibration(frame, alpha=(1.5, -2.0),
                         v_w=normalize([0.2, -0.1, -0.97]))
print("true beam direction:", truth.v_w.round(6), "offsets:", truth.alpha)

betas = [(-4.0, -4.0), (4.0, 4.0)]
heights = [0.0, 2.0, 4.0, 6.0]

# --- noiseless recovery -----------------------------------------------------
obs = synthesize_spot_observations(truth, betas, heights)
print(f"{len(obs)} board shots: betas {obs.betas.shape}, "
      f"board centers {obs.centers.shape}, spots {obs.spots.shape}")
est = calibrate_laser_orientation(frame, obs)
angle = np.degrees(np.arccos(np.clip(np.dot(est.v_w, truth.v_w), -1, 1)))
print(f"\nnoiseless recovery from a vertical guess: beam error "
      f"{angle:.2e} deg, offset error "
      f"{np.max(np.abs(est.alpha - truth.alpha)):.2e} mm "
      f"({est.iterations} iterations, stopped on {est.stop})")

# --- noise sweep --------------------------------------------------------------
print("\nspot-noise sweep (8 observations, 4 board heights):")
print("sigma_mm  fit_rms_mm  beam_err_deg")
for sigma in (0.02, 0.05, 0.1, 0.2):
    rms_list, ang_list = [], []
    for seed in range(20):
        noisy = synthesize_spot_observations(
            truth, betas, heights, noise_sigma=sigma,
            rng=np.random.default_rng(seed))
        est = calibrate_laser_orientation(frame, noisy)
        rms_list.append(est.residual_rms)
        ang_list.append(np.degrees(np.arccos(
            np.clip(np.dot(est.v_w, truth.v_w), -1, 1))))
    print(f"{sigma:8.2f}  {np.mean(rms_list):10.3f}  {np.mean(ang_list):12.4f}")

# --- residual diagnostics ------------------------------------------------------
predicted = forward_model(truth, obs.betas, obs.centers[:, 2])
residuals = np.linalg.norm(predicted - obs.spots, axis=1)
rms = np.sqrt(np.mean(residuals**2))
print(f"\nreprojection of the true rig on its own spots: rms {rms:.2e} mm")
