#!/usr/bin/env python3
"""Virtual depth scanner: analytic scene in, segmented surface out.

Renders a C-scan of a sphere-cap phantom (each A-scan carries a Gaussian
surface peak) one B-scan at a time straight to disk, reads it back B-scan
by B-scan to find its intensity range and to segment the surface by
per-A-scan argmax, and reports how closely the reconstruction tracks the
analytic height field. No step holds the whole volume. Artifacts land in
runs/demo02/.
"""

from pathlib import Path

import numpy as np

from resectsim.io import read_oct_volume, write_oct_volume, write_surface_ply
from resectsim.sensors import (
    OctConfig,
    ScenePhantom,
    render_oct_volume,
    segment_surface,
)

out = Path("runs/demo02")
out.mkdir(parents=True, exist_ok=True)

scene = ScenePhantom(
    primitives=(
        {"kind": "plane", "z": 2.0},
        {"kind": "sphere_cap", "center": [6.3, 6.4], "radius": 4.0,
         "height": 2.0},
    ),
    regions=({"label": "tumor", "kind": "disc", "center": [6.3, 6.4],
              "radius": 3.0},),
    albedo={"default": 0.9, "tumor": 0.35},
)

cfg = OctConfig(noise_amplitude=0.05)
print(f"scan geometry: {cfg.n_bscans} B-scans of {cfg.n_axial}x"
      f"{cfg.n_lateral}px, axial pitch {cfg.axial_pitch} mm, lateral "
      f"pitches {cfg.pitch_x:.4f} / {cfg.pitch_y:.4f} mm")

volume = render_oct_volume(scene, window=(0.0, 0.0), cfg=cfg, seed=1)
write_oct_volume(out / "volume", volume)
volume = read_oct_volume(out / "volume")
lo, hi = 1.0, 0.0
for b_scan in volume:
    lo, hi = min(lo, float(b_scan.min())), max(hi, float(b_scan.max()))
print("rendered intensity range:", lo, "-", hi)

cloud = segment_surface(volume)
valid = cloud.valid_mask()
pts = cloud.points[valid]
truth = scene.height(pts[:, 0], pts[:, 1])
err = np.abs(pts[:, 2] - truth)
print(f"segmented {valid.sum()} / {len(valid)} A-scans")
print(f"reconstruction error: max {err.max():.4f} mm, rms "
      f"{np.sqrt(np.mean(err ** 2)):.4f} mm "
      f"(one axial pixel = {cfg.axial_pitch} mm)")

write_surface_ply(out / "surface.ply", cloud)
print("wrote", out / "volume.f32", "and", out / "surface.ply")
