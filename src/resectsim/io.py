"""File formats: JSON reports, ASCII PLY clouds, CSV ledgers, raw volumes.

Every writer is deterministic (fixed key order, fixed float formatting, no
timestamps), so identical inputs produce byte-identical files. CSV floats
use repr, which round-trips exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .calibration import Correspondence2D3D, LaserCalibration, LaserSpotObservation
from .geometry import PlaneFrame, ReferenceFrame, SurfaceCloud
from .kinematics import CutPlan
from .sensors import OctConfig, OctVolume
from .spectra import MlpModel


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return path


def read_json(path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------


def write_ply_cloud(path, points, color=None, label=None) -> Path:
    """ASCII PLY: x y z [red green blue] [label]. Label is a 0/1/2 scalar."""
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


def read_ply_cloud(path):
    """Read back points (N,3), color (N,3) or None, label (N,) or None."""
    text = Path(path).read_text().splitlines()
    n = 0
    props = []
    body_at = 0
    for i, line in enumerate(text):
        if line.startswith("element vertex"):
            n = int(line.split()[-1])
        elif line.startswith("property"):
            props.append(line.split()[-1])
        elif line == "end_header":
            body_at = i + 1
            break
    rows = [line.split() for line in text[body_at:body_at + n]]
    arr = np.array(rows, dtype=float)
    pts = arr[:, :3]
    color = None
    label = None
    if "red" in props:
        k = props.index("red")
        color = arr[:, k:k + 3].astype(np.uint8)
    if "label" in props:
        label = arr[:, props.index("label")].astype(int)
    return pts, color, label


# ---------------------------------------------------------------------------
# Volumes
# ---------------------------------------------------------------------------


def write_oct_volume(path_base, volume: OctVolume) -> tuple[Path, Path]:
    """Raw little-endian float32 plus a JSON sidecar with shape and pitches."""
    base = Path(path_base)
    raw = base.with_suffix(".f32")
    volume.b_scans.astype("<f4").tofile(raw)
    cfg = volume.config
    sidecar = write_json(base.with_suffix(".json"), {
        "dtype": "float32-le",
        "shape": [cfg.n_bscans, cfg.n_axial, cfg.n_lateral],
        "axial_pitch_mm": cfg.axial_pitch,
        "lateral_pitch_x_mm": cfg.pitch_x,
        "lateral_pitch_y_mm": cfg.pitch_y,
        "extent_x_mm": cfg.extent_x,
        "extent_y_mm": cfg.extent_y,
        "origin_xy_mm": list(volume.origin),
    })
    return raw, sidecar


def read_oct_volume(path_base) -> OctVolume:
    base = Path(path_base)
    meta = read_json(base.with_suffix(".json"))
    shape = tuple(meta["shape"])
    data = np.fromfile(base.with_suffix(".f32"), dtype="<f4").reshape(shape)
    cfg = OctConfig(
        n_bscans=shape[0], n_axial=shape[1], n_lateral=shape[2],
        axial_pitch=meta["axial_pitch_mm"],
        extent_x=meta["extent_x_mm"], extent_y=meta["extent_y_mm"],
    )
    return OctVolume(data, cfg, tuple(meta["origin_xy_mm"]))


# ---------------------------------------------------------------------------
# Calibration data
# ---------------------------------------------------------------------------


def write_correspondences_csv(path, correspondences) -> Path:
    path = Path(path)
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["u", "v", "X", "Y", "Z"])
        for c in correspondences:
            w.writerow([repr(float(x)) for x in (*c.image_point, *c.world_point)])
    return path


def read_correspondences_csv(path):
    out = []
    with Path(path).open() as f:
        for row in csv.DictReader(f):
            out.append(Correspondence2D3D(
                [float(row["u"]), float(row["v"])],
                [float(row["X"]), float(row["Y"]), float(row["Z"])],
            ))
    return out


def write_spot_observations_csv(path, observations) -> Path:
    path = Path(path)
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["beta_x", "beta_y", "px", "py", "pz",
                    "nx", "ny", "nz", "sx", "sy", "sz"])
        for o in observations:
            w.writerow([repr(float(x)) for x in
                        (*o.beta, *o.plane.center, *o.plane.normal,
                         *o.spot_center)])
    return path


def read_spot_observations_csv(path):
    out = []
    with Path(path).open() as f:
        for row in csv.DictReader(f):
            out.append(LaserSpotObservation(
                [float(row["beta_x"]), float(row["beta_y"])],
                PlaneFrame(
                    [float(row["px"]), float(row["py"]), float(row["pz"])],
                    [float(row["nx"]), float(row["ny"]), float(row["nz"])],
                ),
                [float(row["sx"]), float(row["sy"]), float(row["sz"])],
            ))
    return out


def laser_calibration_to_dict(calibration: LaserCalibration) -> dict:
    return {
        "frame": {
            "origin": calibration.frame.origin.tolist(),
            "v_x": calibration.frame.v_x.tolist(),
            "v_y": calibration.frame.v_y.tolist(),
        },
        "alpha": calibration.alpha.tolist(),
        "v_w": calibration.v_w.tolist(),
        "residual_rms": calibration.residual_rms,
        "iterations": calibration.iterations,
    }


def laser_calibration_from_dict(d: dict) -> LaserCalibration:
    frame = ReferenceFrame(d["frame"]["origin"], d["frame"]["v_x"],
                           d["frame"]["v_y"])
    return LaserCalibration(frame, d["alpha"], d["v_w"],
                            residual_rms=d.get("residual_rms", 0.0),
                            iterations=d.get("iterations", 0))


# ---------------------------------------------------------------------------
# Plans and spectra
# ---------------------------------------------------------------------------


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


def write_cut_plan_json(path, plan: CutPlan) -> Path:
    return write_json(path, {
        "waypoints": plan.waypoints.tolist(),
        "targets": plan.targets.tolist(),
        "residuals": plan.residuals.tolist(),
    })


def read_cut_plan_csv(path) -> CutPlan:
    betas, targets, residuals = [], [], []
    with Path(path).open() as f:
        for row in csv.DictReader(f):
            betas.append([float(row["beta_x"]), float(row["beta_y"])])
            targets.append([float(row["px"]), float(row["py"]),
                            float(row["pz"])])
            residuals.append(float(row["residual"]))
    return CutPlan(np.array(targets).reshape(-1, 3),
                   np.array(betas).reshape(-1, 2),
                   np.array(residuals))


def write_spectra_csv(path_base, wavelengths, intensity_rows,
                      subjects, labels) -> tuple[Path, Path]:
    """First CSV row is the wavelength grid; each later row one spectrum.

    The JSON sidecar carries one {subject, label} record per spectrum row.
    """
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


def read_spectra_csv(path_base):
    base = Path(path_base)
    with base.with_suffix(".csv").open() as f:
        rows = [[float(x) for x in row] for row in csv.reader(f) if row]
    meta = read_json(base.with_suffix(".sidecar.json"))
    wavelengths = np.array(rows[0])
    intensities = np.array(rows[1:])
    subjects = [m["subject"] for m in meta]
    labels = [m["label"] for m in meta]
    return wavelengths, intensities, subjects, labels


def write_mlp_json(path, model: MlpModel) -> Path:
    return write_json(path, {
        "layer_sizes": model.layer_sizes,
        "weights": [w.ravel().tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "norm_mean": model.norm_mean,
        "norm_std": model.norm_std,
        "seed": model.seed,
    })


def read_mlp_json(path) -> MlpModel:
    d = read_json(path)
    sizes = d["layer_sizes"]
    weights = [
        np.array(w).reshape(sizes[i], sizes[i + 1])
        for i, w in enumerate(d["weights"])
    ]
    biases = [np.array(b) for b in d["biases"]]
    return MlpModel(weights, biases, d["norm_mean"], d["norm_std"], d["seed"])


# ---------------------------------------------------------------------------
# Results ledger
# ---------------------------------------------------------------------------

LEDGER_COLUMNS = ["trial", "kind", "mean", "std", "rmse", "iou",
                  "undercut", "overcut"]


def append_region_reports_csv(path, trial: str, reports) -> Path:
    """One ledger row per comparison kind; creates the header when new."""
    path = Path(path)
    new = not path.exists()
    with path.open("a", newline="") as f:
        w = csv.writer(f)
        if new:
            w.writerow(LEDGER_COLUMNS)
        for rep in reports:
            w.writerow([trial, rep.kind] + [
                repr(float(v)) for v in
                (rep.mean, rep.std, rep.rmse, rep.iou, rep.undercut,
                 rep.overcut)
            ])
    return path


def write_surface_ply(path, cloud: SurfaceCloud) -> Path:
    mask = cloud.valid_mask()
    color = cloud.color[mask] if cloud.color is not None else None
    label = cloud.label[mask] if cloud.label is not None else None
    return write_ply_cloud(path, cloud.points[mask], color, label)
