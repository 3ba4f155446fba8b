"""File formats: JSON reports, ASCII PLY clouds, CSV ledgers, raw volumes.

Raw volumes are written and read back one B-scan at a time; the e2e scan
segments the surface from the volume it has just written.

Every writer is deterministic (fixed key order, fixed float formatting, no
timestamps), so identical inputs produce byte-identical files. CSV floats
use repr, which round-trips exactly; the float tables go through one
writer, ``_write_csv_rows``, with ``csv.writer``'s comma and CRLF line end.
PLY floats use ``%.9g``, formatted once per distinct value of each column.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .calibration import LaserCalibration
from .errors import LengthMismatch
from .geometry import SurfaceCloud
from .kinematics import CutPlan
from .sensors import BScanStream, OctConfig, OctVolume
from .spectra import MlpModel


def _write_csv_rows(path, rows, header=()) -> Path:
    """A CSV header of plain names, then one line of ``repr`` per row of
    Python numbers (``tolist()`` rows): the text ``csv.writer`` writes for
    them, since no such name or repr holds a comma, quote or line break."""
    path = Path(path)
    with path.open("w", newline="") as f:
        if header:
            f.write(",".join(header) + "\r\n")
        f.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
    return path


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------


def _column_text(values, fmt) -> np.ndarray:
    """``fmt`` of every element, called once per distinct element.

    Floats are keyed on their bits, not their values: ``np.unique`` would
    merge -0.0 with 0.0 (and every nan), which print differently.
    """
    values = np.ascontiguousarray(values)
    keys = values
    if values.dtype.kind == "f":
        keys = values.view(f"i{values.itemsize}")
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    return np.array([fmt(v) for v in values[first]], dtype=object)[inverse]


def _integer_text(c) -> str:
    return str(int(c))


def write_ply_cloud(path, points, color=None, label=None) -> Path:
    """ASCII PLY: x y z [red green blue] [label]. Label is a 0/1/2 scalar.

    Coordinates are written with ``%.9g``, colours and labels as integers;
    each column formats each of its distinct values once.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    lines = ["ply", "format ascii 1.0", f"element vertex {n}",
             "property float x", "property float y", "property float z"]
    columns = [_column_text(points[:, k], "%.9g".__mod__) for k in range(3)]
    if color is not None:
        color = np.asarray(color).reshape(-1, 3)
        lines += ["property uchar red", "property uchar green",
                  "property uchar blue"]
        columns += [_column_text(color[:, k], _integer_text)
                    for k in range(3)]
    if label is not None:
        label = np.asarray(label).reshape(-1)
        lines += ["property uchar label"]
        columns.append(_column_text(label, _integer_text))
    if any(len(col) != n for col in columns):
        raise LengthMismatch(
            f"colour or label rows do not match the {n} points")
    lines.append("end_header")
    lines += map(" ".join, zip(*columns))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Volumes
# ---------------------------------------------------------------------------


def write_oct_volume(path_base, volume: OctVolume) -> tuple[Path, Path]:
    """Raw little-endian float32 plus a JSON sidecar with shape and pitches.

    Takes one pass over the volume and appends each B-scan to the raw file
    as it comes, so a lazily rendered volume is never held whole.
    """
    base = Path(path_base)
    raw = base.with_suffix(".f32")
    with raw.open("wb") as f:
        for b_scan in volume:
            b_scan.astype("<f4", copy=False).tofile(f)
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
    """The volume ``write_oct_volume`` wrote, read lazily: each pass over
    it reads the raw file one B-scan at a time."""
    base = Path(path_base)
    meta = json.loads(base.with_suffix(".json").read_text())
    n_bscans, n_axial, n_lateral = meta["shape"]
    cfg = OctConfig(n_bscans=n_bscans, n_axial=n_axial, n_lateral=n_lateral,
                    axial_pitch=meta["axial_pitch_mm"],
                    extent_x=meta["extent_x_mm"],
                    extent_y=meta["extent_y_mm"])
    raw = base.with_suffix(".f32")

    def b_scans():
        with raw.open("rb") as f:
            for _ in range(n_bscans):
                yield np.fromfile(f, dtype="<f4", count=n_axial * n_lateral
                                  ).reshape(n_axial, n_lateral)

    return OctVolume(BScanStream(b_scans), cfg, tuple(meta["origin_xy_mm"]))


# ---------------------------------------------------------------------------
# Calibration data
# ---------------------------------------------------------------------------


def write_spot_observations_csv(path, observations) -> Path:
    rows = [np.concatenate((o.beta, o.plane.center, o.plane.normal,
                            o.spot_center), dtype=float).tolist()
            for o in observations]
    return _write_csv_rows(
        path, rows, header=("beta_x", "beta_y", "px", "py", "pz",
                            "nx", "ny", "nz", "sx", "sy", "sz"))


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


# ---------------------------------------------------------------------------
# Plans and spectra
# ---------------------------------------------------------------------------


def write_cut_plan_csv(path, plan: CutPlan) -> Path:
    rows = np.column_stack(
        (plan.waypoints, plan.targets, plan.residuals)).astype(float).tolist()
    return _write_csv_rows(
        path, ([k, *row] for k, row in enumerate(rows)),
        header=("k", "beta_x", "beta_y", "px", "py", "pz", "residual"))


def write_spectra_csv(path_base, wavelengths, intensity_rows,
                      subjects, labels) -> tuple[Path, Path]:
    """First CSV row is the wavelength grid; each later row one spectrum.

    The JSON sidecar carries one {subject, label} record per spectrum row.
    """
    base = Path(path_base)
    csv_path = _write_csv_rows(base.with_suffix(".csv"), [
        np.asarray(wavelengths, dtype=float).tolist(),
        *np.asarray(intensity_rows, dtype=float).tolist()])
    sidecar = write_json(base.with_suffix(".sidecar.json"), [
        {"subject": str(s), "label": str(l)}
        for s, l in zip(subjects, labels)
    ])
    return csv_path, sidecar


def write_mlp_json(path, model: MlpModel) -> Path:
    return write_json(path, {
        "layer_sizes": model.layer_sizes,
        "weights": [w.ravel().tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "norm_mean": model.norm_mean,
        "norm_std": model.norm_std,
        "seed": model.seed,
    })


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
