"""Readers for the artifact formats that ``resectsim.io`` writes.

No run reads these artifacts back, so these readers live with the
round-trip tests in ``test_io.py`` that hold the writers to them. The raw
volume's reader is the exception: ``resectsim.io.read_oct_volume`` stays
in the library for the scanner demo, though the e2e scan segments each
B-scan in the pass that writes it and reads nothing back.
"""

import csv
import json
from pathlib import Path

import numpy as np

from resectsim.calibration import LaserCalibration, SpotObservations
from resectsim.geometry import ReferenceFrame
from resectsim.kinematics import CutPlan
from resectsim.spectra import MlpModel


def read_json(path):
    return json.loads(Path(path).read_text())


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


def read_spot_observations_csv(path) -> SpotObservations:
    with Path(path).open() as f:
        rows = list(csv.DictReader(f))

    def columns(*names):
        return np.array([[float(r[k]) for k in names] for r in rows],
                        dtype=float).reshape(-1, len(names))

    return SpotObservations(columns("beta_x", "beta_y"),
                            columns("px", "py", "pz"),
                            columns("nx", "ny", "nz"),
                            columns("sx", "sy", "sz"))


def laser_calibration_from_dict(d: dict) -> LaserCalibration:
    frame = ReferenceFrame(d["frame"]["origin"], d["frame"]["v_x"],
                           d["frame"]["v_y"])
    return LaserCalibration(frame, d["alpha"], d["v_w"],
                            residual_rms=d.get("residual_rms", 0.0),
                            iterations=d.get("iterations", 0))


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


def read_mlp_json(path) -> MlpModel:
    d = read_json(path)
    sizes = d["layer_sizes"]
    weights = [
        np.array(w).reshape(sizes[i], sizes[i + 1])
        for i, w in enumerate(d["weights"])
    ]
    biases = [np.array(b) for b in d["biases"]]
    return MlpModel(weights, biases, d["norm_mean"], d["norm_std"], d["seed"])
