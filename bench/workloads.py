"""The three benchmark workloads: their inputs per seed and their checks.

A workload is a list of runner calls made from ``--seed``. One trial makes
every call once, each into its own subdirectory of a fresh trial directory.
The warm-up makes a smaller set of calls through the same runners so that
first-use costs (lazy imports, allocator growth) stay out of the timed
trials. This module does not import resectsim; runners are looked up on
``resectsim.harness`` when a call is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import checks

# The default scene, written out here so the checks know its geometry.
PLANE_Z = 3.0
DISC_CENTER = (6.3, 6.4)
DISC_RADIUS = 5.0
SCENE = {
    "primitives": [{"kind": "plane", "z": PLANE_Z}],
    "regions": [{"label": "tumor", "kind": "disc",
                 "center": list(DISC_CENTER), "radius": DISC_RADIUS}],
    "albedo": {"default": 0.9, "tumor": 0.35},
}

ROI_EPOCHS = 20
ROI_POINTS = 2500
STUDY_SEEDS_PER_TRIAL = 10
PROFILES = ("diode", "tumorid", "fiber")

# Tags farther than this from the disc edge must carry their side's label.
# The label belongs to the executed spot, which spot noise (sigma <= 0.3 mm)
# and calibration error move away from the tag's estimated position.
FAR_TAG_MARGIN = 2.0  # mm


@dataclass(frozen=True)
class Call:
    """One runner call: output subdirectory, runner name, config, kwargs."""

    subdir: str
    runner: str
    config: dict
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    trial_calls: object  # seed -> list[Call]
    warmup_calls: object  # seed -> list[Call]
    check_call: object  # (call, call directory) -> list[str]


def _base(seed: int, **kw) -> dict:
    return {"seed": seed, "scene": SCENE, "profile": "diode",
            "noiseless": False, **kw}


# ---------------------------------------------------------------------------
# e2e-threshold
# ---------------------------------------------------------------------------


def _e2e_config(seed: int) -> dict:
    return _base(seed, classifier="threshold", scan_points=100)


def _e2e_calls(seed: int):
    return [Call("e2e", "run_end_to_end", _e2e_config(seed))]


def _e2e_warmup(seed: int):
    return [Call("e2e", "run_end_to_end", _e2e_config(seed),
                 {"through_stage": "scan"})]


def _region_checks(d: Path, report: dict, tags_ply: str, boundary_json: str,
                   plan_csv: str):
    """Checks shared by the e2e and ROI runners."""
    xyz, label = checks.read_tags(d / tags_ply)
    vertices = checks.read_json(d / boundary_json)["vertices"]
    betas, targets = checks.read_plan(d / plan_csv)
    calibration = checks.read_json(d / "laser_calibration.json")
    regions = report["regions"]
    return (checks.check_boundary(vertices, xyz[:, :2], label)
            + checks.check_cut_targets(targets, xyz, vertices)
            + checks.check_plan_replay(betas, targets, calibration)
            + checks.check_algorithm_iou(regions["algorithm"]["iou"],
                                         vertices, DISC_CENTER, DISC_RADIUS)
            + checks.check_iou_identity(regions)
            + checks.check_far_tags(xyz[:, :2], label, DISC_CENTER,
                                    DISC_RADIUS, FAR_TAG_MARGIN))


def _e2e_check(call: Call, d: Path):
    report = checks.read_json(d / "e2e_report.json")
    pitch = checks.read_json(d / "oct_volume.json")["axial_pitch_mm"]
    return (checks.check_surface_heights(d / "surface.ply", PLANE_Z, pitch)
            + checks.check_volume(d / "oct_volume.json", d / "oct_volume.f32")
            + _region_checks(d, report, "tumor_map.ply", "boundary.json",
                             "cut_plan.csv"))


# ---------------------------------------------------------------------------
# roi-mlp-dense
# ---------------------------------------------------------------------------


def _roi_calls(seed: int):
    cfg = _base(seed, classifier="mlp", scan_points=ROI_POINTS,
                mlp_epochs=ROI_EPOCHS)
    return [Call("roi", "run_roi_experiment", cfg)]


def _roi_warmup(seed: int):
    cfg = _base(seed, classifier="mlp", scan_points=16, mlp_epochs=1,
                mlp_train_per_class=16)
    return [Call("roi", "run_roi_experiment", cfg)]


def _roi_check(call: Call, d: Path):
    report = checks.read_json(d / "roi_report.json")
    return _region_checks(d, report, "roi_tags.ply", "roi_boundary.json",
                          "roi_plan.csv")


# ---------------------------------------------------------------------------
# phantom-studies
# ---------------------------------------------------------------------------


def study_seeds(seed: int, n: int = STUDY_SEEDS_PER_TRIAL):
    return [n * seed + i for i in range(n)]


def _studies(seeds):
    calls = []
    for s in seeds:
        for profile in PROFILES:
            for noiseless in (False, True):
                cfg = {"seed": s, "scene": SCENE, "profile": profile,
                       "noiseless": noiseless}
                tag = f"{profile}-{'noiseless' if noiseless else 'noisy'}-s{s}"
                calls.append(Call(f"marker-{tag}", "run_marker_experiment",
                                  cfg))
                calls.append(Call(f"trajectory-{tag}",
                                  "run_trajectory_experiment", cfg))
    return calls


def _phantom_calls(seed: int):
    return _studies(study_seeds(seed))


def _phantom_warmup(seed: int):
    return _studies(study_seeds(seed)[:1])


def _phantom_check(call: Call, d: Path):
    study = "marker" if call.runner == "run_marker_experiment" else "trajectory"
    report = checks.read_json(d / f"{study}_report.json")
    betas, targets = checks.read_plan(d / f"{study}_plan.csv")
    calibration = checks.read_json(d / "laser_calibration.json")
    fails = checks.check_plan_replay(betas, targets, calibration)
    if call.config["noiseless"]:
        fails += checks.check_noiseless_errors(report)
    return fails


WORKLOADS = {
    w.name: w for w in (
        Workload("e2e-threshold", _e2e_calls, _e2e_warmup, _e2e_check),
        Workload("roi-mlp-dense", _roi_calls, _roi_warmup, _roi_check),
        Workload("phantom-studies", _phantom_calls, _phantom_warmup,
                 _phantom_check),
    )
}
