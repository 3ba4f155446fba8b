"""Experiment drivers: phantom studies and the full scan-to-report loop.

Every run is a pure function of (config, seed): noise streams are derived
from the seed with per-stage salts, file writers are deterministic, and
wall-clock timings stay in memory (TrialResult.timings) so artifacts are
byte-identical across repeats.

Noise model. Each laser profile carries a synthetic ground-truth calibration
plus two sigmas: ``calib_sigma`` perturbs the measured spot centers on the
calibration boards (so the estimated calibration is imperfect), and
``spot_sigma`` perturbs executed spot centers laterally (so the traced
region differs from the commanded one). The three profiles differ only in
these synthetic parameters. With ``noiseless: true`` the phantom runners
calibrate from exact board data, while the region-tracking runners
(roi, e2e) use the ground-truth calibration directly, which is what
"perfect calibration" means for their closed-loop checks.

Stages. Each runner yields its stage names in order, and one loop drives
all four: a stage's entry in TrialResult.timings runs from the end of the
previous stage, so it includes that stage's artifact writes, and the
report is written once, after the last stage that ran.

Region comparisons follow the three-way convention: system = actual vs
true, algorithm = predicted vs true, calibration = actual vs predicted,
with edge errors directed from the achieved outline to the reference one.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as rio
from .calibration import (
    AxisObservation,
    Correspondence2D3D,
    LaserCalibration,
    beam_from_angles,
    calibrate_laser_axes,
    calibrate_laser_orientation,
    estimate_camera_extrinsics,
    synthesize_spot_observations,
    waypoint_position,
)
from .errors import ConfigError, NoRayHit
from .geometry import Ray, SurfaceCloud, nearest_neighbor, triangulate_grid
from .kinematics import plan_trajectory, raster_pattern, solve_ik
from .mapping import (
    SpotLocator,
    boundary_from_tags,
    build_tumor_tags,
    colorize_surface,
    convex_hull,
    select_cut_targets,
)
from .metrics import (
    Region2D,
    compare_regions,
    disc_polygon,
    summarize,
)
from .sensors import (
    OctConfig,
    PinholeCamera,
    ScenePhantom,
    intersect_scene,
    project_points,
    project_world_to_image,
    render_oct_volume,
    segment_surface,
    synth_spectrum,
)
from .spectra import (
    HEALTHY,
    TUMOR,
    ThresholdClassifier,
    TrainConfig,
    classification_metrics,
    mlp_predict,
    mlp_train,
    preprocess,
    threshold_classify,
)

WORKING_DISTANCE = 56.3  # mm

# fixed band and cutoff of the phantom threshold rule
PHANTOM_RULE = ThresholdClassifier(((495.0, 570.0),), 0.50, 0.0, "low")

REGION_COLORS = {HEALTHY: (205, 180, 170), TUMOR: (70, 60, 150)}
IMAGE_BACKGROUND = (15, 15, 15)

# rng salts, one stream per noise source
_SALT_CALIB = 1
_SALT_SPOT = 2
_SALT_PIXELS = 3
_SALT_EXTRINSICS = 4
_SALT_OCT = 5


@dataclass(frozen=True)
class LaserProfile:
    """Synthetic rig: ground-truth calibration plus noise sigmas (mm)."""

    name: str
    tilt_deg: tuple[float, float]  # beam tilt angles (about x, about y)
    alpha: tuple[float, float]
    axis_skew_deg: float  # angle between the two commanded axes
    spot_sigma: float
    calib_sigma: float
    pixel_sigma: float


PROFILES = {
    "diode": LaserProfile("diode", (4.0, -2.5), (1.5, -2.0), 88.0, 0.30, 0.10, 0.5),
    "tumorid": LaserProfile("tumorid", (-3.0, 2.0), (-2.0, 1.0), 91.5, 0.28, 0.10, 0.5),
    "fiber": LaserProfile("fiber", (2.0, 1.0), (0.8, 0.5), 90.0, 0.08, 0.04, 0.3),
}


def truth_calibration(profile: LaserProfile,
                      tilt_deg: float | None = None) -> LaserCalibration:
    """Ground-truth rig for a profile; ``tilt_deg`` overrides the beam tilt."""
    if tilt_deg is not None:
        theta, phi = np.radians(tilt_deg), 0.0
    else:
        theta, phi = np.radians(profile.tilt_deg)
    skew = np.radians(profile.axis_skew_deg)
    frame = calibrate_laser_axes(
        [0.0, 0.0, WORKING_DISTANCE],
        AxisObservation("x", [0, 0, WORKING_DISTANCE], [10, 0, WORKING_DISTANCE]),
        AxisObservation("y", [0, 0, WORKING_DISTANCE],
                        [10 * np.cos(skew), 10 * np.sin(skew), WORKING_DISTANCE]),
    )
    return LaserCalibration(frame, profile.alpha, beam_from_angles(theta, phi))


DEFAULT_SCENE = {
    "primitives": [{"kind": "plane", "z": 3.0}],
    "regions": [
        {"label": "tumor", "kind": "disc", "center": [6.3, 6.4], "radius": 5.0}
    ],
    "albedo": {"default": 0.9, "tumor": 0.35},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Run description; everything needed to reproduce a trial byte-for-byte."""

    seed: int
    scene: dict = field(default_factory=lambda: dict(DEFAULT_SCENE))
    scan_extent: tuple[float, float] = (13.0, 13.0)
    scan_points: int = 100
    profile: str = "diode"
    classifier: str = "threshold"  # threshold | mlp | perfect
    noiseless: bool = True
    tilt_deg: float | None = None
    spot_diameter: float = 0.4
    uncertain_policy: str = HEALTHY
    oct_noise: float = 0.0
    mlp_epochs: int = 150
    mlp_train_per_class: int = 120

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile '{self.profile}'")
        if self.classifier not in ("threshold", "mlp", "perfect"):
            raise ConfigError(f"unknown classifier '{self.classifier}'")
        side = int(round(np.sqrt(self.scan_points)))
        if side < 2 or side * side != self.scan_points:
            raise ConfigError("scan_points must be a perfect square >= 4")
        if self.uncertain_policy not in (HEALTHY, TUMOR):
            raise ConfigError("uncertain_policy must map to a hard label")
        if not (len(self.scan_extent) == 2
                and all(e > 0 for e in self.scan_extent)):
            raise ConfigError("scan_extent must be two positive lengths")
        if not self.spot_diameter > 0:
            raise ConfigError("spot_diameter must be positive")
        if self.mlp_epochs < 1 or self.mlp_train_per_class < 1:
            raise ConfigError("mlp_epochs and mlp_train_per_class must be >= 1")
        try:
            OctConfig(noise_amplitude=self.oct_noise)
        except ValueError as exc:
            raise ConfigError(f"invalid oct_noise: {exc}") from exc
        try:
            ScenePhantom.from_dict(self.scene)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid scene: {exc}") from exc

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if "seed" not in d:
            raise ConfigError("config must set a seed (reproducibility)")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        d = dict(d)
        try:
            if "scan_extent" in d:
                d["scan_extent"] = tuple(d["scan_extent"])
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            return cls.from_dict(json.loads(path.read_text()))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc


@dataclass
class TrialResult:
    """Artifact paths plus the top-level report; timings never hit disk."""

    artifacts: dict
    report: dict
    timings: dict


def _run_stages(stages, cfg: ExperimentConfig, out_dir, report_name: str,
                through_stage: str | None = None) -> TrialResult:
    """Drive one runner's stage generator, then write its report once.

    ``stages(cfg, out, result)`` fills ``result.artifacts`` and
    ``result.report`` and yields each stage's name once the stage and its
    artifact writes are done. Each stage is timed from the end of the one
    before it; the run stops after ``through_stage``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = TrialResult({}, {}, {})
    t0 = time.perf_counter()
    for stage in stages(cfg, out, result):
        t1 = time.perf_counter()
        result.timings[stage] = t1 - t0
        t0 = t1
        if stage == through_stage:
            break
    result.artifacts["report"] = rio.write_json(out / report_name,
                                                result.report)
    return result


def _rng(cfg: ExperimentConfig, salt: int):
    return np.random.default_rng([cfg.seed, salt])


def _scene(cfg: ExperimentConfig) -> ScenePhantom:
    return ScenePhantom.from_dict(cfg.scene)


def _scan_center(cfg: ExperimentConfig) -> tuple[float, float]:
    oct_cfg = OctConfig()
    return oct_cfg.extent_x / 2.0, oct_cfg.extent_y / 2.0


BOARD_BETAS = [(-4.0, -4.0), (4.0, -4.0), (4.0, 4.0), (-4.0, 4.0)]
BOARD_HEIGHTS = [0.0, 2.0, 4.0, 6.0]


def calibrate_laser_from_boards(cfg: ExperimentConfig,
                                truth: LaserCalibration):
    """Step-1 axis fit plus step-2 orientation fit from synthesized boards."""
    rng = _rng(cfg, _SALT_CALIB)
    sigma = 0.0 if cfg.noiseless else PROFILES[cfg.profile].calib_sigma

    def tip(beta):
        p = waypoint_position(truth.frame, truth.alpha, beta)
        return p if sigma == 0 else p + rng.normal(0.0, sigma, 3)

    frame = calibrate_laser_axes(
        [0.0, 0.0, WORKING_DISTANCE],
        AxisObservation("x", tip((0.0, 0.0)), tip((10.0, 0.0))),
        AxisObservation("y", tip((0.0, 0.0)), tip((0.0, 10.0))),
    )
    observations = synthesize_spot_observations(
        truth, BOARD_BETAS, BOARD_HEIGHTS, noise_sigma=sigma, rng=rng)
    estimated = calibrate_laser_orientation(frame, observations)
    return estimated, observations


def _effective_calibrations(cfg, perfect_when_noiseless: bool):
    truth = truth_calibration(PROFILES[cfg.profile], cfg.tilt_deg)
    if cfg.noiseless and perfect_when_noiseless:
        return truth, truth, []
    estimated, observations = calibrate_laser_from_boards(cfg, truth)
    return truth, estimated, observations


def _write_calibration(out: Path, estimated: LaserCalibration) -> Path:
    return rio.write_json(out / "laser_calibration.json",
                          rio.laser_calibration_to_dict(estimated))


def _execute_spot(cfg, truth, beta, scene, rng):
    """Where the real beam lands for a commanded waypoint (plus spot noise)."""
    ray = Ray(waypoint_position(truth.frame, truth.alpha, beta), truth.v_w)
    spot = intersect_scene(ray, scene)
    if not cfg.noiseless:
        sigma = PROFILES[cfg.profile].spot_sigma
        spot = spot + np.array([*rng.normal(0.0, sigma, 2), 0.0])
    return spot


def _execute_plan(cfg, truth, plan, scene, rng) -> np.ndarray:
    """Where the real beam lands for every waypoint of a plan, in order."""
    return np.array([
        _execute_spot(cfg, truth, plan.waypoints[k], scene, rng)
        for k in range(len(plan))
    ])


def _centred_raster(cfg, scene, estimated):
    """The commanded scan grid, centred on the scan window centre."""
    cx, cy = _scan_center(cfg)
    beta_c = solve_ik(estimated, [cx, cy, float(scene.height(cx, cy))]).beta
    return raster_pattern(cfg.scan_extent, points=cfg.scan_points,
                          origin=(beta_c[0] - cfg.scan_extent[0] / 2.0,
                                  beta_c[1] - cfg.scan_extent[1] / 2.0))


def _scan_label(cfg, true_label: str, k: int, model=None):
    """(label, spectrum) of scan point ``k``.

    The spectrum is synthesized from the true label; the label is the truth
    itself for the 'perfect' classifier, else the classifier's verdict on
    that spectrum.
    """
    spectrum = synth_spectrum(true_label, seed=cfg.seed * 1_000_000 + k)
    if cfg.classifier == "perfect":
        return true_label, spectrum
    if cfg.classifier == "threshold":
        verdict = threshold_classify(PHANTOM_RULE, preprocess(spectrum))
        if verdict == "uncertain":
            verdict = cfg.uncertain_policy
        return verdict, spectrum
    x = preprocess(spectrum).intensities
    return (TUMOR if mlp_predict(model, x) == 1 else HEALTHY), spectrum


def _tumor_codes(labels) -> list[int]:
    return [1 if label == TUMOR else 0 for label in labels]


def _classification(labels, true_labels) -> dict:
    """Binary scan-label metrics with tumor as the positive class."""
    return classification_metrics(
        _tumor_codes(labels), _tumor_codes(true_labels)).as_dict()


def _train_scan_classifier(cfg):
    """Seeded corpus + training for the 'mlp' classifier choice."""
    per_class = cfg.mlp_train_per_class
    rows, labels = [], []
    for c, label in enumerate((HEALTHY, TUMOR)):
        for k in range(per_class):
            s = synth_spectrum(label, seed=cfg.seed * 1_000_000 + 2 * k + c)
            rows.append(preprocess(s).intensities)
            labels.append(c)
    x = np.array(rows)
    y = np.array(labels)
    model, history = mlp_train(
        x, y, TrainConfig(epochs=cfg.mlp_epochs, seed=cfg.seed))
    return model, history


# ---------------------------------------------------------------------------
# Phantom experiments
# ---------------------------------------------------------------------------


def run_marker_experiment(cfg: ExperimentConfig, out_dir) -> TrialResult:
    """Nine fiducials on a 3x3 grid at varied heights; fire and measure."""
    return _run_stages(_marker_stages, cfg, out_dir, "marker_report.json")


def _marker_stages(cfg, out, run):
    truth, estimated, observations = _effective_calibrations(
        cfg, perfect_when_noiseless=False)
    run.artifacts["calibration"] = _write_calibration(out, estimated)
    if observations:
        run.artifacts["observations"] = rio.write_spot_observations_csv(
            out / "calibration_observations.csv", observations)
    yield "calibrate"

    cx, cy = _scan_center(cfg)
    xs = np.linspace(cx - 5.0, cx + 5.0, 3)
    ys = np.linspace(cy - 5.0, cy + 5.0, 3)
    targets = []
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            targets.append([x, y, 2.0 + 1.25 * ((i + j) % 3)])
    targets = np.array(targets)

    plan = plan_trajectory(estimated, targets)
    rng = _rng(cfg, _SALT_SPOT)
    errors = []
    for k in range(len(plan)):
        ray = Ray(waypoint_position(truth.frame, truth.alpha, plan.waypoints[k]),
                  truth.v_w)
        plane_hit = ray.at(
            (targets[k][2] - ray.origin[2]) / ray.direction[2])
        if not cfg.noiseless:
            plane_hit = plane_hit + np.array([
                *rng.normal(0.0, PROFILES[cfg.profile].spot_sigma, 2), 0.0])
        errors.append(float(np.linalg.norm(plane_hit[:2] - targets[k][:2])))

    mean, std, rmse = summarize(errors)
    run.report.update({
        "experiment": "marker",
        "profile": cfg.profile,
        "noiseless": cfg.noiseless,
        "seed": cfg.seed,
        "errors_mm": errors,
        "mean_mm": mean,
        "std_mm": std,
        "rmse_mm": rmse,
        "calibration_residual_rms_mm": estimated.residual_rms,
    })
    run.artifacts["plan"] = rio.write_cut_plan_csv(
        out / "marker_plan.csv", plan)
    yield "execute"


def s_curve_targets(cfg: ExperimentConfig, scene: ScenePhantom,
                    n: int = 80) -> np.ndarray:
    """S-shaped path on the surface across the scan window."""
    cx, cy = _scan_center(cfg)
    t = np.linspace(0.0, 1.0, n)
    x = cx + 3.5 * np.sin(2.0 * np.pi * t)
    y = cy - 5.0 + 10.0 * t
    z = scene.height(x, y)
    return np.column_stack([x, y, z])


def run_trajectory_experiment(cfg: ExperimentConfig, out_dir) -> TrialResult:
    """Trace an S-curve; report nearest-neighbor edge errors to the targets."""
    return _run_stages(_trajectory_stages, cfg, out_dir,
                       "trajectory_report.json")


def _trajectory_stages(cfg, out, run):
    scene = _scene(cfg)
    truth, estimated, _ = _effective_calibrations(
        cfg, perfect_when_noiseless=False)
    run.artifacts["calibration"] = _write_calibration(out, estimated)
    yield "calibrate"

    targets = s_curve_targets(cfg, scene)
    plan = plan_trajectory(estimated, targets)
    actuals = _execute_plan(cfg, truth, plan, scene, _rng(cfg, _SALT_SPOT))
    errors = [
        nearest_neighbor(a[:2], targets[:, :2])[1] for a in actuals
    ]
    mean, std, rmse = summarize(errors)
    run.report.update({
        "experiment": "trajectory",
        "profile": cfg.profile,
        "noiseless": cfg.noiseless,
        "seed": cfg.seed,
        "errors_mm": [float(e) for e in errors],
        "mean_mm": mean,
        "std_mm": std,
        "rmse_mm": rmse,
        "max_mm": float(np.max(errors)),
    })
    run.artifacts["plan"] = rio.write_cut_plan_csv(
        out / "trajectory_plan.csv", plan)
    yield "execute"


def _true_region(scene: ScenePhantom) -> Region2D:
    for reg in scene.regions:
        if reg["label"] == TUMOR:
            if reg["kind"] == "disc":
                return Region2D.from_polygon(
                    disc_polygon(reg["center"], reg["radius"]), role="true")
            return Region2D.from_polygon(np.asarray(reg["vertices"]),
                                         role="true")
    raise ConfigError("scene declares no tumor region")


def _region_reports(true_region, predicted_poly, actual_poly):
    predicted = Region2D.from_polygon(predicted_poly, role="predicted")
    actual = Region2D.from_polygon(actual_poly, role="actual")
    return [
        compare_regions("system", true_region, actual),
        compare_regions("algorithm", true_region, predicted),
        compare_regions("calibration", predicted, actual),
    ]


def run_roi_experiment(cfg: ExperimentConfig, out_dir) -> TrialResult:
    """Raster-scan a demarcated region, classify, map, cut, and evaluate."""
    return _run_stages(_roi_stages, cfg, out_dir, "roi_report.json")


def _roi_stages(cfg, out, run):
    scene = _scene(cfg)
    true_region = _true_region(scene)
    truth, estimated, _ = _effective_calibrations(
        cfg, perfect_when_noiseless=True)
    run.artifacts["calibration"] = _write_calibration(out, estimated)
    yield "calibrate"

    model = None
    if cfg.classifier == "mlp":
        model, _ = _train_scan_classifier(cfg)
        yield "train"

    # spots come from the analytic scene: the planned beam for the map, the
    # executed one for the ground-truth label
    pattern = _centred_raster(cfg, scene, estimated)
    rng = _rng(cfg, _SALT_SPOT)
    predicted_spots = []
    labels = []
    true_labels = []
    for k, beta in enumerate(pattern.waypoints):
        ray_est = Ray(
            waypoint_position(estimated.frame, estimated.alpha, beta),
            estimated.v_w)
        predicted_spots.append(intersect_scene(ray_est, scene))
        measured = _execute_spot(cfg, truth, beta, scene, rng)
        true_label = scene.label_at(measured[0], measured[1])
        true_labels.append(true_label)
        labels.append(_scan_label(cfg, true_label, k, model)[0])
    yield "scan"

    tags = build_tumor_tags(predicted_spots, labels)
    boundary = boundary_from_tags(tags)
    region = select_cut_targets(tags, boundary)
    plan = plan_trajectory(estimated, region.targets)
    actual_spots = _execute_plan(cfg, truth, plan, scene, rng)
    reports = _region_reports(true_region, boundary.vertices,
                              convex_hull(actual_spots[:, :2]))
    run.report.update({
        "experiment": "roi",
        "profile": cfg.profile,
        "noiseless": cfg.noiseless,
        "seed": cfg.seed,
        "classifier": cfg.classifier,
        "scan_points": cfg.scan_points,
        "step_mm": list(pattern.step),
        "classification": _classification(labels, true_labels),
        "regions": {r.kind: r.as_dict() for r in reports},
    })
    run.artifacts.update({
        "tags": rio.write_ply_cloud(
            out / "roi_tags.ply",
            [t.position for t in tags],
            label=_tumor_codes(t.label for t in tags)),
        "boundary": rio.write_json(
            out / "roi_boundary.json",
            {"vertices": boundary.vertices.tolist(), "shrink": boundary.shrink}),
        "plan": rio.write_cut_plan_csv(out / "roi_plan.csv", plan),
        "ledger": rio.append_region_reports_csv(
            out / "region_ledger.csv", f"roi-seed{cfg.seed}", reports),
    })
    yield "execute"


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

E2E_STAGES = ("calibrate", "scan", "classify", "map", "plan", "resect",
              "evaluate")


def _default_cameras():
    common = dict(fx=2000.0, fy=2000.0, cx=640.0, cy=360.0)
    left = PinholeCamera.look_at([-18.0, 6.4, 130.0], [6.3, 6.4, 3.0], **common)
    right = PinholeCamera.look_at([30.6, 6.4, 130.0], [6.3, 6.4, 3.0], **common)
    return left, right


def _camera_fiducials(cfg, scene):
    """Known 3D markers spanning the volume for extrinsic calibration."""
    pts = []
    for x in (1.0, 6.3, 11.6):
        for y in (1.0, 6.4, 11.8):
            pts.append([x, y, float(scene.height(x, y))])
    for k, (x, y) in enumerate(((2.5, 3.0), (10.0, 4.0), (4.0, 10.0))):
        pts.append([x, y, 6.0 + 0.5 * k])
    return np.array(pts)


def _estimate_cameras(cfg, scene):
    rng = _rng(cfg, _SALT_EXTRINSICS)
    sigma = 0.0 if cfg.noiseless else PROFILES[cfg.profile].pixel_sigma
    fiducials = _camera_fiducials(cfg, scene)
    estimated = []
    stats_out = []
    for cam in _default_cameras():
        corr = []
        for w in fiducials:
            uv = project_world_to_image(cam, w)
            if sigma > 0:
                uv = uv + rng.normal(0.0, sigma, 2)
            corr.append(Correspondence2D3D(uv, w))
        est, stats = estimate_camera_extrinsics(cam, corr)
        estimated.append(est)
        stats_out.append(stats)
    return estimated, stats_out


def render_camera_image(scene: ScenePhantom, camera: PinholeCamera,
                        oct_cfg: OctConfig = OctConfig()) -> np.ndarray:
    """Synthetic color view: project a fine surface grid and splat colors."""
    img = np.tile(np.array(IMAGE_BACKGROUND, dtype=np.uint8),
                  (camera.height, camera.width, 1))
    xs = np.arange(oct_cfg.n_lateral) * oct_cfg.pitch_x
    ys = np.arange(oct_cfg.n_bscans * 4) * (oct_cfg.pitch_y / 4.0)
    gx, gy = np.meshgrid(xs, ys)
    gz = scene.height(gx, gy)
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    uv, in_front = project_points(camera, pts)
    cols = np.round(uv[:, 0]).astype(np.int64, copy=False)
    rows = np.round(uv[:, 1]).astype(np.int64, copy=False)
    ok = in_front & (cols >= 0) & (cols < camera.width) & \
        (rows >= 0) & (rows < camera.height)
    names, inverse = np.unique(scene.label_at(pts[ok, 0], pts[ok, 1]),
                               return_inverse=True)
    palette = np.array([REGION_COLORS[n] for n in names], dtype=np.uint8)
    img[rows[ok], cols[ok]] = palette[inverse]
    return img


def run_end_to_end(cfg: ExperimentConfig, out_dir,
                   through_stage: str = "evaluate") -> TrialResult:
    """Full loop: volume scan, colorize, classify, map, plan, cut, evaluate.

    ``through_stage`` truncates the pipeline after the named stage (used by
    the per-stage command surface); artifacts of every completed stage are
    written either way.
    """
    if through_stage not in E2E_STAGES:
        raise ConfigError(f"unknown stage '{through_stage}'")
    return _run_stages(_e2e_stages, cfg, out_dir, "e2e_report.json",
                       through_stage)


def _e2e_stages(cfg, out, run):
    artifacts, report = run.artifacts, run.report
    report.update({"experiment": "e2e", "seed": cfg.seed,
                   "profile": cfg.profile, "classifier": cfg.classifier,
                   "noiseless": cfg.noiseless})
    scene = _scene(cfg)

    truth, estimated, observations = _effective_calibrations(
        cfg, perfect_when_noiseless=True)
    cameras, cam_stats = _estimate_cameras(cfg, scene)
    artifacts["laser_calibration"] = _write_calibration(out, estimated)
    artifacts["camera_extrinsics"] = rio.write_json(
        out / "camera_extrinsics.json", [
            {"rotation": cam.rotation.tolist(),
             "translation": cam.translation.tolist(),
             "rms_px": st.rms_px, "rms_mm": st.rms_mm}
            for cam, st in zip(cameras, cam_stats)
        ])
    if observations:
        artifacts["observations"] = rio.write_spot_observations_csv(
            out / "calibration_observations.csv", observations)
    report["camera_rms_px"] = [st.rms_px for st in cam_stats]
    report["laser_residual_rms"] = estimated.residual_rms
    yield "calibrate"

    # volume, surface, colorize
    oct_cfg = OctConfig(noise_amplitude=cfg.oct_noise)
    volume = render_oct_volume(scene, (0.0, 0.0), oct_cfg,
                               seed=cfg.seed + _SALT_OCT)
    surface = segment_surface(volume)
    image = render_camera_image(scene, cameras[0], oct_cfg)
    colored, in_view = colorize_surface(surface, cameras[0], image)
    artifacts["volume"], artifacts["volume_sidecar"] = rio.write_oct_volume(
        out / "oct_volume", volume)
    artifacts["surface"] = rio.write_surface_ply(out / "surface.ply", colored)
    report["surface_points"] = int(surface.valid_mask().sum())
    yield "scan"

    # raster scan with spot estimation
    model = None
    if cfg.classifier == "mlp":
        model, history = _train_scan_classifier(cfg)
        artifacts["model"] = rio.write_mlp_json(out / "mlp_model.json", model)
        report["mlp_final_loss"] = history[-1]

    pattern = _centred_raster(cfg, scene, estimated)
    rng_spot = _rng(cfg, _SALT_SPOT)
    rng_px = _rng(cfg, _SALT_PIXELS)
    locator = SpotLocator(surface, cameras[0], cameras[1],
                          mesh=triangulate_grid(surface))
    spots = []
    labels = []
    true_labels = []
    wavelengths = None
    spectra_rows = []
    unmapped = 0  # scan exceeds the imaging field; edge spots have no geometry
    pixel_sigma = 0.0 if cfg.noiseless else PROFILES[cfg.profile].pixel_sigma
    for k, beta in enumerate(pattern.waypoints):
        measured = _execute_spot(cfg, truth, beta, scene, rng_spot)
        hits = []
        for cam in cameras:
            uv = project_world_to_image(cam, measured)
            if pixel_sigma > 0:
                uv = uv + rng_px.normal(0.0, pixel_sigma, 2)
            hits.append(uv)
        ray_est = Ray(
            waypoint_position(estimated.frame, estimated.alpha, beta),
            estimated.v_w)
        try:
            est = locator.locate(hits[0], hits[1], ray_est)
        except NoRayHit:
            unmapped += 1
            continue
        spots.append(est.fused)
        true_label = scene.label_at(measured[0], measured[1])
        true_labels.append(true_label)
        label, spectrum = _scan_label(cfg, true_label, k, model)
        labels.append(label)
        if wavelengths is None:
            wavelengths = spectrum.wavelengths
        spectra_rows.append(spectrum.intensities)
    report["unmapped_points"] = unmapped
    artifacts["spectra"], artifacts["spectra_sidecar"] = rio.write_spectra_csv(
        out / "scan_spectra", wavelengths, spectra_rows,
        subjects=[f"scan{cfg.seed}"] * len(spectra_rows), labels=labels)
    report["classification"] = _classification(labels, true_labels)
    yield "classify"

    # tags, boundary
    colors = []
    valid_idx = np.flatnonzero(colored.valid_mask())
    valid_xy = colored.points[valid_idx][:, :2]
    for p in spots:
        idx, _ = nearest_neighbor(p[:2], valid_xy)
        colors.append(tuple(int(c) for c in colored.color[valid_idx[idx]]))
    tags = build_tumor_tags(spots, labels, colors=colors)
    boundary = boundary_from_tags(tags)
    artifacts["tumor_map"] = rio.write_ply_cloud(
        out / "tumor_map.ply", [t.position for t in tags],
        color=[t.color for t in tags],
        label=_tumor_codes(t.label for t in tags))
    artifacts["boundary"] = rio.write_json(
        out / "boundary.json",
        {"vertices": boundary.vertices.tolist(), "shrink": boundary.shrink})
    yield "map"

    region = select_cut_targets(tags, boundary)
    plan = plan_trajectory(estimated, region.targets)
    artifacts["cut_plan"] = rio.write_cut_plan_csv(out / "cut_plan.csv", plan)
    report["cut_targets"] = len(plan)
    yield "plan"

    # execute the plan, mark the footprint
    actual_spots = _execute_plan(cfg, truth, plan, scene, rng_spot)
    radius = cfg.spot_diameter / 2.0
    surf_xy = colored.points[:, :2]
    cut_mask = np.zeros(len(surf_xy), dtype=bool)
    for s in actual_spots:
        cut_mask |= np.sum((surf_xy - s[:2]) ** 2, axis=1) <= radius**2
    post_color = colored.color.copy()
    post_color[cut_mask] = (120, 120, 120)  # coagulation signature
    post = SurfaceCloud(colored.rows, colored.cols, colored.points,
                        color=post_color, valid=colored.valid)
    artifacts["actual_spots"] = rio.write_ply_cloud(
        out / "actual_spots.ply", actual_spots)
    artifacts["post_surface"] = rio.write_surface_ply(
        out / "post_resection_surface.ply", post)
    report["resected_cells"] = int(cut_mask.sum())
    yield "resect"

    reports = _region_reports(_true_region(scene), boundary.vertices,
                              convex_hull(actual_spots[:, :2]))
    report["regions"] = {r.kind: r.as_dict() for r in reports}
    artifacts["ledger"] = rio.append_region_reports_csv(
        out / "region_ledger.csv", f"e2e-seed{cfg.seed}", reports)
    yield "evaluate"
