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

Stages. Each runner yields each stage's name as the stage begins, and one
loop drives all four: a stage's entry in TrialResult.timings runs until the
next stage begins, so it includes that stage's artifact writes; a
PipelineError carries the name of the stage it was raised in; and the
report is written once, after the last stage that ran.

Scanning. ROI and e2e share one raster scan, ``_raster_scan``: it fires the
whole centred raster in one ``intersect_scene`` call, then a runner-given
``locate_all(measured, waypoints)`` maps the executed spots and returns the
indices of the mapped ones with their map positions. ROI casts every
estimated beam in one more call; e2e projects the spots into each camera in
one call, then locates them all in one ``SpotLocator.locate`` call. The
spectra of all mapped points are then synthesized, preprocessed and
classified in one call each; the scan leaves as arrays.

Region comparisons follow the three-way convention: system = actual vs
true, algorithm = predicted vs true, calibration = actual vs predicted,
with edge errors directed from the achieved outline to the reference one.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

import numpy as np

from . import io as rio
from .calibration import (
    LaserCalibration,
    beam_from_angles,
    calibrate_laser_axes,
    calibrate_laser_orientation,
    estimate_camera_extrinsics,
    synthesize_spot_observations,
    waypoint_position,
)
from .errors import (
    BehindCamera,
    ConfigError,
    PipelineError,
    TooFewTumorTags,
)
from .geometry import (
    PointGrid,
    SurfaceCloud,
    convex_hull,
    nearest_neighbor,
    normalize,
    triangulate_grid,
)
from .kinematics import (
    forward_model,
    plan_trajectory,
    raster_pattern,
    solve_ik,
)
from .mapping import (
    SpotLocator,
    boundary_from_tags,
    colorize_surface,
    select_cut_targets,
)
from .metrics import compare_regions, disc_polygon, summarize
from .sensors import (
    OctConfig,
    PinholeCamera,
    ScenePhantom,
    finite_number,
    intersect_scene,
    project_points,
    render_oct_volume,
    segment_surface,
    synth_spectrum,
)
from .spectra import (
    HEALTHY,
    TUMOR,
    UNCERTAIN,
    ThresholdClassifier,
    TrainConfig,
    classification_metrics,
    mlp_predict,
    mlp_train,
    preprocess,
    threshold_classify,
)

WORKING_DISTANCE = 56.3  # mm
# widest accepted scan raster side and spot diameter (mm), far beyond the
# 12.6 mm OCT field: huge ones overflow the waypoint gaps and squared radius
MAX_SCAN_EXTENT = 1000.0

# fixed band and cutoff of the phantom threshold rule
PHANTOM_RULE = ThresholdClassifier(((495.0, 570.0),), 0.50, 0.0, "low")

REGION_COLORS = {HEALTHY: (205, 180, 170), TUMOR: (70, 60, 150)}
IMAGE_BACKGROUND = (15, 15, 15)
IMAGE_BLOCK_ROWS = 32  # grid rows per block: 16,384 points on the e2e grid

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
        ([0, 0, WORKING_DISTANCE], [10, 0, WORKING_DISTANCE]),
        ([0, 0, WORKING_DISTANCE],
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


def _int_at_least(value, low: int) -> bool:
    return isinstance(value, Integral) and type(value) is not bool and value >= low


@dataclass(frozen=True)
class ExperimentConfig:
    """Run description; everything needed to reproduce a trial byte-for-byte.

    Fields take these values; anything else raises ConfigError, and a bool is
    never a number. seed: int >= 0; scene: dict for ScenePhantom.from_dict;
    scan_extent: two lengths in (0, MAX_SCAN_EXTENT] (mm); scan_points: square
    int >= 4; profile: a PROFILES key; classifier: threshold | mlp | perfect;
    noiseless: bool; tilt_deg: degrees in (-90, 90) or None (the profile's
    tilt); spot_diameter: in (0, MAX_SCAN_EXTENT] (mm); uncertain_policy:
    healthy | tumor; oct_noise: number in [0, 0.1); mlp_epochs and
    mlp_train_per_class: ints >= 1.
    """

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
        if not _int_at_least(self.seed, 0):
            raise ConfigError(f"seed must be an integer >= 0, not {self.seed!r}")
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile '{self.profile}'")
        if self.classifier not in ("threshold", "mlp", "perfect"):
            raise ConfigError(f"unknown classifier '{self.classifier}'")
        if not (_int_at_least(self.scan_points, 4)
                and math.isqrt(self.scan_points) ** 2 == self.scan_points):
            raise ConfigError("scan_points must be a perfect square >= 4")
        if not isinstance(self.noiseless, bool):
            raise ConfigError("noiseless must be true or false")
        if not (self.tilt_deg is None or (finite_number(self.tilt_deg)
                                          and -90 < self.tilt_deg < 90)):
            raise ConfigError("tilt_deg must be a number in (-90, 90) or null")
        if self.uncertain_policy not in (HEALTHY, TUMOR):
            raise ConfigError("uncertain_policy must map to a hard label")
        if not (len(self.scan_extent) == 2 and all(
                finite_number(e) and 0 < e <= MAX_SCAN_EXTENT
                for e in self.scan_extent)):
            raise ConfigError("scan_extent must be two lengths in "
                              f"(0, {MAX_SCAN_EXTENT:g}] mm")
        if not (finite_number(self.spot_diameter)
                and 0 < self.spot_diameter <= MAX_SCAN_EXTENT):
            raise ConfigError("spot_diameter must be in "
                              f"(0, {MAX_SCAN_EXTENT:g}] mm")
        if not (_int_at_least(self.mlp_epochs, 1)
                and _int_at_least(self.mlp_train_per_class, 1)):
            raise ConfigError("mlp_epochs and mlp_train_per_class must be ints >= 1")
        try:
            OctConfig(noise_amplitude=self.oct_noise)
        except ValueError as exc:
            raise ConfigError(f"invalid oct_noise: {exc}") from exc
        if not isinstance(self.scene, dict):
            raise ConfigError("scene must be a JSON object")
        try:
            ScenePhantom.from_dict(self.scene)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid scene: {exc}") from exc

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict) or "seed" not in d:
            raise ConfigError("config must be a JSON object with a seed")
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
    ``result.report`` and yields each stage's name as the stage begins. A
    stage, its artifact writes included, runs and is timed until the next
    name is yielded or the generator ends; the run stops after
    ``through_stage``. A ``PipelineError`` raised in a stage leaves with
    the stage's name in its ``stage``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = TrialResult({}, {}, {})
    steps = stages(cfg, out, result)
    stage = next(steps)
    t0 = time.perf_counter()
    while True:
        try:
            upcoming = next(steps, None)
        except PipelineError as exc:
            exc.stage = stage
            raise
        t1 = time.perf_counter()
        result.timings[stage] = t1 - t0
        if upcoming is None or stage == through_stage:
            break
        stage, t0 = upcoming, t1
    result.artifacts["report"] = rio.write_json(out / report_name,
                                                result.report)
    return result


def _rng(cfg: ExperimentConfig, salt: int):
    return np.random.default_rng([cfg.seed, salt])


def _scene(cfg: ExperimentConfig) -> ScenePhantom:
    return ScenePhantom.from_dict(cfg.scene)


def _scan_center() -> tuple[float, float]:
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
        (tip((0.0, 0.0)), tip((10.0, 0.0))),
        (tip((0.0, 0.0)), tip((0.0, 10.0))),
    )
    observations = synthesize_spot_observations(
        truth, BOARD_BETAS, BOARD_HEIGHTS, noise_sigma=sigma, rng=rng)
    estimated = calibrate_laser_orientation(frame, observations)
    return estimated, observations


def _effective_calibrations(cfg, perfect_when_noiseless: bool):
    truth = truth_calibration(PROFILES[cfg.profile], cfg.tilt_deg)
    if cfg.noiseless and perfect_when_noiseless:
        return truth, truth, None
    estimated, observations = calibrate_laser_from_boards(cfg, truth)
    return truth, estimated, observations


def _write_calibration(out: Path, estimated: LaserCalibration) -> Path:
    return rio.write_json(out / "laser_calibration.json",
                          rio.laser_calibration_to_dict(estimated))


def _spot_error(cfg, spots: np.ndarray, rng) -> np.ndarray:
    """Spots moved by the profile's lateral spot error, two draws per spot.

    Noiseless runs add nothing: adding 0.0 would turn a -0.0 into 0.0.
    """
    if cfg.noiseless:
        return spots
    lateral = rng.normal(0.0, PROFILES[cfg.profile].spot_sigma,
                         (len(spots), 2))
    return spots + np.column_stack([lateral, np.zeros(len(spots))])


def _execute_plan(cfg, truth, plan, scene, rng) -> np.ndarray:
    """Where the real beam lands for every waypoint of a plan, in order."""
    origins = waypoint_position(truth.frame, truth.alpha, plan.waypoints)
    return _spot_error(cfg, intersect_scene(origins, truth.v_w, scene), rng)


def _centred_raster(cfg, scene, estimated):
    """The commanded scan grid, centred on the scan window centre."""
    cx, cy = _scan_center()
    beta_c = solve_ik(estimated, [cx, cy, float(scene.height(cx, cy))]).beta
    return raster_pattern(cfg.scan_extent, points=cfg.scan_points,
                          origin=(beta_c[0] - cfg.scan_extent[0] / 2.0,
                                  beta_c[1] - cfg.scan_extent[1] / 2.0))


def _scan_labels(cfg, spectra, true_tumor, model=None) -> np.ndarray:
    """The (n,) tumor flags of the scanned spectra: the truth for 'perfect',
    else the verdicts, with an uncertain one taking ``uncertain_policy``."""
    if cfg.classifier == "perfect":
        return true_tumor
    if cfg.classifier == "threshold":
        verdicts = np.array(threshold_classify(PHANTOM_RULE,
                                               preprocess(spectra)))
        return np.where(verdicts == UNCERTAIN, cfg.uncertain_policy,
                        verdicts) == TUMOR
    return mlp_predict(model, preprocess(spectra).intensities) == 1


def _raster_scan(cfg, scene, truth, estimated, model, rng, locate_all):
    """Fire the centred raster, map the executed spots, label the mapped ones.

    ``locate_all(measured, waypoints)`` takes the (n, 3) executed spots and
    the (n, 2) commanded waypoints and returns the (m,) scan indices of the
    mapped points, ascending, and their (m, 3) map positions; a point left
    out is unmapped. Returns the pattern, then for the mapped points in scan
    order: the map positions, the (m,) tumor flags, the (m,) true tumor
    flags and their spectra as one (m, w) ``Spectrum``, synthesized from the
    true labels with seed ``cfg.seed * 1_000_000 + k`` for scan point k.
    Raises TooFewTumorTags when no point maps.
    """
    pattern = _centred_raster(cfg, scene, estimated)
    measured = _execute_plan(cfg, truth, pattern, scene, rng)
    mapped, spots = locate_all(measured, pattern.waypoints)
    if not len(mapped):
        raise TooFewTumorTags(f"none of {len(pattern)} scan points mapped")
    true_labels = scene.label_at(measured[mapped, 0], measured[mapped, 1])
    # Python ints: a large seed overflows int64
    spectra = synth_spectrum(true_labels, [cfg.seed * 1_000_000 + k
                                           for k in mapped.tolist()])
    true_tumor = true_labels == TUMOR
    return (pattern, spots, _scan_labels(cfg, spectra, true_tumor, model),
            true_tumor, spectra)


def _classification(tumor, true_tumor) -> dict:
    """Binary scan-label metrics with tumor as the positive class."""
    return classification_metrics(tumor, true_tumor).as_dict()


def _train_scan_classifier(cfg):
    """Seeded corpus + training for the 'mlp' classifier choice."""
    per_class = cfg.mlp_train_per_class
    spectra = synth_spectrum(
        [HEALTHY] * per_class + [TUMOR] * per_class,
        [cfg.seed * 1_000_000 + 2 * k + c
         for c in (0, 1) for k in range(per_class)])
    x = preprocess(spectra).intensities
    y = np.repeat([0, 1], per_class)
    model, history = mlp_train(
        x, y, TrainConfig(epochs=cfg.mlp_epochs, seed=cfg.seed))
    return model, history


# ---------------------------------------------------------------------------
# Phantom experiments
# ---------------------------------------------------------------------------


def _error_report(cfg, experiment: str, errors: np.ndarray, **extra) -> dict:
    """A phantom study's report: the run, its per-target errors and their
    mean, sample std and RMSE, then ``extra``."""
    mean, std, rmse = summarize(errors)
    return {"experiment": experiment, "profile": cfg.profile,
            "noiseless": cfg.noiseless, "seed": cfg.seed,
            "errors_mm": errors.tolist(), "mean_mm": mean, "std_mm": std,
            "rmse_mm": rmse, **extra}


def run_marker_experiment(cfg: ExperimentConfig, out_dir) -> TrialResult:
    """Nine fiducials on a 3x3 grid at varied heights; fire and measure."""
    return _run_stages(_marker_stages, cfg, out_dir, "marker_report.json")


def _marker_stages(cfg, out, run):
    yield "calibrate"
    truth, estimated, observations = _effective_calibrations(
        cfg, perfect_when_noiseless=False)
    run.artifacts["calibration"] = _write_calibration(out, estimated)
    run.artifacts["observations"] = rio.write_spot_observations_csv(
        out / "calibration_observations.csv", observations)

    yield "execute"
    cx, cy = _scan_center()
    j, i = np.divmod(np.arange(9), 3)
    targets = np.column_stack([np.linspace(cx - 5.0, cx + 5.0, 3)[i],
                               np.linspace(cy - 5.0, cy + 5.0, 3)[j],
                               2.0 + 1.25 * ((i + j) % 3)])

    plan = plan_trajectory(estimated, targets)
    hits = _spot_error(cfg, forward_model(truth, plan.waypoints,
                                          targets[:, 2]),
                       _rng(cfg, _SALT_SPOT))
    miss = hits[:, :2] - targets[:, :2]
    run.report.update(_error_report(
        cfg, "marker", np.sqrt(np.vecdot(miss, miss)),
        calibration_residual_rms_mm=estimated.residual_rms))
    run.artifacts["plan"] = rio.write_cut_plan_csv(
        out / "marker_plan.csv", plan)


def s_curve_targets(cfg: ExperimentConfig, scene: ScenePhantom,
                    n: int = 80) -> np.ndarray:
    """S-shaped path on the surface across the scan window."""
    cx, cy = _scan_center()
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
    yield "calibrate"
    scene = _scene(cfg)
    truth, estimated, _ = _effective_calibrations(
        cfg, perfect_when_noiseless=False)
    run.artifacts["calibration"] = _write_calibration(out, estimated)

    yield "execute"
    targets = s_curve_targets(cfg, scene)
    plan = plan_trajectory(estimated, targets)
    actuals = _execute_plan(cfg, truth, plan, scene, _rng(cfg, _SALT_SPOT))
    errors = np.sqrt(nearest_neighbor(actuals[:, :2], targets[:, :2])[1])
    run.report.update(_error_report(cfg, "trajectory", errors,
                                    max_mm=float(np.max(errors))))
    run.artifacts["plan"] = rio.write_cut_plan_csv(
        out / "trajectory_plan.csv", plan)


def _true_region(scene: ScenePhantom) -> np.ndarray:
    """Vertex array of the scene's first tumor region."""
    for reg in scene.regions:
        if reg["label"] == TUMOR:
            if reg["kind"] == "disc":
                return disc_polygon(reg["center"], reg["radius"])
            return np.asarray(reg["vertices"], dtype=float)
    raise ConfigError("scene declares no tumor region")


def _region_reports(true_region, predicted, actual):
    return [
        compare_regions("system", true_region, actual),
        compare_regions("algorithm", true_region, predicted),
        compare_regions("calibration", predicted, actual),
    ]


def run_roi_experiment(cfg: ExperimentConfig, out_dir) -> TrialResult:
    """Raster-scan a demarcated region, classify, map, cut, and evaluate."""
    return _run_stages(_roi_stages, cfg, out_dir, "roi_report.json")


def _roi_stages(cfg, out, run):
    yield "calibrate"
    scene = _scene(cfg)
    true_region = _true_region(scene)
    truth, estimated, _ = _effective_calibrations(
        cfg, perfect_when_noiseless=True)
    run.artifacts["calibration"] = _write_calibration(out, estimated)

    model = None
    if cfg.classifier == "mlp":
        yield "train"
        model, _ = _train_scan_classifier(cfg)

    yield "scan"

    def locate_all(measured, waypoints):
        # the map takes spots from the analytic scene along the estimated beam
        origins = waypoint_position(estimated.frame, estimated.alpha, waypoints)
        return (np.arange(len(waypoints)),
                intersect_scene(origins, estimated.v_w, scene))

    rng = _rng(cfg, _SALT_SPOT)
    pattern, spots, tumor, true_tumor, _ = _raster_scan(
        cfg, scene, truth, estimated, model, rng, locate_all)

    yield "execute"
    boundary = boundary_from_tags(spots, tumor)
    plan = plan_trajectory(estimated, select_cut_targets(spots, boundary))
    actual_spots = _execute_plan(cfg, truth, plan, scene, rng)
    reports = _region_reports(true_region, boundary,
                              convex_hull(actual_spots[:, :2]))
    run.report.update({
        "experiment": "roi",
        "profile": cfg.profile,
        "noiseless": cfg.noiseless,
        "seed": cfg.seed,
        "classifier": cfg.classifier,
        "scan_points": cfg.scan_points,
        "step_mm": list(pattern.step),
        "classification": _classification(tumor, true_tumor),
        "regions": {r.kind: r.as_dict() for r in reports},
    })
    run.artifacts.update({
        "tags": rio.write_ply_cloud(out / "roi_tags.ply", spots,
                                    label=tumor.astype(int)),
        # "shrink" is always 0.0; the key is kept for artifact compatibility
        "boundary": rio.write_json(
            out / "roi_boundary.json",
            {"vertices": boundary.tolist(), "shrink": 0.0}),
        "plan": rio.write_cut_plan_csv(out / "roi_plan.csv", plan),
        "ledger": rio.append_region_reports_csv(
            out / "region_ledger.csv", f"roi-seed{cfg.seed}", reports),
    })


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


def _camera_fiducials(scene):
    """Known 3D markers spanning the volume for extrinsic calibration: a
    3 x 3 grid on the surface, x outermost, then three raised markers."""
    gx, gy = (g.ravel() for g in np.meshgrid(
        (1.0, 6.3, 11.6), (1.0, 6.4, 11.8), indexing="ij"))
    return np.concatenate([np.column_stack([gx, gy, scene.height(gx, gy)]),
                           [[2.5, 3.0, 6.0], [10.0, 4.0, 6.5],
                            [4.0, 10.0, 7.0]]])


def _estimate_cameras(cfg, scene):
    """(posed camera, ExtrinsicStats) for each default camera."""
    rng = _rng(cfg, _SALT_EXTRINSICS)
    sigma = 0.0 if cfg.noiseless else PROFILES[cfg.profile].pixel_sigma
    fiducials = _camera_fiducials(scene)
    solved = []
    for cam in _default_cameras():
        uv, in_front = project_points(cam, fiducials)
        if not in_front.all():
            raise BehindCamera("a camera fiducial is behind the camera")
        if sigma > 0:
            uv = uv + rng.normal(0.0, sigma, (len(fiducials), 2))
        solved.append(estimate_camera_extrinsics(cam, uv, fiducials))
    return solved


def render_camera_image(scene: ScenePhantom, camera: PinholeCamera,
                        oct_cfg: OctConfig = OctConfig()) -> np.ndarray:
    """Synthetic color view: project a fine surface grid and splat colors,
    ``IMAGE_BLOCK_ROWS`` grid rows at a time, in order, so a later point
    still overwrites an earlier one."""
    img = np.tile(np.array(IMAGE_BACKGROUND, dtype=np.uint8),
                  (camera.height, camera.width, 1))
    palette = np.array([REGION_COLORS[HEALTHY]] + [
        REGION_COLORS[reg["label"]] for reg in scene.regions], dtype=np.uint8)
    xs = np.arange(oct_cfg.n_lateral) * oct_cfg.pitch_x
    ys = np.arange(oct_cfg.n_bscans * 4) * (oct_cfg.pitch_y / 4.0)
    for start in range(0, len(ys), IMAGE_BLOCK_ROWS):
        gx, gy = np.meshgrid(xs, ys[start:start + IMAGE_BLOCK_ROWS])
        gz = scene.height(gx, gy)
        pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
        uv, in_front = project_points(camera, pts)
        cols = np.round(uv[:, 0]).astype(np.int64, copy=False)
        rows = np.round(uv[:, 1]).astype(np.int64, copy=False)
        ok = in_front & (cols >= 0) & (cols < camera.width) & \
            (rows >= 0) & (rows < camera.height)
        img[rows[ok], cols[ok]] = palette[
            scene.region_index(pts[ok, 0], pts[ok, 1]) + 1]
    return img


def _scan_volume(scene: ScenePhantom, oct_cfg: OctConfig, seed: int,
                 path_base):
    """Render the C-scan and take one pass over it: each B-scan is checked,
    appended to ``path_base``.f32 and segmented as it comes, and the .json
    sidecar is written when the pass ends. Only a B-scan at a time is held,
    and nothing reads the file back.

    Returns the two written paths and the surface cloud.
    """
    paths, volume = rio.append_oct_volume(
        path_base, render_oct_volume(scene, (0.0, 0.0), oct_cfg, seed=seed))
    return paths, segment_surface(volume)


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
    yield "calibrate"
    artifacts, report = run.artifacts, run.report
    report.update({"experiment": "e2e", "seed": cfg.seed,
                   "profile": cfg.profile, "classifier": cfg.classifier,
                   "noiseless": cfg.noiseless})
    scene = _scene(cfg)

    truth, estimated, observations = _effective_calibrations(
        cfg, perfect_when_noiseless=True)
    cameras, cam_stats = zip(*_estimate_cameras(cfg, scene))
    artifacts["laser_calibration"] = _write_calibration(out, estimated)
    artifacts["camera_extrinsics"] = rio.write_json(
        out / "camera_extrinsics.json", [
            {"rotation": cam.rotation.tolist(),
             "translation": cam.translation.tolist(),
             "rms_px": st.rms_px, "rms_mm": st.rms_mm}
            for cam, st in zip(cameras, cam_stats)
        ])
    if observations is not None:
        artifacts["observations"] = rio.write_spot_observations_csv(
            out / "calibration_observations.csv", observations)
    report["camera_rms_px"] = [st.rms_px for st in cam_stats]
    report["laser_residual_rms"] = estimated.residual_rms

    yield "scan"
    # volume, surface, colorize
    oct_cfg = OctConfig(noise_amplitude=cfg.oct_noise)
    volume_files, surface = _scan_volume(scene, oct_cfg, cfg.seed + _SALT_OCT,
                                         out / "oct_volume")
    artifacts["volume"], artifacts["volume_sidecar"] = volume_files
    image = render_camera_image(scene, cameras[0], oct_cfg)
    colored, in_view = colorize_surface(surface, cameras[0], image)
    artifacts["surface"] = rio.write_surface_ply(out / "surface.ply", colored)
    report["surface_points"] = int(surface.valid_mask().sum())

    yield "classify"
    # raster scan with spot estimation
    model = None
    if cfg.classifier == "mlp":
        model, history = _train_scan_classifier(cfg)
        artifacts["model"] = rio.write_mlp_json(out / "mlp_model.json", model)
        report["mlp_final_loss"] = history[-1]

    rng_spot = _rng(cfg, _SALT_SPOT)
    rng_px = _rng(cfg, _SALT_PIXELS)
    locator = SpotLocator(surface, cameras[0], cameras[1],
                          mesh=triangulate_grid(surface))
    pixel_sigma = 0.0 if cfg.noiseless else PROFILES[cfg.profile].pixel_sigma

    def locate_all(measured, waypoints):
        pixels = []
        for cam in cameras:
            uv, in_front = project_points(cam, measured)
            if not in_front.all():
                raise BehindCamera("a scan spot is behind a camera")
            pixels.append(uv)
        if pixel_sigma > 0:
            # in spot, camera, axis order, as one draw of two per spot did
            noise = rng_px.normal(0.0, pixel_sigma, (len(measured), 2, 2))
            pixels = [uv + noise[:, c] for c, uv in enumerate(pixels)]
        # spots past the imaging field's edge have no geometry: unmapped
        origins = waypoint_position(estimated.frame, estimated.alpha, waypoints)
        return locator.locate(*pixels, origins, normalize(estimated.v_w))

    pattern, spots, tumor, true_tumor, spectra = _raster_scan(
        cfg, scene, truth, estimated, model, rng_spot, locate_all)
    report["unmapped_points"] = len(pattern) - len(spots)
    artifacts["spectra"], artifacts["spectra_sidecar"] = rio.write_spectra_csv(
        out / "scan_spectra", spectra.wavelengths, spectra.intensities,
        subjects=[f"scan{cfg.seed}"] * len(spots),
        labels=np.where(tumor, TUMOR, HEALTHY))
    report["classification"] = _classification(tumor, true_tumor)

    yield "map"
    # boundary, and the map coloured from the nearest surface point
    valid_idx = np.flatnonzero(colored.valid_mask())
    nearest, _ = nearest_neighbor(spots[:, :2], colored.points[valid_idx, :2])
    boundary = boundary_from_tags(spots, tumor)
    artifacts["tumor_map"] = rio.write_ply_cloud(
        out / "tumor_map.ply", spots,
        color=colored.color[valid_idx[nearest]], label=tumor.astype(int))
    # "shrink" is always 0.0; the key is kept for artifact compatibility
    artifacts["boundary"] = rio.write_json(
        out / "boundary.json",
        {"vertices": boundary.tolist(), "shrink": 0.0})

    yield "plan"
    plan = plan_trajectory(estimated, select_cut_targets(spots, boundary))
    artifacts["cut_plan"] = rio.write_cut_plan_csv(out / "cut_plan.csv", plan)
    report["cut_targets"] = len(plan)

    yield "resect"
    # execute the plan, mark the footprint
    actual_spots = _execute_plan(cfg, truth, plan, scene, rng_spot)
    # a surface point is cut when a spot is within the radius
    cut_mask = PointGrid(colored.points[:, :2]).within(
        actual_spots[:, :2], cfg.spot_diameter / 2.0)
    post_color = colored.color.copy()
    post_color[cut_mask] = (120, 120, 120)  # coagulation signature
    post = SurfaceCloud(colored.rows, colored.cols, colored.points,
                        color=post_color, valid=colored.valid)
    artifacts["actual_spots"] = rio.write_ply_cloud(
        out / "actual_spots.ply", actual_spots)
    artifacts["post_surface"] = rio.write_surface_ply(
        out / "post_resection_surface.ply", post)
    report["resected_cells"] = int(cut_mask.sum())

    yield "evaluate"
    reports = _region_reports(_true_region(scene), boundary,
                              convex_hull(actual_spots[:, :2]))
    report["regions"] = {r.kind: r.as_dict() for r in reports}
    artifacts["ledger"] = rio.append_region_reports_csv(
        out / "region_ledger.csv", f"e2e-seed{cfg.seed}", reports)
