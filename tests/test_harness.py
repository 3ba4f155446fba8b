import filecmp
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resectsim import harness
from resectsim import io as rio
from resectsim.errors import (
    BehindCamera,
    ConfigError,
    EmptySurface,
    TooFewTumorTags,
)
from resectsim.harness import (
    PROFILES,
    ExperimentConfig,
    run_end_to_end,
    run_marker_experiment,
    run_roi_experiment,
    run_trajectory_experiment,
    _default_cameras,
    _estimate_cameras,
    _run_stages,
    _scan_labels,
    _scan_volume,
    _spot_error,
    render_camera_image,
    truth_calibration,
)
from resectsim.sensors import (
    BScanStream,
    OctConfig,
    OctVolume,
    ScenePhantom,
    render_oct_volume,
    segment_surface,
    synth_spectrum,
)
from resectsim.spectra import ThresholdClassifier, band_mean, preprocess

import oracles

NO_TUMOR_SCENE = {
    "primitives": [{"kind": "plane", "z": 3.0}],
    "regions": [],
    "albedo": {"default": 0.9},
}

TINY_DISC_SCENE = {
    "primitives": [{"kind": "plane", "z": 3.0}],
    "regions": [
        {"label": "tumor", "kind": "disc", "center": [6.3, 6.4], "radius": 0.5}
    ],
    "albedo": {"default": 0.9, "tumor": 0.35},
}


class TestConfig:
    def test_seed_required(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"profile": "diode"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"seed": 1, "lasers": 3})

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=1, profile="maser")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(tmp_path / "nope.json")

    def test_roundtrip_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 9, "scan_points": 64,
                                    "profile": "fiber"}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.seed == 9
        assert cfg.scan_points == 64

    def test_counts_floor(self):
        for count in (2, 50):
            with pytest.raises(ConfigError):
                ExperimentConfig(seed=1, scan_points=count)


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)

SCENE_PARTS = (
    {"kind": "plane", "z": 3.0},
    {"kind": "sphere_cap", "center": [6.3, 6.4], "radius": 4.0, "height": 1.0},
    {"kind": "gauss_bump", "center": [6.3, 6.4], "sigma": 2.0, "height": 1.0},
    {"label": "tumor", "kind": "disc", "center": [6.3, 6.4], "radius": 5.0},
    {"label": "healthy", "kind": "polygon",
     "vertices": [[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]]},
)


@st.composite
def mutated_parts(draw):
    """A valid primitive or region with one key dropped or set to any JSON."""
    part = dict(draw(st.sampled_from(SCENE_PARTS)))
    key = draw(st.sampled_from(sorted(part)))
    if draw(st.booleans()):
        del part[key]
    else:
        part[key] = draw(JSON_VALUES)
    return part


PARTS = st.lists(st.sampled_from(SCENE_PARTS) | mutated_parts() | JSON_VALUES,
                 max_size=3)
MALFORMED_SCENES = st.fixed_dictionaries({}, optional={
    "primitives": PARTS | JSON_VALUES,
    "regions": PARTS | JSON_VALUES,
    "albedo": st.dictionaries(st.sampled_from(["default", "tumor"]),
                              JSON_VALUES, max_size=2) | JSON_VALUES,
    "domain": st.lists(JSON_VALUES, max_size=5) | JSON_VALUES,
})


@pytest.mark.parametrize("key", sorted(ExperimentConfig.__dataclass_fields__))
# scalars are drawn on their own too, so that bare numbers come up often
@given(value=JSON_SCALARS | JSON_VALUES | MALFORMED_SCENES)
def test_from_dict_returns_a_config_or_raises_config_error(key, value):
    # any JSON value under any one key: a config, or ConfigError, nothing else
    try:
        cfg = ExperimentConfig.from_dict({"seed": 1, key: value})
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


class TestProfiles:
    def test_three_profiles(self):
        assert set(PROFILES) == {"diode", "tumorid", "fiber"}

    def test_truth_calibration_tilt_override(self):
        calib = truth_calibration(PROFILES["diode"], tilt_deg=40.0)
        angle = np.degrees(np.arccos(-calib.v_w[2]))
        assert abs(angle - 40.0) < 1e-9

    def test_fiber_quietest(self):
        assert PROFILES["fiber"].spot_sigma < PROFILES["diode"].spot_sigma
        assert PROFILES["fiber"].spot_sigma < PROFILES["tumorid"].spot_sigma


class TestSpotError:
    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_one_draw_replays_per_spot_draws(self, n):
        cfg = ExperimentConfig(seed=3, noiseless=False, profile="tumorid")
        sigma = PROFILES["tumorid"].spot_sigma
        spots = np.random.default_rng(n).normal(size=(n, 3))
        rng_a = np.random.default_rng([3, 2])
        rng_b = np.random.default_rng([3, 2])
        per_spot = np.array([s + np.array([*rng_b.normal(0.0, sigma, 2), 0.0])
                             for s in spots])
        got = _spot_error(cfg, spots, rng_a)
        assert np.array_equal(got.view(np.uint64), per_spot.view(np.uint64))
        assert rng_a.random() == rng_b.random()

    def test_noiseless_adds_nothing(self):
        cfg = ExperimentConfig(seed=3, noiseless=True)
        spots = np.array([[1.0, -0.0, -0.0]])
        got = _spot_error(cfg, spots, np.random.default_rng(0))
        assert np.signbit(got).tolist() == [[False, True, True]]


class TestMarker:
    @pytest.mark.parametrize("profile", ["diode", "tumorid", "fiber"])
    def test_noiseless_submicron(self, tmp_path, profile):
        cfg = ExperimentConfig(seed=1, profile=profile, noiseless=True)
        r = run_marker_experiment(cfg, tmp_path)
        assert r.report["mean_mm"] < 1e-6
        assert len(r.report["errors_mm"]) == 9

    def test_noisy_band(self, tmp_path):
        means = []
        for seed in range(3):
            cfg = ExperimentConfig(seed=seed, profile="diode", noiseless=False)
            r = run_marker_experiment(cfg, tmp_path / str(seed))
            means.append(r.report["mean_mm"])
        assert all(0.1 <= m <= 1.0 for m in means)

    def test_artifacts_written(self, tmp_path):
        cfg = ExperimentConfig(seed=1, noiseless=False)
        r = run_marker_experiment(cfg, tmp_path)
        for path in r.artifacts.values():
            assert path.exists()
        assert "observations" in r.artifacts


class TestTrajectory:
    def test_noiseless(self, tmp_path):
        cfg = ExperimentConfig(seed=2, noiseless=True)
        r = run_trajectory_experiment(cfg, tmp_path)
        assert r.report["rmse_mm"] < 1e-6

    def test_error_bounded_by_actual_spacing(self, tmp_path):
        # actual samples lie on the target curve, so each is within half a
        # (dense) target spacing of its nearest target
        cfg = ExperimentConfig(seed=2, noiseless=True)
        r = run_trajectory_experiment(cfg, tmp_path)
        assert r.report["max_mm"] < 0.5 * 15.0 / 80

    def test_noisy_reports_summary(self, tmp_path):
        cfg = ExperimentConfig(seed=5, noiseless=False, profile="tumorid")
        r = run_trajectory_experiment(cfg, tmp_path)
        for key in ("mean_mm", "std_mm", "rmse_mm", "max_mm"):
            assert key in r.report
        assert r.report["rmse_mm"] > 0


class TestRoi:
    def test_noiseless_closed_loop(self, tmp_path):
        cfg = ExperimentConfig(seed=4, noiseless=True, classifier="perfect",
                               scan_points=100)
        r = run_roi_experiment(cfg, tmp_path)
        regs = r.report["regions"]
        assert regs["calibration"]["iou"] == 1.0
        assert regs["algorithm"]["mean"] <= 13.0 / 9
        assert regs["algorithm"]["undercut"] >= regs["algorithm"]["overcut"]

    def test_threshold_classifier_perfect_separation(self, tmp_path):
        cfg = ExperimentConfig(seed=4, noiseless=True, classifier="threshold",
                               scan_points=100)
        r = run_roi_experiment(cfg, tmp_path)
        assert r.report["classification"]["accuracy"] == 1.0

    def test_tiny_disc_degenerate(self, tmp_path):
        cfg = ExperimentConfig(seed=4, noiseless=True, classifier="perfect",
                               scene=TINY_DISC_SCENE, scan_points=64)
        with pytest.raises(TooFewTumorTags):
            run_roi_experiment(cfg, tmp_path)

    def test_byte_identical_reports(self, tmp_path):
        cfg = ExperimentConfig(seed=6, noiseless=False, classifier="threshold",
                               scan_points=64)
        r1 = run_roi_experiment(cfg, tmp_path / "a")
        r2 = run_roi_experiment(cfg, tmp_path / "b")
        for name in r1.artifacts:
            assert filecmp.cmp(r1.artifacts[name], r2.artifacts[name],
                               shallow=False), name

    def test_no_tumor_region_config_error(self, tmp_path):
        cfg = ExperimentConfig(seed=4, scene=NO_TUMOR_SCENE,
                               classifier="perfect")
        with pytest.raises(ConfigError):
            run_roi_experiment(cfg, tmp_path)


FULL_RUN_CFG = ExperimentConfig(seed=3, noiseless=True, scan_points=64,
                                classifier="threshold")


@pytest.fixture(scope="class")
def full_run(tmp_path_factory):
    return run_end_to_end(FULL_RUN_CFG, tmp_path_factory.mktemp("full"))


class TestEndToEnd:
    def test_noiseless_64_points(self, full_run):
        r = full_run
        assert r.report["regions"]["algorithm"]["iou"] >= 0.5
        assert r.report["regions"]["calibration"]["iou"] >= 0.999
        expected = {"laser_calibration", "camera_extrinsics", "volume",
                    "volume_sidecar", "surface", "spectra", "tumor_map",
                    "boundary", "cut_plan", "actual_spots", "post_surface",
                    "ledger", "report"}
        assert expected <= set(r.artifacts)
        for path in r.artifacts.values():
            assert path.exists()

    def test_all_healthy_degenerate(self, tmp_path):
        cfg = ExperimentConfig(seed=3, noiseless=True, scan_points=64,
                               classifier="perfect", scene=NO_TUMOR_SCENE)
        with pytest.raises(TooFewTumorTags):
            run_end_to_end(cfg, tmp_path)

    @pytest.mark.parametrize("noiseless", [True, False])
    def test_scene_above_cameras_raises_behind_camera(self, tmp_path,
                                                      noiseless):
        # the cameras sit at z = 130 mm, so fiducials on a plane at z = 200
        # are behind them: BehindCamera, not a ValueError from a NaN pixel
        scene = {"primitives": [{"kind": "plane", "z": 200.0}]}
        cfg = ExperimentConfig(seed=1, noiseless=noiseless, scene=scene)
        with pytest.raises(BehindCamera):
            _estimate_cameras(cfg, ScenePhantom.from_dict(scene))
        with pytest.raises(BehindCamera) as info:
            run_end_to_end(cfg, tmp_path)
        assert info.value.stage == "calibrate"
        assert not list(tmp_path.iterdir())

    def test_stage_truncation(self, tmp_path, full_run):
        r = run_end_to_end(FULL_RUN_CFG, tmp_path / "calibrate",
                           through_stage="calibrate")
        assert "laser_calibration" in r.artifacts
        assert "volume" not in r.artifacts
        r = run_end_to_end(FULL_RUN_CFG, tmp_path / "scan",
                           through_stage="scan")
        assert "volume" in r.artifacts
        assert "tumor_map" not in r.artifacts

        # a truncated run writes a byte-identical prefix of the full run
        r = run_end_to_end(FULL_RUN_CFG, tmp_path / "plan",
                           through_stage="plan")
        assert list(r.timings) == ["calibrate", "scan", "classify", "map",
                                   "plan"]
        assert "cut_plan" in r.artifacts
        assert "actual_spots" not in r.artifacts
        full_dir = full_run.artifacts["report"].parent
        for path in (tmp_path / "plan").iterdir():
            if path.name != "e2e_report.json":
                assert filecmp.cmp(path, full_dir / path.name,
                                   shallow=False), path.name
        assert (list(r.report.items())
                == list(full_run.report.items())[:len(r.report)])

    def test_mlp_classifier_path(self, tmp_path):
        cfg = ExperimentConfig(seed=3, noiseless=True, scan_points=64,
                               classifier="mlp", mlp_epochs=3,
                               mlp_train_per_class=40)
        r = run_end_to_end(cfg, tmp_path)
        assert "model" in r.artifacts
        assert r.report["classification"]["accuracy"] >= 0.9


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_scan_holds_one_b_scan_at_a_time(tmp_path, noise):
    # the e2e scan's one pass (render, check, append and segment each
    # B-scan) at the default grid, whose float32 C-scan is 128 MiB; holding
    # it whole, or drawing its noise at once, would trace several times
    # this bound
    cfg = OctConfig(noise_amplitude=noise)
    scene = ScenePhantom.from_dict(ExperimentConfig(seed=1).scene)
    tracemalloc.start()
    try:
        (raw, _), surface = _scan_volume(scene, cfg, 7, tmp_path / "vol")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert raw.stat().st_size == cfg.n_bscans * cfg.n_axial * cfg.n_lateral * 4
    assert surface.valid_mask().all()


def test_scan_renders_once_and_reads_nothing_back(tmp_path, monkeypatch):
    passes = []

    def counted_render(*args, **kwargs):
        volume = render_oct_volume(*args, **kwargs)

        def b_scans():
            passes.append(1)
            return iter(volume.b_scans)

        return OctVolume(BScanStream(b_scans), volume.config, volume.origin)

    def no_read_back(*args, **kwargs):
        raise AssertionError("the scan read its volume back")

    cfg = OctConfig(n_bscans=6, n_axial=64, n_lateral=10,
                    axial_pitch=0.06, noise_amplitude=0.05)
    scene = ScenePhantom.from_dict(ExperimentConfig(seed=1).scene)
    monkeypatch.setattr(harness, "render_oct_volume", counted_render)
    monkeypatch.setattr(rio, "read_oct_volume", no_read_back)
    monkeypatch.setattr(np, "fromfile", no_read_back)
    (raw, sidecar), surface = _scan_volume(scene, cfg, 7, tmp_path / "vol")
    assert passes == [1]

    want = render_oct_volume(scene, (0.0, 0.0), cfg, seed=7)
    assert raw.read_bytes() == np.stack(list(want)).astype("<f4").tobytes()
    assert json.loads(sidecar.read_text())["shape"] == [6, 64, 10]
    want_surface = segment_surface(want)
    assert np.array_equal(surface.points, want_surface.points)
    assert np.array_equal(surface.valid, want_surface.valid)


def test_run_stages_times_stops_and_names_the_failing_stage(tmp_path):
    def stages(cfg, out, run):
        yield "first"
        run.report["first"] = True
        yield "second"
        raise EmptySurface("nothing to segment")

    r = _run_stages(stages, None, tmp_path / "a", "r.json",
                    through_stage="first")
    assert list(r.timings) == ["first"] and r.report == {"first": True}
    with pytest.raises(EmptySurface) as info:
        _run_stages(stages, None, tmp_path / "b", "r.json")
    assert info.value.stage == "second"


@pytest.mark.parametrize("spec", [
    ExperimentConfig(seed=1).scene,
    NO_TUMOR_SCENE,
    # a polygon tumor with a healthy disc painted over it, on a bump
    {"primitives": [{"kind": "plane", "z": 3.0},
                    {"kind": "gauss_bump", "center": [6, 6], "sigma": 2,
                     "height": 1}],
     "regions": [{"label": "tumor", "kind": "polygon",
                  "vertices": [[2, 2], [10, 3], [9, 10], [3, 9]]},
                 {"label": "healthy", "kind": "disc", "center": [6, 6],
                  "radius": 1}]},
], ids=["default", "no-tumor", "polygon-and-disc"])
def test_camera_image_matches_label_palette_oracle(spec):
    # painting through region indices, block by block, gives the image the
    # label strings gave over the whole grid; the default OctConfig() is the
    # e2e grid, whose 512 grid rows are painted in 16 blocks
    scene = ScenePhantom.from_dict(spec)
    for cfg in (OctConfig(n_bscans=32, n_lateral=256), OctConfig()):
        for camera in _default_cameras():
            assert np.array_equal(
                render_camera_image(scene, camera, cfg),
                oracles.render_camera_image(scene, camera, cfg))


@pytest.mark.parametrize("policy", ["healthy", "tumor"])
def test_threshold_scan_labels_map_uncertain_to_the_policy(monkeypatch,
                                                            policy):
    true_labels = ["tumor", "healthy", "tumor", "healthy", "tumor"]
    spectra = synth_spectrum(true_labels, [11, 12, 13, 14, 15])
    bands = harness.PHANTOM_RULE.bands
    # a rule whose threshold is row 2's band mean exactly: row 2 is uncertain
    rule = ThresholdClassifier(bands, band_mean(preprocess(spectra), bands)[2],
                               0.0, "low")
    monkeypatch.setattr(harness, "PHANTOM_RULE", rule)
    cfg = ExperimentConfig(seed=1, classifier="threshold",
                           uncertain_policy=policy)
    true_tumor = np.array(true_labels) == "tumor"
    got = _scan_labels(cfg, spectra, true_tumor)
    want = [oracles.threshold_classify(
        rule, oracles.preprocess(oracles.synth_spectrum(lab, seed)))
        for lab, seed in zip(true_labels, [11, 12, 13, 14, 15])]
    assert want[2] == "uncertain" and "uncertain" not in want[:2] + want[3:]
    assert got.tolist() == [v == "tumor"
                            for v in want[:2] + [policy] + want[3:]]
    perfect = ExperimentConfig(seed=1, classifier="perfect")
    assert _scan_labels(perfect, spectra, true_tumor).tolist() == [
        True, False, True, False, True]
