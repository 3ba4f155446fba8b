"""Acceptance gate: one test per release criterion, each at its stated
tolerance and runtime budget. Every test prints a PASS line with its
measured runtime (visible with ``pytest -s`` or in the summary on failure).

Run with: pytest tests/test_acceptance.py -v -s
"""

import filecmp
import hashlib
import time

import numpy as np

from resectsim.calibration import (
    LaserCalibration,
    calibrate_laser_orientation,
    synthesize_spot_observations,
)
from resectsim.geometry import (
    ReferenceFrame,
    SurfaceCloud,
    normalize,
    triangulate_grid,
)
from resectsim.harness import (
    PROFILES,
    ExperimentConfig,
    run_end_to_end,
    run_roi_experiment,
    truth_calibration,
)
from resectsim.kinematics import solve_ik
from resectsim.mapping import boundary_from_tags, ray_mesh_intersect
from resectsim.metrics import (
    rasterize_pair,
    region_iou,
    two_sample_t_test,
    undercut_ratio,
)
from resectsim.sensors import (
    OctConfig,
    ScenePhantom,
    render_oct_volume,
    segment_surface,
    synth_spectrum,
)
from resectsim.spectra import (
    TrainConfig,
    fit_threshold,
    gradient_check,
    init_mlp,
    make_splits,
    mlp_predict,
    mlp_train,
    preprocess,
    threshold_classify,
)

from oracles import Ray


def _report(num, desc, elapsed, budget):
    print(f"criterion {num:02d} PASS: {desc} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_ik_residual_meshgrid():
    t0 = time.perf_counter()
    worst = 0.0
    xs = np.linspace(0.0, 13.0, 10)
    ys = np.linspace(0.0, 13.0, 10)
    for profile in PROFILES.values():
        calib = truth_calibration(profile)
        for z in (2.0, 4.0, 6.0):
            for x in xs:
                for y in ys:
                    sol = solve_ik(calib, [x, y, z], tol=1e-6)
                    worst = max(worst, sol.residual)
    assert worst < 1e-6
    _report(1, f"IK max residual {worst:.2e} mm over 10x10x3 grid, 3 rigs",
            time.perf_counter() - t0, 5.0)


def test_criterion_02_calibration_recovery_200_trials():
    t0 = time.perf_counter()
    frame = ReferenceFrame([0.0, 0.0, 56.3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    betas = [(-4.0, -4.0), (4.0, -4.0), (4.0, 4.0), (-4.0, 4.0)][:2]
    heights = [0.0, 2.0, 4.0, 6.0]
    rng = np.random.default_rng(2024)
    worst_angle = 0.0
    worst_alpha = 0.0
    for _ in range(200):
        tilt = rng.uniform(0.0, np.radians(30.0))
        azim = rng.uniform(0.0, 2 * np.pi)
        v = normalize([np.sin(tilt) * np.cos(azim),
                       np.sin(tilt) * np.sin(azim), -np.cos(tilt)])
        alpha = rng.uniform(-5.0, 5.0, 2)
        truth = LaserCalibration(frame, alpha, v)
        obs = synthesize_spot_observations(truth, betas, heights)
        est = calibrate_laser_orientation(frame, obs)  # vertical initial guess
        angle = np.arccos(np.clip(np.dot(est.v_w, v), -1.0, 1.0))
        worst_angle = max(worst_angle, float(angle))
        worst_alpha = max(worst_alpha, float(np.max(np.abs(est.alpha - alpha))))
    assert worst_angle < 1e-6
    assert worst_alpha < 1e-6
    _report(2, f"200/200 recoveries, worst angle {worst_angle:.2e} rad, "
               f"worst alpha {worst_alpha:.2e} mm",
            time.perf_counter() - t0, 30.0)


def test_criterion_03_calibration_noise_bracket():
    t0 = time.perf_counter()
    frame = ReferenceFrame([0.0, 0.0, 56.3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    truth = LaserCalibration(frame, (1.5, -2.0), normalize([0.2, -0.1, -0.97]))
    betas = [(-4.0, -4.0), (4.0, -4.0), (4.0, 4.0), (-4.0, 4.0)][:2]
    heights = [0.0, 2.0, 4.0, 6.0]
    rms_values = []
    for seed in range(50):
        obs = synthesize_spot_observations(
            truth, betas, heights, noise_sigma=0.1,
            rng=np.random.default_rng(seed))
        est = calibrate_laser_orientation(frame, obs)
        rms_values.append(est.residual_rms)
    rms_values = np.array(rms_values)
    assert np.all(rms_values >= 0.05)
    assert np.all(rms_values <= 0.5)
    _report(3, f"50-seed residual RMS in [{rms_values.min():.3f}, "
               f"{rms_values.max():.3f}] mm within [0.05, 0.5]",
            time.perf_counter() - t0, 30.0)


def test_criterion_04_sensor_roundtrip_three_scenes():
    t0 = time.perf_counter()
    scenes = {
        "plane": ScenePhantom(primitives=({"kind": "plane", "z": 3.0},),
                              albedo={"default": 1.0}),
        "sphere_cap": ScenePhantom(
            primitives=(
                {"kind": "plane", "z": 2.0},
                {"kind": "sphere_cap", "center": [6.3, 6.4], "radius": 4.0,
                 "height": 2.0},
            ),
            albedo={"default": 1.0}),
        "two_bump": ScenePhantom(
            primitives=(
                {"kind": "plane", "z": 2.0},
                {"kind": "gauss_bump", "center": [4.0, 4.0], "sigma": 1.5,
                 "height": 1.8},
                {"kind": "gauss_bump", "center": [9.0, 8.0], "sigma": 2.0,
                 "height": 1.2},
            ),
            albedo={"default": 1.0}),
    }
    cfg = OctConfig()
    for name, scene in scenes.items():
        volume = render_oct_volume(scene, (0.0, 0.0), cfg)
        cloud = segment_surface(volume)
        ok = cloud.valid_mask()
        pts = cloud.points[ok]
        truth = scene.height(pts[:, 0], pts[:, 1])
        err = np.abs(pts[:, 2] - truth)
        assert err.max() <= cfg.axial_pitch, f"{name}: {err.max():.5f}"
    _report(4, "plane, sphere-cap, two-bump height fields reproduced within "
               "one axial pixel at every valid A-scan",
            time.perf_counter() - t0, 20.0)


def _cramer_ray_mesh_oracle(ray, mesh):
    """Independent all-triangles oracle via batched 3x3 linear solves."""
    tris = mesh.triangles
    v0 = mesh.vertices[tris[:, 0]]
    e1 = mesh.vertices[tris[:, 1]] - v0
    e2 = mesh.vertices[tris[:, 2]] - v0
    n = len(tris)
    m = np.empty((n, 3, 3))
    m[:, :, 0] = -ray.direction
    m[:, :, 1] = e1
    m[:, :, 2] = e2
    dets = np.linalg.det(m)
    solvable = np.abs(dets) > 1e-12
    tuv = np.full((n, 3), np.nan)
    if np.any(solvable):
        rhs = (ray.origin - v0)[solvable][:, :, None]
        tuv[solvable] = np.linalg.solve(m[solvable], rhs)[:, :, 0]
    t, u, v = tuv[:, 0], tuv[:, 1], tuv[:, 2]
    hit = solvable & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-12)
    if not np.any(hit):
        return None
    t_masked = np.where(hit, t, np.inf)
    idx = int(np.argmin(t_masked))
    return ray.at(float(t[idx])), idx


def test_criterion_05_raytrace_brute_force_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    pts = []
    for r in range(20):
        for c in range(20):
            pts.append([c * 0.7, r * 0.7, rng.uniform(0.0, 2.5)])
    mesh = triangulate_grid(SurfaceCloud(20, 20, np.array(pts)))
    hits = 0
    for _ in range(1000):
        origin = np.array([rng.uniform(-2, 16), rng.uniform(-2, 16),
                           rng.uniform(5.0, 12.0)])
        aim = np.array([rng.uniform(-2, 16), rng.uniform(-2, 16), 0.0])
        ray = Ray(origin, aim - origin)
        hit, point, index = ray_mesh_intersect(ray.origin[None], mesh,
                                               ray.direction)
        want = _cramer_ray_mesh_oracle(ray, mesh)
        if want is None:
            assert not hit[0]
        else:
            assert hit[0]
            assert index[0] == want[1]
            assert np.linalg.norm(point[0] - want[0]) < 1e-9
            hits += 1
    assert hits > 400  # mix of hits and misses
    _report(5, f"1000 rays vs 722-triangle field, {hits} hits, exact "
               "index + point agreement with the linear-solve oracle",
            time.perf_counter() - t0, 10.0)


def _half_plane_hull(pts):
    n = len(pts)
    succ = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = (pts[j, 0] - pts[i, 0]) * (pts[:, 1] - pts[i, 1]) - (
                pts[j, 1] - pts[i, 1]) * (pts[:, 0] - pts[i, 0])
            if d.min() >= -1e-12:
                succ[i] = j
    start = min(succ)
    out = [start]
    cur = succ[start]
    while cur != start:
        out.append(cur)
        cur = succ[cur]
    return pts[out]


def test_criterion_06_hull_oracle_100_instances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        pts = rng.uniform(-5.0, 5.0, size=(int(rng.integers(3, 51)), 2))
        spots = np.column_stack([pts, np.zeros(len(pts))])
        hull = boundary_from_tags(spots, np.ones(len(pts), dtype=bool))
        oracle = _half_plane_hull(pts)
        assert len(hull) == len(oracle)
        match = False
        for shift in range(len(oracle)):
            if np.allclose(hull, np.roll(oracle, shift, axis=0), atol=1e-12):
                match = True
                break
        assert match
    _report(6, "boundary equals the all-pairs half-plane hull on "
               "100 random instances",
            time.perf_counter() - t0, 5.0)


def test_criterion_07_metric_identities():
    t0 = time.perf_counter()
    sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
    far = [(5, 5), (6, 5), (6, 6), (5, 6)]
    half = [(0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)]
    assert region_iou(sq, sq) == 1.0
    assert region_iou(sq, far) == 0.0
    assert abs(region_iou(sq, half) - 1.0 / 3.0) < 0.01
    # undercut + intersection fraction = 1 on the shared raster
    mt, ma = rasterize_pair(sq, half)
    inter_frac = np.sum(mt & ma) / mt.sum()
    assert abs(undercut_ratio(sq, half) + inter_frac - 1.0) < 1e-12
    t_stat, _, p = two_sample_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t_stat == 0.0
    assert p == 1.0
    _report(7, "IoU/undercut identities and Welch t=0 p=1 all hold",
            time.perf_counter() - t0, 5.0)


def test_criterion_08_gradient_check_full_model():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    x = np.vstack([rng.normal(1.0, 0.4, (80, 251)),
                   rng.normal(-1.0, 0.4, (80, 251))])
    y = np.array([0] * 80 + [1] * 80)
    model = init_mlp(251, seed=0)
    batch = np.vstack([x[:8], x[-8:]])
    batch_y = np.concatenate([y[:8], y[-8:]])
    before = gradient_check(model, batch, batch_y, n_samples=200, seed=1)
    assert before < 1e-4
    # 160 samples / batch 16 = exactly 10 optimizer steps
    trained, _ = mlp_train(x, y, TrainConfig(epochs=1, seed=0))
    after = gradient_check(trained, batch, batch_y, n_samples=200, seed=2)
    assert after < 1e-4
    _report(8, f"max rel gradient error {before:.2e} before / {after:.2e} "
               "after 10 training steps (200 weights each)",
            time.perf_counter() - t0, 20.0)


def _spectrum_corpus():
    """Seven synthetic subjects, 200 spectra each (100 per class)."""
    rows, labels, subjects = [], [], []
    sid = 0
    for s in range(7):
        for k in range(200):
            label = "tumor" if k % 2 else "healthy"
            spec = preprocess(synth_spectrum(label, seed=10_000 * s + k))
            rows.append(spec.intensities)
            labels.append(1 if label == "tumor" else 0)
            subjects.append(f"subject{s}")
            sid += 1
    return np.array(rows), np.array(labels), np.array(subjects)


# SHA-256 of criterion 09's weight and bias bytes, then its history's
C09_DIGEST = "fd4290776bbaa98369c13dc9aa6ae607a1c5d3cbbde94284f895b65a6cd25a6e"


def test_criterion_09_synthetic_classification():
    t0 = time.perf_counter()
    x, y, subjects = _spectrum_corpus()
    plan = make_splits(subjects, ratio=(5, 2), seed=0)[0]
    assert len(plan.train_indices) == 1000
    assert len(plan.test_indices) == 400

    model, history = mlp_train(x[plan.train_indices], y[plan.train_indices],
                               TrainConfig(epochs=150, batch_size=16,
                                           learning_rate=1e-3, seed=0))
    # recorded from whole gradient arrays and a whole-array Adam update,
    # before the update ran on row slices that two threads share, each
    # slice's gradient made in the slice as the backward pass releases its
    # layer; the same with one BLAS thread and with the default count
    digest = hashlib.sha256()
    for a in model.weights + model.biases:
        digest.update(a.tobytes())
    digest.update(np.array(history).tobytes())
    assert digest.hexdigest() == C09_DIGEST
    pred = mlp_predict(model, x[plan.test_indices])
    mlp_acc = float((pred == y[plan.test_indices]).mean())
    assert mlp_acc >= 0.95

    bands = [(495.0, 570.0)]
    wl = np.arange(450.0, 701.0)

    def as_spectrum(row):
        from resectsim.spectra import Spectrum

        return Spectrum(wl, row, state="preprocessed")

    train_t = [as_spectrum(x[i]) for i in plan.train_indices if y[i] == 1]
    train_h = [as_spectrum(x[i]) for i in plan.train_indices if y[i] == 0]
    clf = fit_threshold(train_t, train_h, bands)
    correct = 0
    for i in plan.test_indices:
        verdict = threshold_classify(clf, as_spectrum(x[i]))
        hard = 1 if verdict == "tumor" else 0  # uncertain maps to healthy
        correct += int(hard == y[i])
    thr_acc = correct / len(plan.test_indices)
    assert thr_acc >= 0.90
    _report(9, f"subject-split test accuracy: network {mlp_acc:.3f} >= 0.95, "
               f"threshold rule {thr_acc:.3f} >= 0.90",
            time.perf_counter() - t0, 180.0)


def test_criterion_10_closed_loop_noiseless(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(seed=12, noiseless=True, classifier="perfect",
                           scan_points=100)
    result = run_roi_experiment(cfg, tmp_path)
    regs = result.report["regions"]
    assert regs["calibration"]["iou"] == 1.0
    assert regs["algorithm"]["mean"] <= 1.44
    assert regs["algorithm"]["undercut"] >= regs["algorithm"]["overcut"]
    _report(10, f"calibration IoU == 1.0 exactly; algorithm edge mean "
                f"{regs['algorithm']['mean']:.3f} <= 1.44 mm; undercut "
                f"{regs['algorithm']['undercut']:.3f} >= overcut "
                f"{regs['algorithm']['overcut']:.3f}",
            time.perf_counter() - t0, 30.0)


def test_criterion_11_determinism_byte_identical(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(seed=5, noiseless=False, classifier="threshold",
                           scan_points=64, profile="tumorid")
    r1 = run_end_to_end(cfg, tmp_path / "a")
    r2 = run_end_to_end(cfg, tmp_path / "b")
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names_a == names_b
    for name in names_a:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), f"artifact differs: {name}"
    _report(11, f"full-loop repeat produced {len(names_a)} byte-identical "
                "artifacts (JSON, CSV, PLY, raw volume)",
            time.perf_counter() - t0, 120.0)
