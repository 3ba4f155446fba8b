import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import EmptyObservations, reprojection_error
from resectsim.calibration import (
    MIN_AXIS_LENGTH,
    LaserCalibration,
    SpotObservations,
    angles_from_beam,
    beam_angle_jacobian,
    beam_from_angles,
    calibrate_laser_axes,
    calibrate_laser_orientation,
    estimate_camera_extrinsics,
    laser_least_squares,
    synthesize_spot_observations,
    waypoint_position,
)
from resectsim.errors import (
    DegenerateAxis,
    DegenerateConfiguration,
    IllConditioned,
)
from resectsim.geometry import ReferenceFrame, normalize
from resectsim.io import laser_calibration_to_dict
from resectsim.optimize import levenberg_marquardt
from resectsim.sensors import PinholeCamera, project_points

FRAME = ReferenceFrame([0.0, 0.0, 56.3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
BETAS = [(-4.0, -4.0), (4.0, -4.0), (4.0, 4.0), (-4.0, 4.0)][:2]
HEIGHTS = [0.0, 2.0, 4.0, 6.0]


def rotation_angle(a, b):
    c = (np.trace(a.T @ b) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def vector_angle(a, b):
    return float(np.arccos(np.clip(np.dot(normalize(a), normalize(b)), -1, 1)))


class TestBeamParameterization:
    def test_vertical(self):
        assert np.allclose(beam_from_angles(0.0, 0.0), [0, 0, -1])

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            th, ph = rng.uniform(-1.0, 1.0, 2)
            assert abs(np.linalg.norm(beam_from_angles(th, ph)) - 1) < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            th, ph = rng.uniform(-0.5, 0.5, 2)
            v = beam_from_angles(th, ph)
            th2, ph2 = angles_from_beam(v)
            assert abs(th - th2) < 1e-12 and abs(ph - ph2) < 1e-12

    def test_jacobian_matches_finite_differences(self):
        h = 1e-7
        for th, ph in [(0.1, -0.2), (0.0, 0.0), (-0.3, 0.25)]:
            jac = beam_angle_jacobian(th, ph)
            fd_t = (beam_from_angles(th + h, ph) - beam_from_angles(th - h, ph)) / (2 * h)
            fd_p = (beam_from_angles(th, ph + h) - beam_from_angles(th, ph - h)) / (2 * h)
            assert np.allclose(jac[:, 0], fd_t, atol=1e-8)
            assert np.allclose(jac[:, 1], fd_p, atol=1e-8)


class TestAxes:
    def test_x_axis(self):
        frame = calibrate_laser_axes(
            [0, 0, 20], ([0, 0, 20], [10, 0, 20]), ([0, 0, 20], [0, 8, 20]))
        assert np.allclose(frame.v_x, [1, 0, 0])

    def test_degenerate(self):
        with pytest.raises(DegenerateAxis):
            calibrate_laser_axes(
                [0, 0, 20], ([0, 0, 20], [0, 0, 20]), ([0, 0, 20], [0, 8, 20]))

    def test_non_orthogonal_kept_as_is(self):
        ang = np.radians(85.0)
        frame = calibrate_laser_axes(
            [0, 0, 20], ([0, 0, 20], [10, 0, 20]),
            ([0, 0, 20], [10 * np.cos(ang), 10 * np.sin(ang), 20]))
        assert abs(np.dot(frame.v_x, frame.v_y) - np.cos(ang)) < 1e-12


class TestLaserOrientation:
    def truth(self, v=(0.2, -0.1, -0.97), alpha=(1.5, -2.0)):
        return LaserCalibration(FRAME, alpha, normalize(v))

    def test_noiseless_recovery(self):
        truth = self.truth()
        obs = synthesize_spot_observations(truth, BETAS, HEIGHTS)
        assert len(obs) == 8
        est = calibrate_laser_orientation(FRAME, obs)
        assert vector_angle(est.v_w, truth.v_w) < 1e-6
        assert np.max(np.abs(est.alpha - truth.alpha)) < 1e-6
        assert est.residual_rms < 1e-9

    def test_vertical_truth(self):
        truth = LaserCalibration(FRAME, (0.0, 0.0), (0.0, 0.0, -1.0))
        obs = synthesize_spot_observations(truth, BETAS, HEIGHTS)
        est = calibrate_laser_orientation(FRAME, obs)
        assert vector_angle(est.v_w, truth.v_w) < 1e-9

    def test_single_height_ill_conditioned(self):
        truth = self.truth()
        obs = synthesize_spot_observations(truth, BETAS + [(0.0, 2.0)], [3.0])
        with pytest.raises(IllConditioned):
            calibrate_laser_orientation(FRAME, obs)

    def test_too_few_observations(self):
        truth = self.truth()
        obs = synthesize_spot_observations(truth, BETAS[:1], [0.0, 4.0])
        assert len(obs) == 2
        with pytest.raises(ValueError):
            calibrate_laser_orientation(FRAME, obs)

    def test_random_recovery_from_vertical_start(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            tilt = rng.uniform(0, np.radians(30))
            azim = rng.uniform(0, 2 * np.pi)
            v = normalize([
                np.sin(tilt) * np.cos(azim),
                np.sin(tilt) * np.sin(azim),
                -np.cos(tilt),
            ])
            alpha = rng.uniform(-5, 5, 2)
            truth = LaserCalibration(FRAME, alpha, v)
            obs = synthesize_spot_observations(truth, BETAS, HEIGHTS)
            est = calibrate_laser_orientation(FRAME, obs)
            assert vector_angle(est.v_w, v) < 1e-6
            assert np.max(np.abs(est.alpha - alpha)) < 1e-6

    def test_noise_bracket(self):
        truth = self.truth()
        for seed in range(5):
            obs = synthesize_spot_observations(
                truth, BETAS, HEIGHTS, noise_sigma=0.1,
                rng=np.random.default_rng(seed))
            est = calibrate_laser_orientation(FRAME, obs)
            assert 0.05 <= est.residual_rms <= 0.5


    def test_normal_solve_reports_its_stop(self):
        truth = self.truth()
        for sigma in (0.0, 0.1):
            obs = synthesize_spot_observations(
                truth, BETAS, HEIGHTS, noise_sigma=sigma,
                rng=np.random.default_rng(3))
            est = calibrate_laser_orientation(FRAME, obs)
            assert est.stop in ("gradient", "step")
            assert "stop" not in laser_calibration_to_dict(est)


def random_rig(rng, max_tilt_deg):
    """A frame with non-orthogonal, slightly sloped axes, and a beam leaning
    up to ``max_tilt_deg`` from vertical."""
    skew = rng.uniform(np.radians(60), np.radians(120))
    frame = ReferenceFrame(
        rng.uniform(-20, 20, 2).tolist() + [rng.uniform(20, 80)],
        normalize([1.0, rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1)]),
        [np.cos(skew), np.sin(skew), rng.uniform(-0.1, 0.1)])
    tilt = np.radians(rng.uniform(0.0, max_tilt_deg))
    azim = rng.uniform(0, 2 * np.pi)
    v = normalize([np.sin(tilt) * np.cos(azim), np.sin(tilt) * np.sin(azim),
                   -np.cos(tilt)])
    return LaserCalibration(frame, rng.uniform(-5, 5, 2), v)


class TestArrayResidualAgainstOracle:
    """The array residual, Jacobian and synthesis give the per-observation
    bits."""

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40),
           max_tilt=st.sampled_from([0.0, 30.0, 85.0]))
    def test_residual_and_jacobian_equal_per_observation_oracle(
            self, seed, m, max_tilt):
        # half the boards tilted, so d = n.v differs from row to row:
        # squaring d through pow() and through a multiply disagree in
        # about one d of a thousand
        rng = np.random.default_rng(seed)
        frame = random_rig(rng, 0.0).frame

        normals = np.ones((m, 3))
        normals[1::2, :2] = rng.uniform(-0.5, 0.5, (m // 2, 2))
        obs = SpotObservations(
            rng.uniform(-10, 10, (m, 2)),
            np.column_stack([rng.uniform(-5, 5, (m, 2)),
                             rng.uniform(-5, 10, m)]),
            normals, rng.uniform(-20, 20, (m, 3)))
        tilt = np.radians(max_tilt)
        got = laser_least_squares(frame, obs)
        want = oracles.laser_least_squares(frame, obs)
        for x in np.column_stack([rng.uniform(-tilt, tilt, (8, 2)),
                                  rng.uniform(-5, 5, (8, 2))]):
            for fn, ref in zip(got, want):
                assert fn(x).tobytes() == ref(x).tobytes()

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1),
           max_tilt=st.sampled_from([0.0, 30.0, 60.0]),
           sigma=st.sampled_from([0.0, 0.05]))
    def test_solve_equals_oracle_solve(self, seed, max_tilt, sigma):
        rng = np.random.default_rng(seed)
        truth = random_rig(rng, max_tilt)
        obs = synthesize_spot_observations(
            truth, [(-4.0, -4.0), (4.0, -4.0), (4.0, 4.0), (-4.0, 4.0)],
            HEIGHTS, noise_sigma=sigma, rng=rng)
        est = calibrate_laser_orientation(truth.frame, obs)
        ref = levenberg_marquardt(
            *oracles.laser_least_squares(truth.frame, obs), np.zeros(4))
        assert (est.iterations, est.stop) == (ref.iterations, ref.stop)
        assert est.v_w.tobytes() == beam_from_angles(*ref.x[:2]).tobytes()
        assert est.alpha.tobytes() == ref.x[2:].tobytes()

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), n_betas=st.integers(0, 6),
           n_heights=st.integers(0, 5), sigma=st.sampled_from([0.0, 0.1]))
    def test_synthesis_replays_per_observation_draws(self, seed, n_betas,
                                                     n_heights, sigma):
        rng = np.random.default_rng(seed)
        truth = random_rig(rng, 45.0)
        betas = rng.uniform(-6, 6, (n_betas, 2))
        heights = rng.uniform(-2, 8, n_heights)
        obs = synthesize_spot_observations(
            truth, betas, heights, noise_sigma=sigma,
            rng=np.random.default_rng(seed))
        replay = np.random.default_rng(seed)
        theta, phi = angles_from_beam(truth.v_w)
        pairs = list(itertools.product(heights, betas))
        assert len(obs) == len(pairs)
        for k, (h, beta) in enumerate(pairs):
            plane = oracles.target_plane([0.0, 0.0, h])
            spot = oracles.spot_prediction(truth.frame, truth.alpha, beta,
                                           theta, phi, plane)[0]
            if sigma > 0:
                spot = spot + replay.normal(0.0, sigma, 3)
            assert obs.spots[k].tobytes() == spot.tobytes()
            assert obs.betas[k].tobytes() == beta.tobytes()
            assert obs.centers[k].tobytes() == plane[0].tobytes()
            assert obs.normals[k].tobytes() == plane[1].tobytes()


class TestReprojection:
    def test_perfect(self):
        truth = LaserCalibration(FRAME, (1.0, -1.0), normalize((0.1, 0.0, -1.0)))
        obs = synthesize_spot_observations(truth, BETAS, HEIGHTS)
        res, rms = reprojection_error(truth, obs)
        assert rms < 1e-9

    def test_uniform_z_shift(self):
        truth = LaserCalibration(FRAME, (0.0, 0.0), normalize((0.05, 0.02, -1.0)))
        obs = synthesize_spot_observations(truth, BETAS, HEIGHTS)
        shifted = dataclasses.replace(obs, spots=obs.spots + [0, 0, 0.1])
        res, rms = reprojection_error(truth, shifted)
        assert 0.0 < rms <= 0.15

    def test_empty(self):
        truth = LaserCalibration(FRAME, (0.0, 0.0), (0.0, 0.0, -1.0))
        with pytest.raises(EmptyObservations):
            reprojection_error(
                truth, synthesize_spot_observations(truth, BETAS, []))


class TestWaypoint:
    def test_linear_offsets(self):
        p = waypoint_position(FRAME, (1.0, -1.0), (3.0, 4.0))
        assert np.allclose(p, [4.0, 3.0, 56.3])

    def test_plan_rows_equal_single_waypoints(self):
        # a skewed, tilted frame: every row of a plan is the same double as
        # its waypoint computed alone
        rng = np.random.default_rng(4)
        frame = ReferenceFrame([0.3, -0.2, 56.3], [1.0, 0.03, 0.011],
                               [-0.04, 1.0, -0.007])
        alpha = rng.normal(0.0, 2.0, 2)
        betas = rng.uniform(-10.0, 10.0, size=(50, 2))
        rows = waypoint_position(frame, alpha, betas)
        assert rows.shape == (50, 3)
        assert np.array_equal(rows, [waypoint_position(frame, alpha, b)
                                     for b in betas])
        assert np.array_equal(waypoint_position(frame, alpha, betas[:1]),
                              rows[:1])

    @pytest.mark.parametrize("beta", [[1.0], [1.0, 2.0, 3.0],
                                      np.zeros((2, 2, 2))],
                             ids=["one", "three", "three-dims"])
    def test_bad_waypoint_shape(self, beta):
        with pytest.raises(ValueError, match="waypoints must be"):
            waypoint_position(FRAME, (0.0, 0.0), beta)


def true_camera():
    return PinholeCamera.look_at(
        [10.0, -15.0, 130.0], [6.0, 6.0, 3.0],
        fx=2000.0, fy=2000.0, cx=640.0, cy=360.0,
    )


def make_correspondences(cam, n, seed=0, pixel_noise=0.0):
    rng = np.random.default_rng(seed)
    world = np.column_stack([
        rng.uniform(0, 13, n), rng.uniform(0, 13, n), rng.uniform(0, 7, n)
    ])
    pixels, in_front = project_points(cam, world)
    assert in_front.all()
    if pixel_noise > 0:  # one draw per point, in point order
        pixels = pixels + rng.normal(0, pixel_noise, (n, 2))
    return pixels, world


class TestCameraExtrinsics:
    def intrinsics_only(self):
        return PinholeCamera(2000.0, 2000.0, 640.0, 360.0, np.eye(3), np.zeros(3))

    def test_noiseless_recovery(self):
        cam = true_camera()
        corr = make_correspondences(cam, 20, seed=1)
        est, stats = estimate_camera_extrinsics(self.intrinsics_only(), *corr)
        assert rotation_angle(est.rotation, cam.rotation) < 1e-8
        assert np.linalg.norm(est.translation - cam.translation) < 1e-7
        assert stats.rms_px < 1e-6

    def test_on_axis_degenerate(self):
        cam = self.intrinsics_only()
        world = np.column_stack([np.zeros((7, 2)), np.arange(10.0, 17.0)])
        with pytest.raises(DegenerateConfiguration):
            estimate_camera_extrinsics(cam, np.tile([640.0, 360.0], (7, 1)),
                                       world)

    def test_noisy_residual_band(self):
        cam = true_camera()
        means = []
        for seed in range(10):
            corr = make_correspondences(cam, 30, seed=seed, pixel_noise=0.5)
            _, stats = estimate_camera_extrinsics(self.intrinsics_only(),
                                                  *corr)
            means.append(stats.pixel_residuals.mean())
        assert 0.3 <= np.mean(means) <= 0.8

    def test_objective_monotone(self):
        cam = true_camera()
        corr = make_correspondences(cam, 25, seed=3, pixel_noise=1.0)
        _, stats = estimate_camera_extrinsics(self.intrinsics_only(), *corr)
        hist = np.array(stats.cost_history)
        assert np.all(np.diff(hist) <= 0)
        # only the step-tolerance exit ends right after an accepted step
        assert stats.stop in ("gradient", "step", "no_descent")
        assert (stats.stop == "step") == (stats.iterations == len(hist) - 1)

    def test_mm_equivalents_scale(self):
        cam = true_camera()
        corr = make_correspondences(cam, 20, seed=5, pixel_noise=0.5)
        _, stats = estimate_camera_extrinsics(self.intrinsics_only(), *corr)
        # depth ~130 mm at fx 2000 -> 1 px ~ 0.065 mm
        ratio = stats.rms_mm / stats.rms_px
        assert 0.04 < ratio < 0.09

    def test_too_few_points(self):
        cam = true_camera()
        corr = make_correspondences(cam, 5)
        with pytest.raises(ValueError):
            estimate_camera_extrinsics(self.intrinsics_only(), *corr)


def _poisoned(a, value):
    """A float copy of ``a`` with its last element set to ``value``."""
    a = np.array(a, dtype=float)
    a.reshape(-1)[-1] = value
    return a


SPOT_COLUMNS = {"betas": np.zeros((3, 2)), "centers": np.zeros((3, 3)),
                "normals": np.tile([0.0, 0.0, 1.0], (3, 1)),
                "spots": np.zeros((3, 3))}
PIXELS, WORLD = make_correspondences(true_camera(), 8)
AXIS_X = ([0.0, 0.0, 20.0], [10.0, 0.0, 20.0])


def _spots_with(**change):
    return lambda: SpotObservations(**{**SPOT_COLUMNS, **change})


def _extrinsics(pixels, world):
    return lambda: estimate_camera_extrinsics(true_camera(), pixels, world)


BAD_INPUTS = {
    **{f"{name}-{kind}": (_spots_with(**{name: bad}), ValueError,
                          f"{name} must be a finite")
       for name, col in SPOT_COLUMNS.items()
       for kind, bad in (("nan", _poisoned(col, np.nan)),
                         ("inf", _poisoned(col, -np.inf)),
                         ("narrow", col[:, :-1]), ("flat", col.ravel()))},
    "zero-normal": (_spots_with(normals=SPOT_COLUMNS["normals"] * [[1], [0],
                                                                   [1]]),
                    ValueError, "nonzero"),
    "row-counts": (_spots_with(spots=np.zeros((2, 3))), ValueError,
                   "row count"),
    "nan-pixel": (_extrinsics(_poisoned(PIXELS, np.nan), WORLD), ValueError,
                  "fiducials must be finite"),
    "inf-world": (_extrinsics(PIXELS, _poisoned(WORLD, np.inf)), ValueError,
                  "fiducials must be finite"),
    "pixel-width": (_extrinsics(PIXELS[:, :1], WORLD), ValueError,
                    "fiducials must be finite"),
    "pair-counts": (_extrinsics(PIXELS[:7], WORLD), ValueError,
                    "fiducials must be finite"),
    "five-pairs": (_extrinsics(PIXELS[:5], WORLD[:5]), ValueError,
                   "at least 6"),
    "short-x-axis": (lambda: calibrate_laser_axes(
        [0.0, 0.0, 20.0], ([0.0, 0.0, 20.0], [0.3, 0.4, 20.0]), AXIS_X),
        DegenerateAxis, "axis 'x'"),
    "short-y-axis": (lambda: calibrate_laser_axes(
        [0.0, 0.0, 20.0], AXIS_X,
        ([1.0, 1.0, 20.0], [1.0, 1.0 + MIN_AXIS_LENGTH, 20.0])),
        DegenerateAxis, "axis 'y'"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_calibration_input_raises(case):
    # each bad input is caught by its own check, with that check's
    # exception type, before any solver runs
    call, error, message = BAD_INPUTS[case]
    with pytest.raises(error, match=message):
        call()
