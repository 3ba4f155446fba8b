import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from resectsim.calibration import LaserCalibration
from resectsim.errors import BadStep, ParallelRay, Unreachable
from resectsim.geometry import ReferenceFrame, normalize
from resectsim.kinematics import (
    CutPlan,
    beta_jacobian,
    forward_model,
    plan_trajectory,
    raster_pattern,
    solve_ik,
)

FRAME20 = ReferenceFrame([0.0, 0.0, 20.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


def vertical(alpha=(0.0, 0.0)):
    return LaserCalibration(FRAME20, alpha, (0.0, 0.0, -1.0))


def random_calibration(rng):
    tilt = rng.uniform(0, np.radians(25))
    azim = rng.uniform(0, 2 * np.pi)
    v = normalize([np.sin(tilt) * np.cos(azim),
                   np.sin(tilt) * np.sin(azim),
                   -np.cos(tilt)])
    skew = rng.uniform(np.radians(80), np.radians(100))
    frame = ReferenceFrame(
        rng.uniform(-3, 3, 2).tolist() + [rng.uniform(40, 70)],
        [1.0, 0.0, 0.0],
        [np.cos(skew), np.sin(skew), 0.0],
    )
    return LaserCalibration(frame, rng.uniform(-5, 5, 2), v)


class TestForwardModel:
    def test_vertical_drop(self):
        assert np.allclose(forward_model(vertical(), (3.0, 4.0), 0.0), [3, 4, 0])

    def test_alpha_shift(self):
        assert np.allclose(
            forward_model(vertical((1.0, -1.0)), (3.0, 4.0), 0.0), [4, 3, 0]
        )

    def test_oblique_run(self):
        calib = LaserCalibration(FRAME20, (0.0, 0.0), normalize((0.1, 0.0, -1.0)))
        assert np.allclose(forward_model(calib, (0.0, 0.0), 0.0), [2.0, 0, 0],
                           atol=1e-12)

    def test_laser_pose_constructed(self):
        beam = oracles.beam(vertical((1.0, 2.0)), (3.0, 4.0))
        assert np.allclose(beam.origin, [4.0, 6.0, 20.0])


class TestSolveIk:
    def test_vertical_inverse(self):
        sol = solve_ik(vertical(), [3.0, 4.0, 0.0])
        assert np.allclose(sol.beta, [3, 4], atol=1e-12)
        assert sol.residual < 1e-12

    def test_oblique_matches_grid_search_oracle(self):
        calib = LaserCalibration(FRAME20, (0.7, -0.4), normalize((0.15, -0.08, -1.0)))
        target = np.array([4.2, 1.3, 0.0])
        sol = solve_ik(calib, target)

        # independent oracle: coarse exhaustive scan, then 1e-4 mm exhaustive
        # refinement around the coarse minimum
        def spot_distance(bx, by):
            gx, gy = np.meshgrid(bx, by)
            base = forward_model(calib, (0.0, 0.0), 0.0)
            jx = forward_model(calib, (1.0, 0.0), 0.0) - base
            jy = forward_model(calib, (0.0, 1.0), 0.0) - base
            px = base[0] + gx * jx[0] + gy * jy[0] - target[0]
            py = base[1] + gx * jx[1] + gy * jy[1] - target[1]
            pz = base[2] + gx * jx[2] + gy * jy[2] - target[2]
            return np.sqrt(px**2 + py**2 + pz**2), gx, gy

        coarse = np.arange(-10.0, 10.0, 0.1)
        d, gx, gy = spot_distance(coarse, coarse)
        i = np.unravel_index(d.argmin(), d.shape)
        cx, cy = gx[i], gy[i]
        fine_x = np.arange(cx - 0.15, cx + 0.15, 1e-4)
        fine_y = np.arange(cy - 0.15, cy + 0.15, 1e-4)
        d, gx, gy = spot_distance(fine_x, fine_y)
        i = np.unravel_index(d.argmin(), d.shape)
        assert abs(sol.beta[0] - gx[i]) < 1e-3
        assert abs(sol.beta[1] - gy[i]) < 1e-3

    def test_forward_roundtrip(self):
        rng = np.random.default_rng(5)
        calib = random_calibration(rng)
        beta = rng.uniform(-6, 6, 2)
        spot = forward_model(calib, beta, 2.5)
        sol = solve_ik(calib, spot)
        assert np.max(np.abs(sol.beta - beta)) < 1e-9

    def test_bounds_unreachable(self):
        with pytest.raises(Unreachable):
            solve_ik(vertical(), [30.0, 0.0, 0.0],
                     bounds=((-10, 10), (-10, 10)))

    def test_gradient_matches_central_differences(self):
        # the Jacobian solve_ik steps with, against central differences of
        # the forward model on the target's plane
        rng = np.random.default_rng(9)
        for _ in range(20):
            calib = random_calibration(rng)
            target = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5),
                               rng.uniform(0, 6)])
            beta = rng.uniform(-6, 6, 2)
            jac = beta_jacobian(calib)
            h = 1e-6
            for k in range(2):
                bp, bm = beta.copy(), beta.copy()
                bp[k] += h
                bm[k] -= h
                num = (forward_model(calib, bp, target[2])
                       - forward_model(calib, bm, target[2])) / (2 * h)
                np.testing.assert_allclose(num, jac[:, k], rtol=1e-6, atol=1e-7)


class TestTrajectory:
    def test_collinear_vertical(self):
        targets = [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]
        plan = plan_trajectory(vertical(), targets)
        assert np.allclose(plan.waypoints, [[0, 0], [1, 1], [2, 2]], atol=1e-12)

    def test_sphere_cap_separability(self):
        rng = np.random.default_rng(2)
        calib = random_calibration(rng)
        grid = raster_pattern((8.0, 8.0), points=64, origin=(-4.0, -4.0))
        targets = []
        for x, y in grid.waypoints:
            r2 = x * x + y * y
            targets.append([x, y, 2.0 + np.sqrt(max(0.0, 36.0 - r2)) - 6.0 + 1.5])
        plan = plan_trajectory(calib, targets)
        assert len(plan) == 64
        assert plan.residuals.max() < 1e-9
        for k, t in enumerate(targets):
            sol = solve_ik(calib, t)
            assert np.array_equal(sol.beta, plan.waypoints[k])

    def test_empty(self):
        plan = plan_trajectory(vertical(), np.empty((0, 3)))
        assert len(plan) == 0

    def test_unreachable_index(self):
        targets = [[0.0, 0.0, 0.0], [50.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        with pytest.raises(Unreachable) as exc:
            plan_trajectory(vertical(), targets, bounds=((-10, 10), (-10, 10)))
        assert exc.value.index == 1

    def test_translation_equivariance(self):
        rng = np.random.default_rng(13)
        calib = random_calibration(rng)
        shift = np.array([3.0, -2.0, 1.0])
        frame2 = ReferenceFrame(calib.frame.origin + shift,
                                calib.frame.v_x, calib.frame.v_y)
        calib2 = LaserCalibration(frame2, calib.alpha, calib.v_w)
        targets = rng.uniform(-4, 4, size=(10, 3)) + [0, 0, 3]
        p1 = plan_trajectory(calib, targets)
        p2 = plan_trajectory(calib2, targets + shift)
        assert np.max(np.abs(p1.waypoints - p2.waypoints)) < 1e-9


def tilted_calibration(rng, max_tilt_deg):
    """A random rig whose beam leans up to ``max_tilt_deg`` from vertical."""
    tilt = np.radians(rng.uniform(0.0, max_tilt_deg))
    azim = rng.uniform(0, 2 * np.pi)
    v = normalize([np.sin(tilt) * np.cos(azim), np.sin(tilt) * np.sin(azim),
                   -np.cos(tilt)])
    skew = rng.uniform(np.radians(60), np.radians(120))
    frame = ReferenceFrame(
        rng.uniform(-20, 20, 2).tolist() + [rng.uniform(20, 80)],
        normalize([1.0, rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1)]),
        [np.cos(skew), np.sin(skew), rng.uniform(-0.1, 0.1)],
    )
    return LaserCalibration(frame, rng.uniform(-5, 5, 2), v)


def outcome(fn):
    """What a call returned or raised, in a form that compares by bits."""
    try:
        got = fn()
    except (Unreachable, ValueError, ParallelRay) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "index", None)
    if isinstance(got, CutPlan):
        return (got.targets.tobytes(), got.waypoints.tobytes(),
                got.residuals.tobytes())
    return got.beta.tobytes(), got.residual


class TestArrayPlanAgainstOracle:
    """The array Newton loop gives the per-target loop's bits, and its
    failures, on random rigs and plans."""

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40),
           max_tilt=st.sampled_from([0.0, 30.0, 85.0]),
           scale=st.sampled_from([10.0, 1e3, 1e8]),
           box=st.sampled_from([None, 0.0, 0.1]),
           nonfinite=st.integers(-1, 40))
    def test_plan_equals_per_target_oracle(self, seed, n, max_tilt, scale,
                                           box, nonfinite):
        # box: no bounds, the waypoints' own extent (every waypoint on or
        # inside it), or their 10-90 % quantiles (a few outside)
        rng = np.random.default_rng(seed)
        calib = tilted_calibration(rng, max_tilt)
        targets = np.column_stack([rng.uniform(-scale, scale, (n, 2)),
                                   rng.uniform(-10, 10, n)])
        bounds = None
        if box is not None and n and scale < 1e8:
            w = oracles.plan_trajectory(calib, targets).waypoints
            lo, hi = np.quantile(w, [box, 1.0 - box], axis=0)
            bounds = ((lo[0], hi[0]), (lo[1], hi[1]))
        if 0 <= nonfinite < n:
            targets[nonfinite, rng.integers(3)] = rng.choice(
                [np.nan, np.inf, -np.inf])
        assert (outcome(lambda: plan_trajectory(calib, targets, bounds))
                == outcome(lambda: oracles.plan_trajectory(calib, targets,
                                                           bounds)))

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1),
           max_tilt=st.sampled_from([0.0, 30.0, 85.0]),
           scale=st.sampled_from([10.0, 1e8]),
           tol=st.sampled_from([1e-9, 1e-6, 1e-13, 10.0]),
           bounded=st.booleans())
    def test_solve_ik_equals_one_target_oracle(self, seed, max_tilt, scale,
                                               tol, bounded):
        rng = np.random.default_rng(seed)
        calib = tilted_calibration(rng, max_tilt)
        target = [*rng.uniform(-scale, scale, 2), rng.uniform(-10, 10)]
        if tol == 10.0:
            # within tol * 0.01 of the spot at beta = 0: the loop stops
            # before its first step, keeping that unconverged residual
            target = (forward_model(calib, (0.0, 0.0), target[2])
                      + [*rng.uniform(-0.05, 0.05, 2), 0.0])
        bounds = ((-15.0, 12.0), (-9.0, 20.0)) if bounded else None
        # the one-target loop raised without an index; the array loop
        # names row 0
        assert (outcome(lambda: solve_ik(calib, target, bounds, tol))[:2]
                == outcome(lambda: oracles.solve_ik(calib, target, bounds,
                                                    tol))[:2])

    def test_grazing_beam_raises_parallel_ray(self):
        calib = LaserCalibration(FRAME20, (0.0, 0.0),
                                 normalize([1.0, 0.0, -1e-10]))
        with pytest.raises(ParallelRay):
            plan_trajectory(calib, [[0.0, 0.0, 0.0]])
        assert len(plan_trajectory(calib, np.empty((0, 3)))) == 0

    def test_forward_model_rows_equal_single_calls(self):
        rng = np.random.default_rng(4)
        calib = tilted_calibration(rng, 60.0)
        beta = rng.uniform(-8, 8, (25, 2))
        z = rng.uniform(-5, 5, 25)
        rows = forward_model(calib, beta, z)
        for k in range(25):
            plane = oracles.target_plane([0.0, 0.0, z[k]])
            one = oracles.forward_model(calib, beta[k], plane)
            assert rows[k].tobytes() == one.tobytes()


class TestRaster:
    def test_100_points(self):
        pat = raster_pattern((13.0, 13.0), points=100)
        assert (pat.nx, pat.ny) == (10, 10)
        assert abs(pat.step[0] - 13.0 / 9) < 1e-12

    def test_64_points(self):
        pat = raster_pattern((13.0, 13.0), points=64)
        assert (pat.nx, pat.ny) == (8, 8)
        assert abs(pat.step[0] - 13.0 / 7) < 1e-12

    def test_serpentine_order(self):
        pat = raster_pattern((1.0, 1.0), points=4)
        assert np.allclose(pat.waypoints, [[0, 0], [1, 0], [1, 1], [0, 1]])

    def test_serpentine_gap_invariant(self):
        pat = raster_pattern((13.0, 13.0), points=100)
        gaps = np.linalg.norm(np.diff(pat.waypoints, axis=0), axis=1)
        assert gaps.max() <= max(pat.step) * np.sqrt(2) + 1e-12

    def test_bad_step(self):
        with pytest.raises(BadStep):
            raster_pattern((13.0, 13.0), points=37)

    def test_origin_offset(self):
        pat = raster_pattern((2.0, 2.0), points=9, origin=(-1.0, -1.0))
        assert pat.waypoints.min() == -1.0
        assert pat.waypoints.max() == 1.0


class TestCutPlan:
    def test_length_check(self):
        with pytest.raises(ValueError):
            CutPlan(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(2))
