import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resectsim.errors import BehindCamera, EmptySurface, WindowOutOfDomain
from resectsim.sensors import (
    OctConfig,
    OctVolume,
    PinholeCamera,
    ScenePhantom,
    SpectrumConfig,
    project_world_to_image,
    project_points,
    render_oct_volume,
    segment_surface,
    synth_spectrum,
)

import oracles

SMALL = OctConfig(n_bscans=8, n_lateral=16)
FLAT3 = ScenePhantom(primitives=({"kind": "plane", "z": 3.0},),
                     albedo={"default": 1.0})


def identity_camera(fx=800.0, fy=800.0, cx=640.0, cy=360.0):
    return PinholeCamera(fx, fy, cx, cy, np.eye(3), np.zeros(3))


class TestSceneSpec:
    @pytest.mark.parametrize("primitive, region", [
        ({"kind": "sphere_cap", "center": [0, 0], "radius": 4.0,
          "height": 0.0}, None),
        ({"kind": "sphere_cap", "center": [0, 0], "radius": 0.0,
          "height": 1.0}, None),
        ({"kind": "gauss_bump", "center": [0, 0], "sigma": 0.0,
          "height": 1.0}, None),
        ({"kind": "cone"}, None),
        ({"kind": "plane", "z": 3.0}, {"label": "tumor", "kind": "ring"}),
        ({"kind": "plane", "z": 3.0},
         {"kind": "disc", "center": [0, 0], "radius": 1.0}),
        ({"kind": "plane", "z": 3.0},
         {"label": "necrosis", "kind": "disc", "center": [0, 0],
          "radius": 1.0}),
        ({"kind": "plane", "z": 3.0},
         {"label": "tumor", "kind": "polygon", "vertices": [[0, 0], [1, 0]]}),
        ({"kind": "plane", "z": 3.0},
         {"label": "tumor", "kind": "disc", "center": [0, 0], "radius": 0.0}),
    ])
    def test_invalid_spec_rejected_on_construction(self, primitive, region):
        with pytest.raises(ValueError):
            ScenePhantom(primitives=(primitive,),
                         regions=() if region is None else (region,))


@st.composite
def painted_scenes(draw):
    """Discs and star-shaped polygons that paint over each other (integer
    or float coordinates, as JSON gives either) and query points: points on
    disc rims, polygon vertices and edge midpoints, and random points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    regions = []
    queries = [rng.uniform(-6.0, 6.0, size=(60, 2))]
    for _ in range(int(rng.integers(1, 5))):
        label = str(rng.choice(["healthy", "tumor"]))
        c = rng.uniform(-3.0, 3.0, 2)
        if rng.random() < 0.5:
            r = float(rng.uniform(0.3, 3.0))
            if rng.random() < 0.3:
                c, r = np.round(c), int(round(r)) + 1
            regions.append({"label": label, "kind": "disc",
                            "center": c.tolist(), "radius": r})
            ang = np.concatenate([np.arange(4) * np.pi / 2,
                                  rng.uniform(0.0, 2.0 * np.pi, 12)])
            queries.append(c + r * np.column_stack([np.cos(ang),
                                                    np.sin(ang)]))
        else:
            n = int(rng.integers(3, 9))
            ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
            r = rng.uniform(0.3, 3.0, n)
            poly = c + np.column_stack([r * np.cos(ang), r * np.sin(ang)])
            regions.append({"label": label, "kind": "polygon",
                            "vertices": poly.tolist()})
            queries += [poly, (poly + np.roll(poly, -1, axis=0)) / 2.0]
    albedo = draw(st.sampled_from([
        {"default": 0.9, "tumor": 0.35},
        {"default": 0.7, "healthy": 0.8, "tumor": 0.2},
        {"tumor": 0.5},
    ]))
    scene = ScenePhantom(primitives=({"kind": "plane", "z": 3.0},),
                         regions=tuple(regions), albedo=albedo)
    return scene, np.vstack(queries)


class TestRegionQueries:
    @given(painted_scenes())
    def test_arrays_match_scalar_oracle(self, case):
        scene, q = case
        x, y = q[:, 0], q[:, 1]
        labels = [oracles.label_at(scene, *p) for p in q]
        albedo = [oracles.albedo_at(scene, *p) for p in q]
        assert scene.label_at(x, y).tolist() == labels
        assert scene.albedo_at(x, y).tolist() == albedo
        grid = scene.label_at(x[None, :], y[:3, None])
        assert grid.shape == (3, len(q))
        assert grid.tolist() == [
            [oracles.label_at(scene, xi, yj) for xi in x] for yj in y[:3]]
        for (xi, yi), want_label, want_albedo in list(
                zip(q, labels, albedo))[:8]:
            got_label = scene.label_at(xi, yi)
            got_albedo = scene.albedo_at(xi, yi)
            assert type(got_label) is str and got_label == want_label
            assert type(got_albedo) is float and got_albedo == want_albedo

    def test_rim_points_round_like_the_scalar_oracle(self):
        # radii whose square rounds differently through pow() (Python's
        # r ** 2) and r * r: a point exactly on such a rim must still get
        # the scalar oracle's verdict
        radii = [r for r in np.random.default_rng(5).uniform(0.5, 5.0, 20_000)
                 .tolist() if r ** 2 != r * r]
        for r in radii:
            scene = ScenePhantom(primitives=FLAT3.primitives, regions=(
                {"label": "tumor", "kind": "disc", "center": [0, 0],
                 "radius": r},))
            x, y = np.array([r, -r, 0.0, 0.0]), np.array([0.0, 0.0, r, -r])
            assert scene.label_at(x, y).tolist() == [
                oracles.label_at(scene, *p) for p in zip(x, y)]


class TestRender:
    def test_flat_peak_index(self):
        vol = render_oct_volume(FLAT3, (0.0, 0.0), SMALL)
        peak = vol.b_scans.argmax(axis=1)
        assert np.all(peak == round(3.0 / SMALL.axial_pitch))
        assert int(peak[0, 0]) == 205

    def test_zero_albedo_below_noise_floor(self):
        scene = ScenePhantom(
            primitives=({"kind": "plane", "z": 3.0},),
            regions=({"label": "tumor", "kind": "disc", "center": [6.0, 6.0],
                      "radius": 100.0},),
            albedo={"default": 1.0, "tumor": 0.0},
        )
        cfg = OctConfig(n_bscans=8, n_lateral=16, noise_amplitude=0.05)
        vol = render_oct_volume(scene, (0.0, 0.0), cfg, seed=1)
        assert vol.b_scans.max() < 0.1
        pytest.raises(EmptySurface, segment_surface, vol)

    def test_sphere_cap_apex_extremal(self):
        # Heights map to axial index as z / pitch, so the cap apex column
        # carries the extremal (largest) peak index along its B-scan.
        scene = ScenePhantom(
            primitives=(
                {"kind": "plane", "z": 2.0},
                {"kind": "sphere_cap", "center": [6.3, 6.4], "radius": 4.0,
                 "height": 2.0},
            ),
            albedo={"default": 1.0},
        )
        cfg = OctConfig(n_bscans=32, n_lateral=64)
        vol = render_oct_volume(scene, (0.0, 0.0), cfg)
        peaks = vol.b_scans.argmax(axis=1)  # (n_bscans, n_lateral)
        j, i = np.unravel_index(peaks.argmax(), peaks.shape)
        x = 0.0 + i * cfg.pitch_x
        y = 0.0 + j * cfg.pitch_y
        assert abs(x - 6.3) < 2 * cfg.pitch_x
        assert abs(y - 6.4) < 2 * cfg.pitch_y

    def test_window_out_of_domain(self):
        scene = ScenePhantom(primitives=({"kind": "plane", "z": 3.0},),
                             domain=(0.0, 0.0, 5.0, 5.0))
        with pytest.raises(WindowOutOfDomain):
            render_oct_volume(scene, (0.0, 0.0), SMALL)

    def test_intensities_in_unit_interval(self):
        cfg = OctConfig(n_bscans=8, n_lateral=16, noise_amplitude=0.09)
        vol = render_oct_volume(FLAT3, (0.0, 0.0), cfg, seed=3)
        assert vol.b_scans.min() >= 0.0
        assert vol.b_scans.max() <= 1.0

    def test_noise_amplitude_capped(self):
        with pytest.raises(ValueError):
            OctConfig(noise_amplitude=0.1)


class TestSegment:
    def test_flat_roundtrip_within_half_pixel(self):
        vol = render_oct_volume(FLAT3, (0.0, 0.0), SMALL)
        cloud = segment_surface(vol)
        z = cloud.points[:, 2]
        assert np.all(np.abs(z - 3.0) <= SMALL.axial_pitch / 2 + 1e-12)

    def test_sphere_cap_rms_below_pixel(self):
        scene = ScenePhantom(
            primitives=(
                {"kind": "plane", "z": 2.0},
                {"kind": "sphere_cap", "center": [6.3, 6.4], "radius": 4.0,
                 "height": 1.5},
            ),
            albedo={"default": 1.0},
        )
        cfg = OctConfig(n_bscans=32, n_lateral=64)
        vol = render_oct_volume(scene, (0.0, 0.0), cfg)
        cloud = segment_surface(vol)
        truth = scene.height(cloud.points[:, 0], cloud.points[:, 1])
        err = cloud.points[:, 2] - truth
        assert np.sqrt(np.mean(err**2)) < cfg.axial_pitch

    def test_all_zero_volume(self):
        vol = OctVolume(np.zeros((8, 512, 16), dtype=np.float32), SMALL, (0.0, 0.0))
        with pytest.raises(EmptySurface):
            segment_surface(vol)

    def test_grid_coordinates_match_pitches(self):
        vol = render_oct_volume(FLAT3, (1.0, 2.0), SMALL)
        cloud = segment_surface(vol)
        assert np.isclose(cloud.points[0, 0], 1.0)
        assert np.isclose(cloud.points[1, 0], 1.0 + SMALL.pitch_x)
        assert np.isclose(cloud.points[SMALL.n_lateral, 1], 2.0 + SMALL.pitch_y)


class TestProjection:
    def test_principal_point(self):
        cam = identity_camera()
        uv = project_world_to_image(cam, [0, 0, 100.0])
        assert np.allclose(uv, [640.0, 360.0])

    def test_offset_point(self):
        cam = identity_camera()
        uv = project_world_to_image(cam, [0.1, 0.0, 100.0])
        assert np.allclose(uv, [640.8, 360.0])

    def test_behind_camera(self):
        cam = identity_camera()
        with pytest.raises(BehindCamera):
            project_world_to_image(cam, [0.0, 0.0, 0.0])

    def test_scale_consistency(self):
        cam = identity_camera()
        a = project_world_to_image(cam, [0.5, -0.25, 80.0])
        b = project_world_to_image(cam, [1.0, -0.5, 160.0])
        assert np.allclose(a, b, atol=1e-12)

    def test_batch_matches_single(self):
        cam = PinholeCamera.look_at([5.0, -3.0, 120.0], [6.0, 6.0, 3.0],
                                    fx=2000.0, fy=2000.0, cx=640.0, cy=360.0)
        pts = np.array([[6.0, 6.0, 3.0], [2.0, 9.0, 2.5], [10.0, 1.0, 4.0]])
        uv, front = project_points(cam, pts)
        assert front.all()
        for k in range(3):
            assert np.allclose(uv[k], project_world_to_image(cam, pts[k]))

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            PinholeCamera(800, 800, 640, 360, np.eye(3) * 1.001, np.zeros(3))


class TestSynthSpectrum:
    def test_deterministic(self):
        a = synth_spectrum("tumor", 42)
        b = synth_spectrum("tumor", 42)
        assert np.array_equal(a.intensities, b.intensities)
        c = synth_spectrum("healthy", 42)
        assert not np.array_equal(a.intensities, c.intensities)

    def test_grid(self):
        s = synth_spectrum("healthy", 0)
        assert s.wavelengths[0] == 350.0
        assert s.wavelengths[-1] == 700.0
        assert len(s.wavelengths) == 351

    def test_zero_noise_exact_sum(self):
        cfg = SpectrumConfig(noise_sigma=0.0, jitter_sigma=0.0)
        s = synth_spectrum("healthy", 7, cfg)
        wl = s.wavelengths
        expect = np.zeros_like(wl)
        for a, c, w in zip(cfg.healthy_amps, cfg.centers, cfg.widths):
            expect += a * np.exp(-((wl - c) ** 2) / (2 * w * w))
        assert np.allclose(s.intensities, expect, atol=1e-15)

    def test_class_separation_many_seeds(self):
        # Monte-Carlo: the class gap in the discriminative band must dwarf
        # the per-class spread.
        from resectsim.spectra import PreprocessConfig, band_mean, preprocess

        bands = [(495.0, 570.0)]
        means = {}
        for label in ("healthy", "tumor"):
            vals = [
                band_mean(preprocess(synth_spectrum(label, seed)), bands)
                for seed in range(1000)
            ]
            means[label] = np.array(vals)
        gap = abs(means["healthy"].mean() - means["tumor"].mean())
        sigma = max(means["healthy"].std(), means["tumor"].std())
        assert gap > 5 * sigma
