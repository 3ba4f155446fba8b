import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resectsim import io as rio
from resectsim.harness import _scan_volume
from resectsim.errors import (
    EmptySurface,
    LengthMismatch,
    NoRayHit,
    WindowOutOfDomain,
)
from resectsim.sensors import (
    RAY_BLOCK,
    OctConfig,
    OctVolume,
    PinholeCamera,
    ScenePhantom,
    SpectrumConfig,
    column_peaks,
    intersect_scene,
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
        ({"kind": "plane", "z": "3"}, None),
        ({"kind": "plane", "z": None}, None),
        ({"kind": "plane", "z": float("nan")}, None),
        ({"kind": "plane", "z": True}, None),
        ({"kind": "gauss_bump", "center": [0, 0, 0], "sigma": 1.0,
          "height": 1.0}, None),
        ({"kind": "sphere_cap", "center": [0, "a"], "radius": 4.0,
          "height": 1.0}, None),
        ({"kind": "plane", "z": 3.0},
         {"label": "tumor", "kind": "disc", "center": [1], "radius": 1.0}),
        ({"kind": "plane", "z": 3.0},
         {"label": "tumor", "kind": "polygon",
          "vertices": [[0, 0], [1, 0], [1, "a"]]}),
        ({"kind": "plane", "z": 3.0},
         {"label": "tumor", "kind": "polygon",
          "vertices": [[0, 0], [1, 0], [1, 1, 1]]}),
        # an int past the largest float, which float() cannot convert
        ({"kind": "plane", "z": 2**1024 - 1}, None),
    ])
    def test_invalid_spec_rejected_on_construction(self, primitive, region):
        with pytest.raises(ValueError):
            ScenePhantom(primitives=(primitive,),
                         regions=() if region is None else (region,))

    # albedo cases of the test above, kept apart so its case ids stay stable
    @pytest.mark.parametrize("albedo", [
        {"default": 1.5},
        {"default": 0.9, "tumor": -0.1},
        {"default": 0.9, "tumor": "dark"},
        {"default": float("nan")},
    ], ids=["above-one", "negative", "string", "nan"])
    def test_invalid_albedo_rejected_on_construction(self, albedo):
        with pytest.raises(ValueError):
            ScenePhantom(primitives=({"kind": "plane", "z": 3.0},),
                         albedo=albedo)

    @pytest.mark.parametrize("domain", [
        (0, 0), (0.0, 0.0, 1.0, "a"), (0.0, 0.0, 1.0, float("inf")),
    ], ids=["two-numbers", "string", "infinite"])
    def test_invalid_domain_rejected_on_construction(self, domain):
        with pytest.raises(ValueError):
            ScenePhantom(primitives=({"kind": "plane", "z": 3.0},),
                         domain=domain)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _extreme_scenes():
    """Primitive lists drawn over the whole float range, tiny to huge."""
    positive = st.floats(min_value=5e-324, allow_infinity=False)
    xy = st.tuples(FINITE, FINITE).map(list)
    plane = st.builds(lambda z: {"kind": "plane", "z": z}, FINITE)
    bump = st.builds(lambda c, s, h: {"kind": "gauss_bump", "center": c,
                                      "sigma": s, "height": h},
                     xy, positive, FINITE)
    cap = st.builds(lambda c, r, h: {"kind": "sphere_cap", "center": c,
                                     "radius": r, "height": h},
                    xy, positive, positive)
    return st.lists(st.one_of(plane, bump, cap), min_size=1, max_size=4)


# examples on a plane: two bumps whose sum overflows, a bump whose 2 sigma^2
# underflows (0/0 at its centre), a cap whose r^2 overflows; and a bump
# whose 2 sigma^2 overflows (inf/inf where the square distance overflows)
@given(primitives=_extreme_scenes(),
       points=st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=8))
@example(primitives=[{"kind": "plane", "z": 3.0}] + [
    {"kind": "gauss_bump", "center": [6.3, 6.4], "sigma": 50,
     "height": 1e308}] * 2, points=[(6.3, 6.4)])
@example(primitives=[{"kind": "plane", "z": 3.0},
                     {"kind": "gauss_bump", "center": [6.3, 6.4],
                      "sigma": 1e-200, "height": 1.0}], points=[(0.0, 0.0)])
@example(primitives=[{"kind": "plane", "z": 3.0},
                     {"kind": "sphere_cap", "center": [6.3, 6.4],
                      "radius": 1e200, "height": 1.0}], points=[(0.0, 0.0)])
@example(primitives=[{"kind": "gauss_bump", "center": [0.0, 0.0],
                      "sigma": 1e200, "height": 1.0}],
         points=[(1.7e308, -1.7e308)])
def test_accepted_scene_height_is_finite(primitives, points):
    # construction accepts or raises ValueError, never warns; an accepted
    # scene's height is finite at the points, far ones, and every centre
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scene = ScenePhantom(primitives=tuple(primitives))
        except ValueError:
            return
    pts = np.array(points + [p["center"] for p in primitives
                             if "center" in p], dtype=float)
    with np.errstate(all="ignore"):
        z = scene.height(pts[:, 0], pts[:, 1])
    assert np.isfinite(z).all()


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


BUMPS = [("gauss_bump",), ("sphere_cap",), ("gauss_bump", "sphere_cap")]


def height_field(rng, kinds) -> ScenePhantom:
    """A plane plus the given bumps, placed and sized at random over the
    scan window."""
    primitives = [{"kind": "plane", "z": float(rng.uniform(-2.0, 5.0))}]
    for kind in kinds:
        size = "sigma" if kind == "gauss_bump" else "radius"
        primitives.append({"kind": kind,
                           "center": rng.uniform(0.0, 12.0, 2).tolist(),
                           size: float(rng.uniform(0.5, 4.0)),
                           "height": float(rng.uniform(0.2, 3.0))})
    return ScenePhantom(primitives=tuple(primitives))


@st.composite
def bumpy_points(draw):
    """A bump or cap scene and query points: random ones, the bump centres
    and points on the cap rims."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scene = height_field(rng, draw(st.sampled_from(BUMPS)))
    xy = [rng.uniform(-2.0, 14.0, size=(200, 2))]
    for p in scene.primitives[1:]:
        ang = rng.uniform(0.0, 2.0 * np.pi, 20)
        r = p.get("radius", p.get("sigma"))
        xy += [np.array([p["center"]]),
               p["center"] + r * np.column_stack([np.cos(ang), np.sin(ang)])]
    xy = np.vstack(xy)
    return scene, xy[:, 0], xy[:, 1]


@st.composite
def parallel_rays(draw):
    """A plane, bump or cap scene and n parallel rays tilted up to 60 degrees
    from straight down, with n = 1, one full block or one past it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scene = height_field(rng, draw(st.sampled_from([()] + BUMPS)))
    n = draw(st.sampled_from([1, RAY_BLOCK, RAY_BLOCK + 1]))
    tilt = np.radians(draw(st.floats(0.0, 60.0)))
    azimuth = rng.uniform(0.0, 2.0 * np.pi)
    direction = rng.uniform(0.5, 3.0) * np.array([
        np.sin(tilt) * np.cos(azimuth), np.sin(tilt) * np.sin(azimuth),
        -np.cos(tilt)])
    origins = np.column_stack([rng.uniform(-5.0, 17.0, size=(n, 2)),
                               rng.uniform(12.0, 80.0, n)])
    return scene, origins, direction


class TestHeight:
    @given(bumpy_points())
    def test_array_equals_scalar_calls(self, case):
        scene, x, y = case
        want = [scene.height(xi, yi) for xi, yi in zip(x, y)]
        assert all(type(z) is float for z in want)
        assert np.array_equal(scene.height(x, y), want)


class TestIntersectScene:
    @settings(max_examples=12)
    @given(parallel_rays())
    def test_matches_per_ray_oracle(self, case):
        scene, origins, direction = case
        want = [oracles.intersect_scene(oracles.Ray(o, direction), scene)
                for o in origins]
        assert np.array_equal(intersect_scene(origins, direction, scene),
                              want)

    def test_ray_under_the_surface_raises(self):
        origins = np.array([[1.0, 1.0, 50.0], [2.0, 2.0, 1.0],
                            [3.0, 3.0, 50.0]])
        direction = [0.1, 0.0, -1.0]
        with pytest.raises(NoRayHit, match=r"^1 of 3 rays .*waypoint 1\)"):
            intersect_scene(origins, direction, FLAT3)
        with pytest.raises(NoRayHit):
            oracles.intersect_scene(oracles.Ray(origins[1], direction), FLAT3)

    def test_misses_counted_across_blocks(self):
        origins = np.column_stack([np.zeros((RAY_BLOCK + 3, 2)),
                                   np.full(RAY_BLOCK + 3, 50.0)])
        origins[[RAY_BLOCK, RAY_BLOCK + 2], 2] = 2.0
        with pytest.raises(NoRayHit, match=rf"^2 of {RAY_BLOCK + 3} rays .*"
                                           rf"waypoint {RAY_BLOCK}\)"):
            intersect_scene(origins, [0.0, 0.0, -1.0], FLAT3)


class TestRender:
    def test_flat_peak_index(self):
        vol = np.stack(list(render_oct_volume(FLAT3, (0.0, 0.0), SMALL)))
        peak = vol.argmax(axis=1)
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
        assert np.stack(list(vol)).max() < 0.1
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
        vol = np.stack(list(render_oct_volume(scene, (0.0, 0.0), cfg)))
        peaks = vol.argmax(axis=1)  # (n_bscans, n_lateral)
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
        vol = np.stack(list(render_oct_volume(FLAT3, (0.0, 0.0), cfg, seed=3)))
        assert vol.min() >= 0.0
        assert vol.max() <= 1.0

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


# a bump under a tumor disc, and a healthy triangle too dark to segment
BUMP_DARK = ScenePhantom(
    primitives=({"kind": "plane", "z": 2.0},
                {"kind": "gauss_bump", "center": [3.0, 3.0], "sigma": 1.5,
                 "height": 1.5}),
    regions=({"label": "tumor", "kind": "disc", "center": [4.0, 4.0],
              "radius": 2.5},
             {"label": "healthy", "kind": "polygon",
              "vertices": [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]}),
    albedo={"default": 0.9, "tumor": 0.35, "healthy": 0.1},
)


def _surface_or_none(segment, *args):
    try:
        return segment(*args)
    except EmptySurface:
        return None


def _same_surface(got, want):
    if want is None:
        return got is None
    return (got is not None and (got.rows, got.cols) == (want.rows, want.cols)
            and np.array_equal(got.points, want.points)
            and np.array_equal(got.valid, want.valid))


# a dip through z = 0: peaks near and above axial index 0
DIP_BELOW_ZERO = ScenePhantom(
    primitives=({"kind": "plane", "z": 0.05},
                {"kind": "gauss_bump", "center": [5.0, 5.0], "sigma": 2.0,
                 "height": -0.6}),
    albedo={"default": 1.0})
# a surface deeper than the last axial index of every config drawn below,
# where the band is cut off or empty
PAST_THE_END = ScenePhantom(primitives=({"kind": "plane", "z": 27.0},
                                        {"kind": "gauss_bump",
                                         "center": [6.0, 6.0], "sigma": 3.0,
                                         "height": -2.0}),
                            albedo={"default": 1.0})
# a narrow, tall cap: steep walls spread one B-scan's peaks over many rows,
# and a tumor of albedo -0.0 is a signed zero off the band too
STEEP_CAP = ScenePhantom(
    primitives=({"kind": "plane", "z": 1.0},
                {"kind": "sphere_cap", "center": [4.0, 4.0], "radius": 2.0,
                 "height": 3.5}),
    regions=({"label": "tumor", "kind": "disc", "center": [9.0, 8.0],
              "radius": 3.0},),
    albedo={"default": 0.8, "tumor": -0.0})


def _bits(a):
    return np.asarray(a, dtype=np.float32).view(np.uint32)


class TestStreamedScan:
    """The B-scan stream against the eager whole-volume oracles."""

    @settings(max_examples=120)
    @given(scene=st.sampled_from([FLAT3, BUMP_DARK, DIP_BELOW_ZERO,
                                  PAST_THE_END, STEEP_CAP]),
           window=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
           n_bscans=st.integers(1, 8), n_axial=st.integers(16, 64),
           n_lateral=st.integers(1, 12), axial_pitch=st.floats(0.04, 0.4),
           peak_sigma=st.floats(0.5, 12.0),
           noise=st.one_of(st.sampled_from([0.0, 0.05]),
                           st.floats(1e-3, 0.099)),
           seed=st.integers(0, 2**63))
    def test_matches_eager_oracle(self, scene, window, n_bscans, n_axial,
                                  n_lateral, axial_pitch, peak_sigma, noise,
                                  seed):
        # wide peaks over an albedo-1 plane saturate under noise, so the
        # clip makes plateaus of 1.0 whose first index must win
        cfg = OctConfig(n_bscans=n_bscans, n_axial=n_axial,
                        n_lateral=n_lateral, axial_pitch=axial_pitch,
                        peak_sigma_px=peak_sigma, noise_amplitude=noise)
        want = oracles.render_oct_volume(scene, window, cfg, seed)
        volume = render_oct_volume(scene, window, cfg, seed)
        b_scans = list(volume)
        assert len(b_scans) == n_bscans
        for got, ref in zip(b_scans, want):
            assert got.dtype == np.float32
            assert np.array_equal(_bits(got), _bits(ref))

        want_surface = _surface_or_none(oracles.segment_surface, want, cfg,
                                        volume.origin)
        assert _same_surface(_surface_or_none(segment_surface, volume),
                             want_surface)
        with tempfile.TemporaryDirectory() as d:
            base = Path(d) / "vol"
            rio.write_oct_volume(base, volume)
            assert (base.with_suffix(".f32").read_bytes()
                    == want.astype("<f4").tobytes())
            back = rio.read_oct_volume(base)
            assert _same_surface(_surface_or_none(segment_surface, back),
                                 want_surface)

            # the e2e scan's one pass, which renders at the origin
            at_origin = oracles.render_oct_volume(scene, (0.0, 0.0), cfg, seed)
            try:
                _, surface = _scan_volume(scene, cfg, seed, base)
            except EmptySurface:
                surface = None
            assert (base.with_suffix(".f32").read_bytes()
                    == at_origin.astype("<f4").tobytes())
            assert _same_surface(surface, _surface_or_none(
                oracles.segment_surface, at_origin, cfg, (0.0, 0.0)))

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_band_matches_full_render_at_the_default_size(self, noise):
        # the default 128 x 512 x 512 grid with sigma 2 px, where the band is
        # 30 rows either side of the peaks, on the steep-cap scene
        cfg = OctConfig(n_bscans=6, noise_amplitude=noise)
        want = oracles.render_oct_volume(STEEP_CAP, (0.0, 0.0), cfg, seed=4)
        got = np.stack(list(render_oct_volume(STEEP_CAP, (0.0, 0.0), cfg,
                                              seed=4)))
        assert np.array_equal(_bits(got), _bits(want))
        if noise == 0.0:
            assert np.signbit(got).any() and (got > 0).sum() < got.size / 4

    def test_ties_take_the_first_axial_index(self):
        cfg = OctConfig(n_bscans=2, n_axial=8, n_lateral=3)
        vol = np.zeros((2, 8, 3), dtype=np.float32)
        vol[0, [2, 5], 0] = 0.5  # two equal peaks
        vol[0, 1:7, 1] = 1.0  # a saturated plateau
        vol[1] = 0.3  # flat A-scans: every index ties
        vol[1, 0, 2] = 0.0
        got = segment_surface(OctVolume(vol, cfg, (0.0, 0.0)))
        assert _same_surface(got,
                             oracles.segment_surface(vol, cfg, (0.0, 0.0)))
        assert np.array_equal(got.points[:, 2],
                              np.array([2, 1, 0, 0, 0, 1]) * cfg.axial_pitch)
        assert got.valid.tolist() == [True, True, False, True, True, True]

    def test_passes_replay_the_noise(self):
        cfg = OctConfig(n_bscans=3, n_axial=32, n_lateral=4,
                        noise_amplitude=0.05)
        volume = render_oct_volume(FLAT3, (0.0, 0.0), cfg, seed=9)
        assert np.array_equal(np.stack(list(volume)), np.stack(list(volume)))

    @pytest.mark.parametrize("b_scans, match", [
        (np.zeros((2, 8, 3)), "volume has 2 B-scans, config says 3"),
        (np.zeros((4, 8, 3)), "volume has more than 3 B-scans"),
        (np.zeros((3, 8, 4)), r"B-scan 0 has shape \(8, 4\), config says"),
        (np.full((3, 8, 3), 1.5), "intensities must lie in"),
        (np.full((3, 8, 3), -0.5), "intensities must lie in"),
        (np.where(np.arange(72).reshape(3, 8, 3) == 40, np.nan, 0.5),
         "intensities must lie in"),
    ], ids=["too-few", "too-many", "wrong-shape", "above-1", "below-0",
            "nan"])
    def test_bad_volumes_raise_while_streamed(self, tmp_path, b_scans, match):
        volume = OctVolume(b_scans, OctConfig(n_bscans=3, n_axial=8,
                                              n_lateral=3), (0.0, 0.0))
        with pytest.raises(ValueError, match=match):
            segment_surface(volume)
        with pytest.raises(ValueError, match=match):
            rio.write_oct_volume(tmp_path / "vol", volume)
        # the pass that writes and segments at once, as the e2e scan does
        with pytest.raises(ValueError, match=match):
            segment_surface(rio.append_oct_volume(tmp_path / "seg", volume)[1])
        # a volume that fails part way leaves a raw file but no sidecar
        assert not (tmp_path / "vol.json").exists()
        assert not (tmp_path / "seg.json").exists()


# element pools: ties of +-0.0, plateaus, all-equal columns, or any float32
PEAK_POOLS = [(-0.0, 0.0), (0.3,), (0.0, 0.5, 1.0), (-1.0, -0.0, 2.5), None]


@st.composite
def b_scan_arrays(draw):
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    pool = draw(st.sampled_from(PEAK_POOLS))
    element = (st.floats(width=32, allow_nan=False) if pool is None
               else st.sampled_from(pool))
    values = draw(st.lists(element, min_size=rows * cols,
                           max_size=rows * cols))
    return np.array(values, dtype=np.float32).reshape(rows, cols)


@settings(max_examples=300)
@given(b_scan_arrays())
def test_column_peaks_equal_argmax_and_max(b_scan):
    idx, top = column_peaks(b_scan)
    assert np.array_equal(idx, b_scan.argmax(axis=0))
    assert np.array_equal(_bits(top), _bits(b_scan.max(axis=0)))


class TestProjection:
    def test_principal_point(self):
        cam = identity_camera()
        uv, in_front = project_points(cam, [[0, 0, 100.0]])
        assert in_front[0]
        assert np.allclose(uv[0], [640.0, 360.0])

    def test_offset_point(self):
        cam = identity_camera()
        uv, in_front = project_points(cam, [[0.1, 0.0, 100.0]])
        assert in_front[0]
        assert np.allclose(uv[0], [640.8, 360.0])

    def test_behind_camera(self):
        cam = identity_camera()
        uv, in_front = project_points(cam, [[0.0, 0.0, 0.0],
                                            [0.0, 0.0, -5.0],
                                            [0.0, 0.0, 100.0]])
        assert in_front.tolist() == [False, False, True]
        assert np.isnan(uv[:2]).all() and np.isfinite(uv[2]).all()

    def test_scale_consistency(self):
        cam = identity_camera()
        uv, in_front = project_points(cam, [[0.5, -0.25, 80.0],
                                            [1.0, -0.5, 160.0]])
        assert in_front.all()
        assert np.allclose(uv[0], uv[1], atol=1e-12)

    def test_batch_matches_single(self):
        cam = PinholeCamera.look_at([5.0, -3.0, 120.0], [6.0, 6.0, 3.0],
                                    fx=2000.0, fy=2000.0, cx=640.0, cy=360.0)
        pts = np.array([[6.0, 6.0, 3.0], [2.0, 9.0, 2.5], [10.0, 1.0, 4.0]])
        uv, front = project_points(cam, pts)
        assert front.all()
        for k in range(3):
            one, one_front = project_points(cam, pts[k:k + 1])
            assert one_front[0] and np.array_equal(uv[k], one[0])

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

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.sampled_from(["healthy", "tumor"]),
                              st.integers(0, 2**70)), max_size=12),
           st.sampled_from([0.0, 0.01, 0.3]), st.sampled_from([0.0, 0.05, 2.0]),
           st.sampled_from([1.0, 1e-3, 1e5]))
    def test_rows_match_one_row_oracle(self, pairs, noise, jitter, scale):
        cfg = SpectrumConfig(noise_sigma=noise, jitter_sigma=jitter,
                             scale=scale)
        labels = [lab for lab, _ in pairs]
        seeds = [seed for _, seed in pairs]
        got = synth_spectrum(labels, seeds, cfg)
        assert got.intensities.shape == (len(pairs), 351)
        for row, (lab, seed) in zip(got.intensities, pairs):
            want = oracles.synth_spectrum(lab, seed, cfg).intensities
            assert row.tobytes() == want.tobytes()
            one = synth_spectrum(lab, seed, cfg).intensities
            assert one.tobytes() == want.tobytes()

    def test_batch_rejects_unknown_label_and_length_mismatch(self):
        with pytest.raises(ValueError, match="label must be one of"):
            synth_spectrum(["tumor", "necrosis"], [1, 2])
        with pytest.raises(LengthMismatch):
            synth_spectrum(["tumor"], [1, 2])

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
