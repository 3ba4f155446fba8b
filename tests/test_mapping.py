import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from resectsim.errors import (
    CollinearTags,
    EmptyRegion,
    NoCalibration,
    TooFewTumorTags,
)
from resectsim.geometry import (
    convex_hull,
    nearest_neighbor,
    points_in_polygon,
    ray_mesh_intersect,
    triangulate_grid,
)
from resectsim.harness import ExperimentConfig, run_end_to_end
from resectsim.mapping import (
    SpotLocator,
    boundary_from_tags,
    colorize_surface,
    select_cut_targets,
)
from resectsim.sensors import (
    OctConfig,
    PinholeCamera,
    ScenePhantom,
    project_points,
    render_oct_volume,
    segment_surface,
)

import oracles
from oracles import point_in_polygon, polygon_is_simple


def tags_at(xy_list, label="tumor", z=0.0):
    """(n, 3) spots over the xy points at height z, and (n,) tumor flags
    that all read ``label == "tumor"``."""
    xy = np.reshape(np.asarray(xy_list, dtype=float), (-1, 2))
    return (np.column_stack([xy, np.full(len(xy), z)]),
            np.full(len(xy), label == "tumor"))


def joined(*tag_sets):
    """The spots and flags of several ``tags_at`` results, in order."""
    spots, tumor = zip(*tag_sets)
    return np.concatenate(spots), np.concatenate(tumor)


def brute_force_hull(pts):
    """All-pairs half-plane oracle: directed edge (i, j) is on the hull iff
    every point lies on or left of the line i->j."""
    n = len(pts)
    succ = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = (pts[j, 0] - pts[i, 0]) * (pts[:, 1] - pts[i, 1]) - (
                pts[j, 1] - pts[i, 1]
            ) * (pts[:, 0] - pts[i, 0])
            if d.min() >= -1e-12:
                succ[i] = j
    start = min(succ)
    out = [start]
    cur = succ[start]
    while cur != start:
        out.append(cur)
        cur = succ[cur]
    return pts[out]


def cyclic_equal(a, b, atol=1e-12):
    if len(a) != len(b):
        return False
    for shift in range(len(b)):
        if np.allclose(a, np.roll(b, shift, axis=0), atol=atol):
            return True
    return False


@st.composite
def tag_sets(draw):
    """Shuffled tags: tumor points on an integer grid that span two
    dimensions, repeats of some of them, exact collinear runs at quarter
    steps along the edges of their hull, and healthy tags anywhere. Returns
    ((spots, tumor flags), tumor xy)."""
    xy = np.array(draw(st.lists(st.tuples(st.integers(-8, 8),
                                          st.integers(-8, 8)),
                                min_size=3, max_size=20)), dtype=float)
    assume(np.linalg.matrix_rank(xy[1:] - xy[0]) == 2)
    hull = convex_hull(xy)
    runs = draw(st.lists(st.tuples(st.integers(0, len(hull) - 1),
                                   st.integers(1, 3)), max_size=8))
    on_edges = [hull[i] + k / 4.0 * (hull[(i + 1) % len(hull)] - hull[i])
                for i, k in runs]
    repeats = draw(st.lists(st.sampled_from(range(len(xy))), max_size=5))
    tumor_xy = np.vstack([xy, *on_edges, xy[repeats]])
    healthy = draw(st.lists(st.tuples(st.floats(-20, 20), st.floats(-20, 20)),
                            max_size=5))
    spots, tumor = joined(
        (np.column_stack([tumor_xy, 0.5 * np.arange(len(tumor_xy))]),
         np.ones(len(tumor_xy), dtype=bool)),
        tags_at(healthy, label="healthy"))
    order = np.array(draw(st.permutations(range(len(spots)))), dtype=int)
    return (spots[order], tumor[order]), tumor_xy


class TestConvexHull:
    def test_square_plus_center(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
        hull = convex_hull(pts)
        assert len(hull) == 4
        assert points_in_polygon(pts, hull, include_boundary=True).all()

    def test_triangle(self):
        hull = convex_hull([(0, 0), (2, 0), (1, 1.5)])
        assert len(hull) == 3

    def test_collinear_raises(self):
        with pytest.raises(CollinearTags):
            convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_matches_half_plane_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            pts = rng.uniform(-5, 5, size=(rng.integers(3, 51), 2))
            hull = convex_hull(pts)
            oracle = brute_force_hull(pts)
            assert cyclic_equal(hull, oracle)

    def test_all_points_inside_hull(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 10, size=(40, 2))
        hull = convex_hull(pts)
        assert points_in_polygon(pts, hull, include_boundary=True).all()


@st.composite
def star_polygons(draw):
    """A star-shaped polygon (vertices snapped to a 0.25 grid half the time,
    which gives horizontal edges and repeated vertices) and query points:
    its vertices, edge midpoints, points 0.5e-9 and 2e-9 off each edge
    midpoint and random points around it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(3, 12))
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    r = rng.uniform(0.2, 3.0, n)
    poly = rng.uniform(-2.0, 2.0, 2) + np.column_stack(
        [r * np.cos(ang), r * np.sin(ang)])
    if draw(st.booleans()):
        poly = np.round(poly * 4.0) / 4.0
    edge = np.roll(poly, -1, axis=0) - poly
    length = np.hypot(edge[:, 0], edge[:, 1])[:, None]
    normal = np.column_stack([-edge[:, 1], edge[:, 0]]) / np.where(
        length > 0, length, 1.0)
    mids = poly + edge / 2.0
    queries = np.vstack([
        poly, mids,
        *(mids + d * normal for d in (-2e-9, -0.5e-9, 0.5e-9, 2e-9)),
        rng.uniform(poly.min(axis=0) - 0.5, poly.max(axis=0) + 0.5,
                    size=(60, 2)),
    ])
    return poly, queries


class TestPointInPolygon:
    SQUARE = np.array([(0, 0), (2, 0), (2, 2), (0, 2)], dtype=float)

    @staticmethod
    def inside(point, vertices):
        return bool(points_in_polygon(point, vertices,
                                      include_boundary=True)[0])

    def test_center(self):
        assert self.inside((1, 1), self.SQUARE)

    def test_outside(self):
        assert not self.inside((5, 5), self.SQUARE)

    def test_edge_inclusive(self):
        assert self.inside((1, 0), self.SQUARE)
        assert self.inside((2, 2), self.SQUARE)

    def test_matches_scalar_ray_cast_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            raw = rng.uniform(-4, 4, size=(rng.integers(5, 12), 2))
            center = raw.mean(axis=0)
            ang = np.arctan2(raw[:, 1] - center[1], raw[:, 0] - center[0])
            poly = raw[np.argsort(ang)]  # star-shaped, hence simple
            assert polygon_is_simple(poly)
            queries = rng.uniform(-5, 5, size=(200, 2))
            got = points_in_polygon(queries, poly)
            for q, g in zip(queries, got):
                count = 0
                n = len(poly)
                for i in range(n):
                    a, b = poly[i], poly[(i + 1) % n]
                    if (a[1] > q[1]) != (b[1] > q[1]):
                        x_int = a[0] + (q[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
                        if x_int > q[0]:
                            count += 1
                assert g == (count % 2 == 1)

    @given(star_polygons(), st.booleans())
    def test_matches_scalar_oracle(self, case, include_boundary):
        poly, queries = case
        got = points_in_polygon(queries, poly,
                                include_boundary=include_boundary)
        want = [point_in_polygon(q, poly, include_boundary=include_boundary)
                for q in queries]
        assert got.tolist() == want


class TestBoundary:
    def test_square_hull(self):
        tags = tags_at([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
        assert len(boundary_from_tags(*tags)) == 4

    def test_too_few(self):
        with pytest.raises(TooFewTumorTags):
            boundary_from_tags(*tags_at([(0, 0), (1, 0)]))

    def test_healthy_ignored(self):
        tags = joined(tags_at([(0, 0), (4, 0), (2, 3)]),
                      tags_at([(10, 10)], label="healthy"))
        assert len(boundary_from_tags(*tags)) == 3

    def test_collinear(self):
        with pytest.raises(CollinearTags):
            boundary_from_tags(*tags_at([(0, 0), (1, 0), (2, 0), (3, 0)]))

    def test_every_tumor_tag_inside_hull(self):
        rng = np.random.default_rng(31)
        xy = rng.uniform(0, 8, size=(25, 2))
        b = boundary_from_tags(*tags_at(xy))
        assert points_in_polygon(xy, b, include_boundary=True).all()

    @given(tag_sets())
    def test_hull_strictly_convex_and_covering(self, case):
        tags, tumor_xy = case
        hull = boundary_from_tags(*tags)
        assert hull.shape[1] == 2 and len(hull) >= 3
        # the hull's own turn test, cross(cur - prev, next - prev), at
        # every vertex: all left turns, so CCW with no collinear vertex
        prev, nxt = np.roll(hull, 1, axis=0), np.roll(hull, -1, axis=0)
        turn = ((hull[:, 0] - prev[:, 0]) * (nxt[:, 1] - prev[:, 1])
                - (hull[:, 1] - prev[:, 1]) * (nxt[:, 0] - prev[:, 0]))
        assert (turn > 0).all()
        assert points_in_polygon(tumor_xy, hull, include_boundary=True).all()
        # every vertex is a tumor tag's xy: healthy tags shape nothing
        assert all((tumor_xy == v).all(axis=1).any() for v in hull)


class TestSelect:
    SQUARE = np.array([(0, 0), (2, 0), (2, 2), (0, 2)], dtype=float)

    def test_center_only(self):
        spots, _ = tags_at([(1, 1), (50, 50)])
        targets = select_cut_targets(spots, self.SQUARE)
        assert targets.tolist() == [[1.0, 1.0, 0.0]]

    def test_edge_tag_included(self):
        spots, _ = tags_at([(1, 0)])
        targets = select_cut_targets(spots, self.SQUARE)
        assert targets.tolist() == [[1.0, 0.0, 0.0]]

    def test_all_outside_empty(self):
        spots, _ = tags_at([(10, 10), (-5, -5)], label="healthy")
        with pytest.raises(EmptyRegion):
            select_cut_targets(spots, self.SQUARE)

    def test_scan_order_preserved(self):
        spots, _ = tags_at([(1.5, 1.5), (0.5, 0.5), (1.0, 1.0)])
        targets = select_cut_targets(spots, self.SQUARE)
        assert targets.shape == (3, 3)
        assert np.allclose(targets[:, :2],
                           [(1.5, 1.5), (0.5, 0.5), (1.0, 1.0)])


def flat_surface_setup():
    scene = ScenePhantom(primitives=({"kind": "plane", "z": 3.0},),
                         albedo={"default": 1.0})
    cfg = OctConfig(n_bscans=32, n_lateral=64)
    cloud = segment_surface(render_oct_volume(scene, (0.0, 0.0), cfg))
    left = PinholeCamera.look_at([-20.0, 6.4, 120.0], [6.3, 6.4, 3.0],
                                 fx=2000.0, fy=2000.0, cx=640.0, cy=360.0)
    right = PinholeCamera.look_at([32.0, 6.4, 120.0], [6.3, 6.4, 3.0],
                                  fx=2000.0, fy=2000.0, cx=640.0, cy=360.0)
    return cloud, left, right, cfg


class TestSpotEstimate:
    def test_flat_surface_recovery(self):
        cloud, left, right, cfg = flat_surface_setup()
        true_spot = np.array([6.3, 6.4, 3.0])
        pixels = [project_points(cam, true_spot[None])[0][0]
                  for cam in (left, right)]
        origin, down = np.array([6.3, 6.4, 50.0]), np.array([0.0, 0.0, -1.0])
        mesh = triangulate_grid(cloud)
        mapped, fused = SpotLocator(cloud, left, right, mesh).locate(
            pixels[0][None], pixels[1][None], origin[None], down)
        assert mapped.tolist() == [0]
        fused = fused[0]
        # each camera's estimate by brute force: the valid point whose
        # projection lands nearest the pixel; then the ray's hit
        pts = cloud.points[cloud.valid_mask()]
        from_left, from_right = (
            pts[nearest_neighbor(pixel[None], project_points(cam, pts)[0])[0][0]]
            for cam, pixel in zip((left, right), pixels))
        from_ray = ray_mesh_intersect(origin[None], mesh, down)[1][0]
        assert np.array_equal(fused, (from_left + from_right + from_ray) / 3.0)
        spacing = max(cfg.pitch_x, cfg.pitch_y)
        for e in (from_left, from_right, from_ray, fused):
            assert np.linalg.norm(e - true_spot) <= spacing

    def test_ray_miss(self):
        # a miss is a mask bit, not an error: the spot is left unmapped
        cloud, left, right, _ = flat_surface_setup()
        mapped, spots = SpotLocator(
            cloud, left, right, triangulate_grid(cloud)).locate(
            [[640, 360]], [[640, 360]], [[100.0, 100.0, 50.0]],
            [0.0, 0.0, -1.0])
        assert mapped.shape == (0,) and spots.shape == (0, 3)

    def test_raster_matches_per_spot_oracle(self, tmp_path):
        # the seed-1 benchmark raster overruns the OCT field: hits and
        # misses mixed; capture the e2e call and replay it spot by spot
        calls = []
        original = SpotLocator.locate

        def capture(locator, *args):
            calls.append((locator, args))
            return original(locator, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SpotLocator, "locate", capture)
            run_end_to_end(ExperimentConfig(seed=1, noiseless=False),
                           tmp_path, through_stage="classify")
        (locator, args), = calls
        mapped, spots = original(locator, *args)
        want_mapped, want_spots = oracles.locate_all(locator, *args)
        assert len(args[2]) == 100 and len(mapped) == 64
        assert mapped.dtype == want_mapped.dtype
        assert mapped.tobytes() == want_mapped.tobytes()
        assert spots.shape == want_spots.shape
        assert spots.tobytes() == want_spots.tobytes()


class TestColorize:
    def test_uniform_red(self):
        cloud, left, _, _ = flat_surface_setup()
        img = np.zeros((720, 1280, 3), dtype=np.uint8)
        img[..., 0] = 255
        colored, in_view = colorize_surface(cloud, left, img)
        assert in_view.any()
        assert np.all(colored.color[in_view] == [255, 0, 0])

    def test_two_half_image_boundary(self):
        cloud, _, _, cfg = flat_surface_setup()
        cam = PinholeCamera.look_at([6.3, 6.4, 103.0], [6.3, 6.4, 3.0],
                                    fx=2000.0, fy=2000.0, cx=640.0, cy=360.0)
        img = np.zeros((720, 1280, 3), dtype=np.uint8)
        img[:, :640] = (0, 255, 0)
        img[:, 640:] = (0, 0, 255)
        colored, in_view = colorize_surface(cloud, cam, img)
        # pixel footprint at 100 mm depth with fx = 2000
        foot = 100.0 / 2000.0
        xs = cloud.points[:, 0]
        green = np.all(colored.color == [0, 255, 0], axis=1)
        blue = np.all(colored.color == [0, 0, 255], axis=1)
        assert np.all(green[in_view & (xs < 6.3 - foot)])
        assert np.all(blue[in_view & (xs > 6.3 + foot)])

    def test_point_behind_camera_flagged(self):
        cloud, left, _, _ = flat_surface_setup()
        low_cam = PinholeCamera.look_at([6.3, 6.4, -50.0], [6.3, 6.4, -100.0],
                                        fx=2000.0, fy=2000.0, cx=640.0, cy=360.0)
        img = np.full((720, 1280, 3), 255, dtype=np.uint8)
        colored, in_view = colorize_surface(cloud, low_cam, img)
        assert not in_view.any()
        assert np.all(colored.color == 0)

    def test_no_camera(self):
        cloud, *_ = flat_surface_setup()
        with pytest.raises(NoCalibration):
            colorize_surface(cloud, None, np.zeros((4, 4, 3), dtype=np.uint8))
