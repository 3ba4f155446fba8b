import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resectsim.errors import (
    CollinearTags,
    EmptyRegion,
    LengthMismatch,
    NoCalibration,
    NoRayHit,
    TooFewTumorTags,
)
from resectsim.geometry import (
    Ray,
    convex_hull,
    points_in_polygon,
    polygon_area,
    polygon_is_simple,
)
from resectsim.mapping import (
    BoundaryPolygon,
    SpotEstimate,
    SpotLocator,
    TumorTag,
    boundary_from_tags,
    build_tumor_tags,
    colorize_surface,
    select_cut_targets,
)
from resectsim.sensors import (
    OctConfig,
    PinholeCamera,
    ScenePhantom,
    project_world_to_image,
    render_oct_volume,
    segment_surface,
)

from oracles import point_in_polygon


def tags_at(xy_list, label="tumor", z=0.0):
    return [TumorTag([x, y, z], label) for x, y in xy_list]


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
        b = boundary_from_tags(tags)
        assert len(b.vertices) == 4
        assert set(b.source_indices) <= set(range(5))

    def test_too_few(self):
        with pytest.raises(TooFewTumorTags):
            boundary_from_tags(tags_at([(0, 0), (1, 0)]))

    def test_healthy_ignored(self):
        tags = tags_at([(0, 0), (4, 0), (2, 3)]) + tags_at(
            [(10, 10)], label="healthy"
        )
        b = boundary_from_tags(tags)
        assert len(b.vertices) == 3

    def test_collinear(self):
        with pytest.raises(CollinearTags):
            boundary_from_tags(tags_at([(0, 0), (1, 0), (2, 0), (3, 0)]))

    def test_shrink_reduces_area_on_c_shape(self):
        outer = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 3), (4, 3), (4, 4), (0, 4)]
        dense = []
        for k in range(len(outer)):
            a = np.array(outer[k], dtype=float)
            b = np.array(outer[(k + 1) % len(outer)], dtype=float)
            for t in np.linspace(0, 1, 4, endpoint=False):
                dense.append(tuple(a + t * (b - a)))
        tags = tags_at(dense)
        b0 = boundary_from_tags(tags, shrink=0.0)
        b5 = boundary_from_tags(tags, shrink=0.5)
        assert polygon_area(b0.vertices) >= polygon_area(b5.vertices)
        assert polygon_is_simple(b5.vertices)

    def test_every_tumor_tag_inside_hull(self):
        rng = np.random.default_rng(31)
        xy = rng.uniform(0, 8, size=(25, 2))
        tags = tags_at(xy)
        b = boundary_from_tags(tags)
        assert points_in_polygon(xy, b.vertices, include_boundary=True).all()


class TestSelect:
    def square_boundary(self):
        return BoundaryPolygon(
            np.array([(0, 0), (2, 0), (2, 2), (0, 2)], dtype=float),
            (0, 1, 2, 3),
        )

    def test_center_only(self):
        tags = tags_at([(1, 1), (50, 50)])
        region = select_cut_targets(tags, self.square_boundary())
        assert region.member_indices == (0,)

    def test_edge_tag_included(self):
        tags = tags_at([(1, 0)])
        region = select_cut_targets(tags, self.square_boundary())
        assert region.member_indices == (0,)

    def test_all_outside_empty(self):
        tags = tags_at([(10, 10), (-5, -5)], label="healthy")
        with pytest.raises(EmptyRegion):
            select_cut_targets(tags, self.square_boundary())

    def test_scan_order_preserved(self):
        tags = tags_at([(1.5, 1.5), (0.5, 0.5), (1.0, 1.0)])
        region = select_cut_targets(tags, self.square_boundary())
        assert region.member_indices == (0, 1, 2)
        assert np.allclose(region.targets[:, :2],
                           [(1.5, 1.5), (0.5, 0.5), (1.0, 1.0)])


class TestTags:
    def test_zip(self):
        tags = build_tumor_tags(
            np.zeros((3, 3)), ["tumor", "healthy", "tumor"]
        )
        assert [t.label for t in tags] == ["tumor", "healthy", "tumor"]
        assert [t.spectrum_id for t in tags] == [0, 1, 2]

    def test_empty(self):
        assert build_tumor_tags(np.empty((0, 3)), []) == []

    def test_mismatch(self):
        with pytest.raises(LengthMismatch):
            build_tumor_tags(np.zeros((2, 3)), ["tumor"])

    def test_bad_label(self):
        with pytest.raises(ValueError):
            TumorTag([0, 0, 0], "maybe")


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
    def test_fused_is_mean(self):
        est = SpotEstimate.from_estimates([0, 0, 0], [1, 1, 1], [2, 2, 2])
        assert np.allclose(est.fused, [1, 1, 1])
        assert abs(est.spread - 2 * np.sqrt(3)) < 1e-12

    def test_flat_surface_recovery(self):
        cloud, left, right, cfg = flat_surface_setup()
        true_spot = np.array([6.3, 6.4, 3.0])
        pl = project_world_to_image(left, true_spot)
        pr = project_world_to_image(right, true_spot)
        ray = Ray([6.3, 6.4, 50.0], [0.0, 0.0, -1.0])
        est = SpotLocator(cloud, left, right).locate(pl, pr, ray)
        spacing = max(cfg.pitch_x, cfg.pitch_y)
        for e in (est.from_left_camera, est.from_right_camera,
                  est.from_ray_trace, est.fused):
            assert np.linalg.norm(e - true_spot) <= spacing

    def test_ray_miss(self):
        cloud, left, right, _ = flat_surface_setup()
        ray = Ray([100.0, 100.0, 50.0], [0.0, 0.0, -1.0])
        with pytest.raises(NoRayHit):
            SpotLocator(cloud, left, right).locate([640, 360], [640, 360], ray)


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
