import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resectsim import geometry
from resectsim.errors import EmptyCloud, GridTooSmall, ParallelRay
from resectsim.geometry import (
    DEGENERATE_AREA,
    NN_BLOCK,
    PAIR_BLOCK,
    PointGrid,
    ReferenceFrame,
    SurfaceCloud,
    TriMesh,
    nearest_neighbor,
    normalize,
    ray_mesh_intersect,
    triangulate_grid,
)

import oracles
from oracles import Ray


def grid_cloud(z_fn, rows, cols, pitch=1.0):
    pts = []
    for r in range(rows):
        for c in range(cols):
            x, y = c * pitch, r * pitch
            pts.append([x, y, z_fn(x, y)])
    return SurfaceCloud(rows, cols, np.array(pts))


def brute_force_hit(ray, mesh):
    """Independent oracle: per-triangle 3x3 linear solve, nearest positive t."""
    best = None
    for i, (a, b, c) in enumerate(mesh.triangles):
        v0, v1, v2 = mesh.vertices[a], mesh.vertices[b], mesh.vertices[c]
        m = np.column_stack([-ray.direction, v1 - v0, v2 - v0])
        if abs(np.linalg.det(m)) < 1e-12:
            continue
        t, u, v = np.linalg.solve(m, ray.origin - v0)
        if u >= 0.0 and v >= 0.0 and u + v <= 1.0 and t > 1e-12:
            if best is None or t < best[0]:
                best = (t, i)
    if best is None:
        return None
    return ray.at(best[0]), best[1]


def loop_triangulate_grid(surface):
    """Oracle: the per-cell loop, one cross product per triangle."""
    rows, cols = surface.rows, surface.cols
    pts = surface.points
    ok = surface.valid_mask()
    tris = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            a = r * cols + c
            b = r * cols + (c + 1)
            d = (r + 1) * cols + c
            e = (r + 1) * cols + (c + 1)
            for tri in ((a, d, e), (a, e, b)):
                i, j, k = tri
                if not (ok[i] and ok[j] and ok[k]):
                    continue
                area = 0.5 * np.linalg.norm(
                    np.cross(pts[j] - pts[i], pts[k] - pts[i])
                )
                if area <= DEGENERATE_AREA:
                    continue
                tris.append(tri)
    return TriMesh(pts, np.array(tris, dtype=int).reshape(-1, 3))


def all_triangle_ray_mesh_intersect(ray, mesh):
    """Oracle: the same Moller-Trumbore arithmetic over every triangle."""
    tris = mesh.triangles
    if len(tris) == 0:
        return None
    v0 = mesh.vertices[tris[:, 0]]
    e1 = mesh.vertices[tris[:, 1]] - v0
    e2 = mesh.vertices[tris[:, 2]] - v0
    d = ray.direction
    p = np.cross(np.broadcast_to(d, e2.shape), e2)
    det = np.einsum("ij,ij->i", e1, p)
    usable = np.abs(det) > 1e-12
    inv_det = np.where(usable, 1.0 / np.where(usable, det, 1.0), 0.0)
    tvec = ray.origin - v0
    u = np.einsum("ij,ij->i", tvec, p) * inv_det
    q = np.cross(tvec, e1)
    v = np.einsum("j,ij->i", d, q) * inv_det
    t = np.einsum("ij,ij->i", e2, q) * inv_det
    hit = usable & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > 1e-12)
    if not np.any(hit):
        return None
    t_masked = np.where(hit, t, np.inf)
    idx = int(np.argmin(t_masked))
    return ray.at(float(t[idx])), idx


def one_row(ray, mesh):
    """The batched kernel's answer for one ray, in the oracle's form."""
    hit, point, index = ray_mesh_intersect(ray.origin[None], mesh,
                                           ray.direction)
    return (point[0], index[0]) if hit[0] else None


def assert_same_hit(got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got[1] == want[1]
        assert got[0].tobytes() == want[0].tobytes()


@st.composite
def grid_surfaces(draw):
    """Small grids: flat, stepped or random relief, some invalid nodes and
    some points repeated onto a neighbor (zero-area triangles)."""
    rows = draw(st.integers(2, 12))
    cols = draw(st.integers(2, 12))
    pitch = draw(st.sampled_from([0.05, 0.7, 1.0]))
    relief = draw(st.sampled_from(["flat", "steps", "random"]))
    invalid_share = draw(st.sampled_from([0.0, 0.1, 0.4]))
    repeats = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = rows * cols
    y, x = np.mgrid[0:rows, 0:cols] * pitch
    z = {"flat": np.full(n, 1.5),
         "steps": 0.5 * rng.integers(0, 3, n),
         "random": rng.uniform(-2.0, 2.0, n)}[relief]
    pts = np.column_stack([x.ravel(), y.ravel(), z])
    for _ in range(repeats):
        i = int(rng.integers(0, n))
        j = min(i + int(rng.choice([1, cols, cols + 1])), n - 1)
        pts[j] = pts[i]
    return SurfaceCloud(rows, cols, pts, valid=rng.random(n) >= invalid_share)


RAY_KINDS = ("vertex", "edge", "tilted", "upward", "inside", "horizontal",
             "dz_1e-13", "dz_1e-11")


@st.composite
def rays_at(draw, mesh):
    """Rays aimed at a mesh: exactly vertical through a vertex or the middle
    of a triangle edge, tilted down, upward from below, from inside the z
    range, horizontal, and with |d_z| just under and over 1e-12."""
    kind = draw(st.sampled_from(RAY_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = mesh.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    sign = rng.choice([-1.0, 1.0])

    def xy():
        return rng.uniform(lo[:2] - 1.0, hi[:2] + 1.0)

    if kind == "edge" and len(mesh.triangles):
        tri = mesh.triangles[rng.integers(len(mesh.triangles))]
        i, j = rng.choice(tri, 2, replace=False)
        p = (v[i] + v[j]) / 2.0
        return Ray([p[0], p[1], hi[2] + 5.0], [0.0, 0.0, -1.0])
    if kind in ("vertex", "edge"):
        p = v[rng.integers(len(v))]
        return Ray([p[0], p[1], hi[2] + 5.0], [0.0, 0.0, -1.0])
    if kind == "tilted":
        origin = [*xy(), hi[2] + rng.uniform(0.5, 10.0)]
        return Ray(origin, [*xy(), lo[2] - 1.0] - np.asarray(origin))
    if kind == "upward":
        origin = [*xy(), lo[2] - rng.uniform(0.5, 5.0)]
        return Ray(origin, [*xy(), hi[2] + 1.0] - np.asarray(origin))
    origin = [*xy(), rng.uniform(lo[2], hi[2])]
    if kind == "inside":
        return Ray(origin, rng.normal(size=3))
    angle = rng.uniform(0.0, 2.0 * np.pi)
    dz = {"horizontal": 0.0, "dz_1e-13": 1e-13, "dz_1e-11": 1e-11}[kind]
    return Ray(origin, [np.cos(angle), np.sin(angle), sign * dz])


DIRECTION_KINDS = ("down", "up", "near_vertical", "steep", "shallow",
                   "horizontal", "dz_1e-13", "dz_1e-11")


@st.composite
def shared_rays(draw):
    """A function of a mesh that gives ``(origins (n, 3), unit direction)``:
    0-24 rays sharing one direction (straight down or up, a few degrees off
    vertical, 30-60 degrees, 80-89 degrees, or horizontal and with |d_z|
    just under and over 1e-12), aimed through vertices and triangle edge
    midpoints, at random points of the padded mesh box, and far off it."""
    kind = draw(st.sampled_from(DIRECTION_KINDS))
    n = draw(st.integers(0, 24))
    seed = draw(st.integers(0, 2**32 - 1))

    def rays(mesh):
        rng = np.random.default_rng(seed)
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        tilt = {"down": 0.0, "up": np.pi, "near_vertical": rng.uniform(0, 0.1),
                "steep": rng.uniform(np.pi / 6, np.pi / 3),
                "shallow": rng.uniform(4 * np.pi / 9, np.pi / 2 * 0.99)}.get(
            kind, np.pi / 2)
        raw = [np.sin(tilt) * np.cos(azimuth), np.sin(tilt) * np.sin(azimuth),
               -np.cos(tilt)]
        if kind.startswith("dz_") or kind == "horizontal":
            raw[2] = {"horizontal": 0.0, "dz_1e-13": 1e-13,
                      "dz_1e-11": -1e-11}[kind]
        direction = normalize(raw)
        v = mesh.vertices
        lo, hi = v.min(axis=0), v.max(axis=0)
        aims = []
        for _ in range(n):
            pick = rng.choice(["vertex", "edge", "box", "far"])
            if pick == "edge" and len(mesh.triangles):
                tri = mesh.triangles[rng.integers(len(mesh.triangles))]
                i, j = rng.choice(tri, 2, replace=False)
                aims.append((v[i] + v[j]) / 2.0)
            elif pick in ("vertex", "edge"):
                aims.append(v[rng.integers(len(v))])
            elif pick == "box":
                aims.append(rng.uniform(lo - 1.0, hi + 1.0))
            else:
                aims.append(hi + rng.uniform(50.0, 100.0, 3) * [1, 1, 0])
        # back off along the beam, past the mesh's z range when it descends
        back = (hi[2] - lo[2]) + rng.uniform(0.5, 5.0)
        origins = np.reshape(aims, (-1, 3)) - back * direction
        return origins, direction

    return rays


class TestFastKernelsMatchOracles:
    @given(grid_surfaces())
    def test_triangulation(self, surface):
        got = triangulate_grid(surface)
        want = loop_triangulate_grid(surface)
        assert got.triangles.dtype == want.triangles.dtype
        assert got.triangles.shape == want.triangles.shape
        assert np.array_equal(got.triangles, want.triangles)
        assert got.vertices.tobytes() == want.vertices.tobytes()

    @settings(max_examples=150)
    @given(grid_surfaces(), st.data())
    def test_ray_trace(self, surface, data):
        mesh = triangulate_grid(surface)
        for _ in range(8):
            ray = data.draw(rays_at(mesh))
            want = all_triangle_ray_mesh_intersect(ray, mesh)
            assert_same_hit(oracles.ray_mesh_intersect(ray, mesh), want)
            assert_same_hit(one_row(ray, mesh), want)

    def test_flat_grid_vertices_and_edges(self):
        # every vertex and every edge midpoint, where hits tie between
        # triangles and the lowest index must win
        mesh = triangulate_grid(grid_cloud(lambda x, y: 2.0, 6, 6, 0.7))
        v = mesh.vertices
        edges = {tuple(sorted((int(t[i]), int(t[(i + 1) % 3]))))
                 for t in mesh.triangles for i in range(3)}
        targets = [p for p in v] + [(v[i] + v[j]) / 2.0 for i, j in edges]
        hits = 0
        for p in targets:
            for origin, direction in (
                    ([p[0], p[1], 9.0], [0.0, 0.0, -1.0]),
                    ([p[0], p[1], -3.0], [0.0, 0.0, 1.0]),
                    ([p[0] - 4.0, p[1] + 1.0, 9.0], [4.0, -1.0, -7.0]),
                    ([p[0] - 1.0, p[1], 2.0], [1.0, 0.0, 0.0])):
                ray = Ray(origin, direction)
                want = all_triangle_ray_mesh_intersect(ray, mesh)
                assert_same_hit(one_row(ray, mesh), want)
                hits += want is not None
        assert hits > 2 * len(targets)


    @settings(max_examples=150)
    @given(grid_surfaces(), shared_rays(), st.sampled_from([PAIR_BLOCK, 7]),
           st.booleans())
    def test_batched_rows_match_one_ray_oracle(self, surface, rays, block,
                                               empty):
        mesh = triangulate_grid(surface)
        origins, direction = rays(mesh)
        meshes = [mesh]
        if empty:
            meshes.append(TriMesh(mesh.vertices, np.zeros((0, 3), dtype=int)))
        for mesh in meshes:
            with pytest.MonkeyPatch.context() as mp:
                # a small block splits one ray's pairs across blocks
                mp.setattr(geometry, "PAIR_BLOCK", block)
                hit, points, index = ray_mesh_intersect(origins, mesh,
                                                        direction)
            assert hit.shape == index.shape == (len(origins),)
            assert points.shape == (len(origins), 3)
            for k, origin in enumerate(origins):
                want = oracles.ray_mesh_intersect(Ray(origin, direction), mesh)
                if want is None:
                    assert not hit[k] and index[k] == -1
                    assert np.isnan(points[k]).all()
                else:
                    assert hit[k] and index[k] == want[1]
                    assert points[k].tobytes() == want[0].tobytes()

    @given(grid_surfaces())
    def test_bounds_match_the_corner_reduction(self, surface):
        mesh = triangulate_grid(surface)
        if len(mesh.triangles):
            corners = mesh.vertices[mesh.triangles].T  # (3 axes, 3 corners, T)
            lo, hi, zmin, zmax = mesh.bounds
            assert lo.tobytes() == corners[:2].min(axis=1).tobytes()
            assert hi.tobytes() == corners[:2].max(axis=1).tobytes()
            assert (zmin, zmax) == (corners[2].min(), corners[2].max())


class TestRayPlane:
    def test_normal_incidence(self):
        ray = Ray([0, 0, 10], [0, 0, -1])
        plane = oracles.target_plane([0, 0, 0])
        assert np.allclose(oracles.ray_plane_intersect(ray, plane), [0, 0, 0],
                           atol=1e-12)

    def test_45_degrees(self):
        ray = Ray([0, 0, 10], np.array([1, 0, -1]) / np.sqrt(2))
        plane = oracles.target_plane([0, 0, 0])
        assert np.allclose(oracles.ray_plane_intersect(ray, plane), [10, 0, 0],
                           atol=1e-9)

    def test_parallel_raises(self):
        ray = Ray([0, 0, 10], [1, 0, 0])
        plane = oracles.target_plane([0, 0, 0])
        with pytest.raises(ParallelRay):
            oracles.ray_plane_intersect(ray, plane)

    def test_point_on_plane_and_on_ray(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            origin = rng.uniform(-20, 20, 3)
            direction = rng.normal(size=3)
            center = rng.uniform(-5, 5, 3)
            normal = rng.normal(size=3)
            if abs(np.dot(normal / np.linalg.norm(normal),
                          direction / np.linalg.norm(direction))) < 1e-3:
                continue
            ray = Ray(origin, direction)
            normal = normalize(normal)
            p = oracles.ray_plane_intersect(ray, (center, normal))
            assert abs(np.dot(p - center, normal)) < 1e-9
            assert np.linalg.norm(np.cross(p - ray.origin, ray.direction)) < 1e-9 * max(
                1.0, np.linalg.norm(p - ray.origin)
            )


class TestTriangulate:
    def test_single_cell(self):
        mesh = triangulate_grid(grid_cloud(lambda x, y: 0.0, 2, 2))
        assert len(mesh.triangles) == 2

    def test_3x3_count(self):
        mesh = triangulate_grid(grid_cloud(lambda x, y: 0.0, 3, 3))
        assert len(mesh.triangles) == 8

    def test_repeated_point_skips_degenerate(self):
        # 2x2 cell with corner (0,1) duplicated onto (0,0): triangle
        # (a, e, b) collapses, triangle (a, d, e) survives.
        pts = np.array([[0, 0, 0], [0, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        mesh = triangulate_grid(SurfaceCloud(2, 2, pts))
        assert len(mesh.triangles) == 1

    def test_too_small(self):
        with pytest.raises(GridTooSmall):
            triangulate_grid(grid_cloud(lambda x, y: 0.0, 1, 5))

    def test_planar_area_conserved(self):
        for rows, cols, pitch in [(2, 2, 1.0), (5, 9, 0.37), (20, 20, 0.65)]:
            mesh = triangulate_grid(grid_cloud(lambda x, y: 1.5, rows, cols, pitch))
            v = mesh.vertices
            t = mesh.triangles
            areas = 0.5 * np.linalg.norm(
                np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]), axis=1
            )
            expect = (rows - 1) * (cols - 1) * pitch * pitch
            assert abs(areas.sum() - expect) < 1e-9 * expect

    def test_invalid_nodes_skipped(self):
        cloud = grid_cloud(lambda x, y: 0.0, 3, 3)
        valid = np.ones(9, dtype=bool)
        valid[4] = False  # center node; only the two far-corner triangles survive
        cloud = SurfaceCloud(3, 3, cloud.points, valid=valid)
        mesh = triangulate_grid(cloud)
        assert len(mesh.triangles) == 2
        assert 4 not in mesh.triangles
        assert len(mesh.vertices) == 9  # vertex count preserved


class TestRayMesh:
    def unit_grid_mesh(self):
        pts = np.array(
            [[-1, -1, 0], [1, -1, 0], [-1, 1, 0], [1, 1, 0]], dtype=float
        )
        return triangulate_grid(SurfaceCloud(2, 2, pts))

    def test_planar_hit(self):
        mesh = self.unit_grid_mesh()
        hit = one_row(Ray([0, 0, 10], [0, 0, -1]), mesh)
        assert hit is not None
        point, _ = hit
        assert np.allclose(point, [0, 0, 0], atol=1e-12)

    def test_miss(self):
        pts = np.array(
            [[6, -1, 0], [8, -1, 0], [6, 1, 0], [8, 1, 0]], dtype=float
        )
        mesh = triangulate_grid(SurfaceCloud(2, 2, pts))
        assert one_row(Ray([0, 0, 10], [0, 0, -1]), mesh) is None

    def test_two_bump_matches_brute_force(self):
        def z_fn(x, y):
            return (
                1.2 * np.exp(-((x - 2) ** 2 + (y - 2) ** 2) / 1.5)
                + 0.8 * np.exp(-((x - 5) ** 2 + (y - 4) ** 2) / 2.0)
            )

        mesh = triangulate_grid(grid_cloud(z_fn, 8, 8, 1.0))
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(100):
            origin = np.array([rng.uniform(0, 7), rng.uniform(0, 7), 10.0])
            target = np.array([rng.uniform(0, 7), rng.uniform(0, 7), 0.0])
            ray = Ray(origin, target - origin)
            got = one_row(ray, mesh)
            want = brute_force_hit(ray, mesh)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got[1] == want[1]
                assert np.linalg.norm(got[0] - want[0]) < 1e-9
                hits += 1
        assert hits > 50


class TestNearestNeighbor:
    def test_exact_member(self):
        idx, d2 = nearest_neighbor([[0, 0]], [[0, 0], [1, 1]])
        assert idx.tolist() == [0] and d2.tolist() == [0.0]

    def test_simple(self):
        idx, d2 = nearest_neighbor([[0.6, 0]], [[0, 0], [1, 0]])
        assert idx.tolist() == [1]
        assert abs(np.sqrt(d2[0]) - 0.4) < 1e-12

    def test_tie_breaks_low_index(self):
        cloud = [[5, 5], [9, 9], [1, 0], [2, 2], [7, 7], [-1, 0]]
        # indices 2 and 5 are nearest to the first query, 1 and 4 to the
        # second
        idx, _ = nearest_neighbor([[0, 0], [8, 8]], cloud)
        assert idx.tolist() == [2, 1]

    def test_empty_raises(self):
        with pytest.raises(EmptyCloud):
            nearest_neighbor([[0, 0]], np.empty((0, 2)))

    def test_exhaustive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cloud = rng.uniform(-10, 10, size=(rng.integers(1, 500), 3))
            q = rng.uniform(-10, 10, (rng.integers(1, 30), 3))
            idx, d2 = nearest_neighbor(q, cloud)
            all_d = np.linalg.norm(cloud[None, :, :] - q[:, None, :], axis=2)
            assert np.all(np.sqrt(d2) <= all_d.min(axis=1) + 1e-12)
            assert np.all(np.abs(np.sqrt(d2) - all_d[np.arange(len(q)), idx])
                          < 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([2, 3]), st.integers(1, 40))
    def test_matches_one_query_oracle(self, data, dim, block):
        # coordinates on a half-unit grid, drawn from a small pool with
        # repeats, so that ties on the squared distance are common
        grid = st.integers(-4, 4).map(lambda v: v / 2.0)
        row = st.lists(grid, min_size=dim, max_size=dim)
        pool = data.draw(st.lists(row, min_size=1, max_size=6))
        cloud = np.array(data.draw(st.lists(st.sampled_from(pool),
                                            min_size=1, max_size=25)))
        queries = np.array(data.draw(st.lists(
            st.one_of(row, st.lists(st.floats(-3, 3), min_size=dim,
                                    max_size=dim)),
            min_size=1, max_size=30)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "NN_BLOCK", block)
            idx, d2 = nearest_neighbor(queries, cloud)
        want = [oracles.nearest_neighbor(q, cloud) for q in queries]
        assert np.array_equal(idx, [i for i, _ in want])
        assert np.array_equal(np.sqrt(d2), [d for _, d in want])

    @pytest.mark.parametrize("k, m, grid", [
        (1, NN_BLOCK, False), (2, NN_BLOCK // 2, False), (1, NN_BLOCK + 1, True),
        (NN_BLOCK // 4 + 1, 4, True)])
    def test_grid_only_above_nn_block_pairs(self, monkeypatch, k, m, grid):
        # the selection is by input size: k * m <= NN_BLOCK runs the brute
        # force; 1-D points always do
        built = []
        monkeypatch.setattr(geometry, "PointGrid",
                            lambda c: built.append(len(c)) or PointGrid(c))
        cloud = np.random.default_rng(m).uniform(-1, 1, (m, 2))
        queries = np.random.default_rng(k).uniform(-1, 1, (k, 2))
        idx, d2 = nearest_neighbor(queries, cloud)
        assert built == ([m] if grid else [])
        nearest_neighbor(queries[:, :1], cloud[:, :1])
        assert len(built) == int(grid)
        monkeypatch.setattr(geometry, "NN_BLOCK", 1 << 62)
        assert all(map(np.array_equal, nearest_neighbor(queries, cloud),
                       (idx, d2)))

    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.sampled_from(["border", "collinear", "one-point",
                                       "scatter", "clustered", "ties"]),
           st.sampled_from([2, 3]))
    def test_grid_matches_one_query_oracle(self, data, kind, dim):
        # "border": a 4 x 4 box with 16 points has 1 mm cells, so points on
        # the integer lattice sit on cell borders, repeated; "collinear":
        # points on a horizontal, vertical or diagonal line; "one-point":
        # one point, maybe repeated; "clustered": a tight cluster and a few
        # outliers, so most cells are empty and searches span many rings;
        # "ties": points at distance exactly 5 from (0, 0) in shuffled order
        # and a far lattice that makes the cells small, so equal distances
        # turn up in different rings
        half = st.integers(0, 8).map(lambda v: v / 2.0)
        if kind == "ties":
            rim = [(5, 0), (0, 5), (-5, 0), (0, -5), (3, 4), (4, 3), (-3, 4),
                   (4, -3), (-4, -3), (-3, -4), (3, -4), (-4, 3)]
            xy = data.draw(st.permutations(rim))[:data.draw(st.integers(2, 12))]
            lattice = np.arange(40, 61) / 2.0
            xy = xy + [(a, b) for a in lattice for b in lattice]
        elif kind == "clustered":
            xy = data.draw(st.lists(st.tuples(st.floats(0, 0.5),
                                              st.floats(0, 0.5)),
                                    min_size=20, max_size=50))
            xy += data.draw(st.lists(st.tuples(st.floats(-30, 30),
                                               st.floats(-30, 30)),
                                     min_size=1, max_size=5))
            xy = data.draw(st.permutations(xy))
        elif kind == "border":
            xy = [(0.0, 0.0), (4.0, 4.0)] + data.draw(st.lists(
                st.tuples(half, half), min_size=14, max_size=14))
        elif kind == "collinear":
            t = data.draw(st.lists(st.floats(-3, 3), min_size=2, max_size=40))
            ax, ay = data.draw(st.sampled_from([(1, 0), (0, 1), (1, 1),
                                                (1, -0.5)]))
            xy = [(ax * v + 1.0, ay * v - 2.0) for v in t]
        elif kind == "one-point":
            p = data.draw(st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
            xy = [p] * data.draw(st.integers(1, 3))
        else:
            xy = data.draw(st.lists(st.tuples(st.floats(-5, 5),
                                              st.floats(-5, 5)),
                                    min_size=1, max_size=60))
        extra = data.draw(st.lists(st.sampled_from([0.0, 0.5, -1.0]),
                                   min_size=len(xy), max_size=len(xy)))
        if kind == "ties":  # the third coordinate must not break the ties
            extra = [0.5] * len(xy)
        cloud = np.array([[x, y, z][:dim] for (x, y), z in zip(xy, extra)])
        near = st.tuples(st.floats(-8, 8), st.floats(-8, 8))
        if kind == "clustered":
            near = st.tuples(st.floats(-40, 40), st.floats(-40, 40))
        far = st.tuples(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12))
        huge = st.tuples(st.sampled_from([1e200, -1e200, 3.0]),
                         st.sampled_from([1e200, 2.0]))
        pts = st.sampled_from([tuple(row[:2]) for row in cloud])
        queries = np.array([[x, y, 0.5][:dim] for x, y in data.draw(
            st.lists(st.one_of(st.tuples(half, half), pts, near, far, huge),
                     min_size=1, max_size=30))] + [[0.0, 0.0, 0.5][:dim]])
        with np.errstate(over="ignore"):  # the 1e200 queries' squares
            idx, d2 = PointGrid(cloud).nearest(queries)
            want = [oracles.nearest_neighbor(q, cloud)[0] for q in queries]
            assert np.array_equal(idx, want)
            assert np.array_equal(d2, np.sum((cloud[idx] - queries) ** 2,
                                             axis=-1))
            assert all(map(np.array_equal, nearest_neighbor(queries, cloud),
                           (idx, d2)))

    def test_grid_matches_brute_force_on_a_projected_surface(self):
        # one-row queries against a 128 x 512 grid seen at an angle, about
        # one point per cell; queries inside, just outside and far outside
        rng = np.random.default_rng(5)
        u, v = np.meshgrid(np.arange(512) * 0.39, np.arange(128) * 1.57)
        cloud = np.column_stack([u.ravel() + 0.1 * v.ravel(), v.ravel()])
        cloud += rng.normal(0.0, 0.05, cloud.shape)
        queries = np.concatenate([rng.uniform(-20, 230, (300, 2)),
                                  cloud[rng.integers(0, len(cloud), 100)],
                                  rng.uniform(-1e6, 1e6, (20, 2))])
        grid = PointGrid(cloud)
        for q in queries[:, None]:
            got = grid.nearest(q)
            want = geometry._nearest_blocked(q, cloud)
            assert all(map(np.array_equal, got, want))

    def test_non_finite_queries_and_clouds_run_the_brute_force(self):
        cloud = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        queries = np.array([[np.nan, 0.0], [np.inf, 1.0], [1.0, -np.inf],
                            [0.9, 0.9]])
        with np.errstate(invalid="ignore"):
            for c in (cloud, np.vstack([cloud, [[np.inf, 0.0]]])):
                got = PointGrid(c).nearest(queries)
                want = geometry._nearest_blocked(queries, c)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1], equal_nan=True)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(1, 40))
    def test_footprint_matches_per_spot_loop(self, data, k, block):
        # the resection footprint: a point is cut when any spot lies within
        # the radius; integer spots and Pythagorean offsets put some points
        # at exactly that distance
        ints = st.integers(-6, 6).map(float)
        spots = np.array(data.draw(st.lists(st.tuples(ints, ints),
                                            min_size=1, max_size=8)))
        r = 5.0 * k
        exact = [(r, 0.0), (0.0, -r), (-3.0 * k, 4.0 * k)]
        on_rim = [spots[data.draw(st.integers(0, len(spots) - 1))] + off
                  for off in data.draw(st.lists(st.sampled_from(exact),
                                                max_size=6))]
        free = data.draw(st.lists(st.tuples(st.floats(-12, 12),
                                            st.floats(-12, 12)), max_size=30))
        pts = np.array(on_rim + free, dtype=float).reshape(-1, 2)
        loop = np.zeros(len(pts), dtype=bool)
        for s in spots:
            loop |= np.sum((pts - s) ** 2, axis=1) <= r**2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "NN_BLOCK", block)
            mask = nearest_neighbor(pts, spots)[1] <= r**2
        assert np.array_equal(mask, loop)
        assert mask[:len(on_rim)].all()
        if len(pts):
            assert np.array_equal(PointGrid(pts).within(spots, r), loop)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.floats(0.01, 3.0))
    def test_within_matches_brute_force_footprint(self, data, r):
        # the resection footprint on a surface-like grid of points: the
        # grid's fixed-radius query against the brute-force nearest spot,
        # with points placed exactly on some spots' rims
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        nx, ny = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 30))
        gx, gy = np.meshgrid(np.arange(nx) * 0.2, np.arange(ny) * 0.45)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        spots = rng.uniform(-2.0, 14.0, (data.draw(st.integers(1, 40)), 2))
        rim = spots[rng.integers(0, len(spots), 10)] + [r, 0.0]
        pts = np.concatenate([pts, rim, spots[:3]])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "NN_BLOCK", 1 << 62)
            want = nearest_neighbor(pts, spots)[1] <= r**2
        assert np.array_equal(PointGrid(pts).within(spots, r), want)


class TestFrames:
    def test_ray_normalized(self):
        r = Ray([0, 0, 0], [0, 0, -5])
        assert abs(np.linalg.norm(r.direction) - 1.0) < 1e-12

    def test_degenerate_frame_rejected(self):
        with pytest.raises(ValueError):
            ReferenceFrame([0, 0, 0], [1, 0, 0], [1, 1e-5, 0])

    def test_nonorthogonal_frame_accepted(self):
        f = ReferenceFrame([0, 0, 20], [1, 0, 0], [np.cos(np.radians(85)), np.sin(np.radians(85)), 0])
        assert abs(np.linalg.norm(f.v_y) - 1.0) < 1e-12

    def test_trimesh_index_check(self):
        with pytest.raises(ValueError):
            TriMesh(np.zeros((3, 3)), [[0, 1, 5]])
