"""Exact 3D primitives and 2D polygon primitives used by every other module.

Conventions
-----------
All coordinates are millimeters in a fixed world frame (the frame of the
volumetric scanner). Vectors are numpy float arrays of shape (3,); 2D points
are shape (2,). The laser rig sits above the workpiece at large +z and fires
downward, so calibrated beam directions have negative z.

Surface grids are row-major: ``index = row * cols + col`` with rows along the
slow scan axis (y) and columns along the fast axis (x). Grid triangulation
uses the fixed (r, c) to (r+1, c+1) diagonal so ray-trace results are
deterministic.

2D polygons are (n, 2) vertex arrays, closed implicitly. ``points_in_polygon``
is the one membership kernel: the even-odd crossing rule over an array of
points (Hormann & Agathos, CGTA 20, 2001).

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CollinearTags, EmptyCloud, GridTooSmall, ParallelRay

PARALLEL_EPS = 1e-9
DEGENERATE_AREA = 1e-12
EDGE_EPS = 1e-9


def as_vec3(p) -> np.ndarray:
    """Coerce to a finite float (3,) array."""
    v = np.asarray(p, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


def normalize(v) -> np.ndarray:
    v = as_vec3(v)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


@dataclass(frozen=True)
class Ray:
    """Beam model: an origin point plus a unit direction."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", as_vec3(self.origin))
        object.__setattr__(self, "direction", normalize(self.direction))

    def at(self, t: float) -> np.ndarray:
        return self.origin + t * self.direction


@dataclass(frozen=True)
class PlaneFrame:
    """Virtual plane given by a center point and a unit normal."""

    center: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        object.__setattr__(self, "normal", normalize(self.normal))


@dataclass(frozen=True)
class ReferenceFrame:
    """Commanded-motion frame: origin plus two (not necessarily orthogonal) unit axes."""

    origin: np.ndarray
    v_x: np.ndarray
    v_y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", as_vec3(self.origin))
        object.__setattr__(self, "v_x", normalize(self.v_x))
        object.__setattr__(self, "v_y", normalize(self.v_y))
        if abs(float(np.dot(self.v_x, self.v_y))) >= 0.999:
            raise ValueError("frame axes are (near-)parallel")


@dataclass(frozen=True)
class SurfaceCloud:
    """Gridded surface points with optional per-point color, label, and validity.

    ``points`` has shape (rows*cols, 3) in row-major grid order. ``valid``
    marks grid nodes whose depth measurement succeeded; invalid nodes keep
    their slot (the grid invariant rows*cols == len(points) always holds) but
    are skipped by triangulation and projection consumers.
    """

    rows: int
    cols: int
    points: np.ndarray
    color: np.ndarray | None = None
    label: np.ndarray | None = None
    valid: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "points", pts)
        if self.rows * self.cols != len(pts):
            raise ValueError("rows*cols must equal point count")
        if self.color is not None:
            c = np.asarray(self.color)
            if c.shape != (len(pts), 3):
                raise ValueError("color must be (N,3)")
            object.__setattr__(self, "color", c)
        if self.label is not None:
            lab = np.asarray(self.label)
            if lab.shape != (len(pts),):
                raise ValueError("label must be (N,)")
            object.__setattr__(self, "label", lab)
        if self.valid is not None:
            v = np.asarray(self.valid, dtype=bool)
            if v.shape != (len(pts),):
                raise ValueError("valid must be (N,)")
            object.__setattr__(self, "valid", v)

    def valid_mask(self) -> np.ndarray:
        if self.valid is None:
            return np.ones(len(self.points), dtype=bool)
        return self.valid

    def valid_points(self) -> np.ndarray:
        return self.points[self.valid_mask()]


@dataclass(frozen=True)
class TriMesh:
    """Vertex/triangle soup; indices are into ``vertices``."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=int).reshape(-1, 3)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        if len(t) and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle index out of range")

    @cached_property
    def bounds(self):
        """Per-triangle xy boxes and the z range of all triangles, built on
        first use: ``(lo, hi, zmin, zmax)`` with ``lo[0]``/``hi[0]`` the
        (T,) x bounds and ``lo[1]``/``hi[1]`` the y bounds."""
        corners = self.vertices[self.triangles].T  # (3 axes, 3 corners, T)
        return (np.ascontiguousarray(corners[:2].min(axis=1)),
                np.ascontiguousarray(corners[:2].max(axis=1)),
                float(corners[2].min()), float(corners[2].max()))


def ray_plane_intersect(ray: Ray, plane: PlaneFrame) -> np.ndarray:
    """Intersection of a beam with a virtual plane.

    Returns p = origin - [n.(origin - center) / n.direction] * direction.
    Raises ParallelRay when |n.direction| <= 1e-9.
    """
    denom = float(np.dot(plane.normal, ray.direction))
    if abs(denom) <= PARALLEL_EPS:
        raise ParallelRay(f"|normal . direction| = {abs(denom):.3e} <= {PARALLEL_EPS}")
    t = -float(np.dot(plane.normal, ray.origin - plane.center)) / denom
    return ray.origin + t * ray.direction


def triangulate_grid(surface: SurfaceCloud) -> TriMesh:
    """Split every grid cell into two triangles along the (r,c)-(r+1,c+1) diagonal.

    Triangles come row by row, then column by column, with (a, d, e) before
    (a, e, b) in each cell. Triangles touching an invalid grid node are
    skipped, as are zero-area triangles (repeated points). Vertex array is
    the full grid, so vertex indices match surface point indices.
    """
    rows, cols = surface.rows, surface.cols
    if rows < 2 or cols < 2:
        raise GridTooSmall(f"grid is {rows}x{cols}; need at least 2x2")
    pts = surface.points
    a = (np.arange(rows - 1)[:, None] * cols + np.arange(cols - 1)).ravel()
    b, d = a + 1, a + cols
    e = d + 1
    tris = np.stack([a, d, e, a, e, b], axis=1).reshape(-1, 3)
    tris = tris[surface.valid_mask()[tris].all(axis=1)]
    n = np.cross(pts[tris[:, 1]] - pts[tris[:, 0]],
                 pts[tris[:, 2]] - pts[tris[:, 0]])
    area = 0.5 * np.sqrt(np.einsum("ij,ij->i", n, n))
    return TriMesh(pts, tris[~(area <= DEGENERATE_AREA)])


def ray_mesh_intersect(ray: Ray, mesh: TriMesh):
    """Nearest positive-parameter ray/triangle hit, or None.

    Moller-Trumbore ("Fast, Minimum Storage Ray-Triangle Intersection",
    1997), vectorized over the candidate triangles in ascending index order;
    ties on the ray parameter break to the lowest triangle index. Candidates
    are the triangles whose xy bounding box overlaps the xy shadow of the
    ray's part inside the mesh's z range (padded by 1e-9 relative), since no
    other triangle can hold a hit. A ray with |d_z| <= 1e-12 has no bounded
    shadow and tests every triangle.
    """
    if len(mesh.triangles) == 0:
        return None
    d = ray.direction
    cand = np.arange(len(mesh.triangles))
    if abs(d[2]) > 1e-12:
        lo, hi, zmin, zmax = mesh.bounds
        # ray parameters where it crosses the slab's faces, clipped to t >= 0
        t = np.maximum((np.array([zmin, zmax]) - ray.origin[2]) / d[2], 0.0)
        seg = ray.origin[:2] + t[:, None] * d[:2]
        pad = 1e-9 * (1.0 + float(np.max(np.abs(seg))))
        s_lo, s_hi = seg.min(axis=0) - pad, seg.max(axis=0) + pad
        cand = np.flatnonzero((lo[0] <= s_hi[0]) & (hi[0] >= s_lo[0])
                              & (lo[1] <= s_hi[1]) & (hi[1] >= s_lo[1]))
    tris = mesh.triangles[cand]
    v0 = mesh.vertices[tris[:, 0]]
    e1 = mesh.vertices[tris[:, 1]] - v0
    e2 = mesh.vertices[tris[:, 2]] - v0
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
    return ray.at(float(t[idx])), int(cand[idx])


def nearest_neighbor(query, cloud) -> tuple[int, float]:
    """Index and Euclidean distance of the closest cloud point (2D or 3D).

    Ties break to the lowest index.
    """
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise EmptyCloud("nearest_neighbor needs a nonempty (N,k) cloud")
    q = np.asarray(query, dtype=float).reshape(-1)
    if q.shape[0] != pts.shape[1]:
        raise ValueError("query dimension does not match cloud")
    d2 = np.sum((pts - q) ** 2, axis=1)
    idx = int(np.argmin(d2))
    return idx, float(np.sqrt(d2[idx]))


def project_to_plane_z(points) -> np.ndarray:
    """Drop the z component; order preserved. Accepts (N,3), returns (N,2)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return pts[:, :2].copy()


# ---------------------------------------------------------------------------
# 2D polygon primitives
# ---------------------------------------------------------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> np.ndarray:
    """Monotone-chain convex hull, CCW, collinear boundary points dropped.

    Returns the hull vertices without repeating the first at the end.
    Raises CollinearTags when the points do not span two dimensions.
    """
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    if len(pts) < 3:
        raise CollinearTags("need at least 3 distinct points")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def half(chain_pts):
        chain = []
        for p in chain_pts:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        raise CollinearTags("all points are collinear")
    return hull


def points_in_polygon(points, vertices, include_boundary=False) -> np.ndarray:
    """Even-odd membership of each point, (N,) bool; with ``include_boundary``
    points within ``EDGE_EPS`` of an edge count as inside too."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    verts = np.asarray(vertices, dtype=float).reshape(-1, 2)
    inside = np.zeros(len(pts), dtype=bool)
    n = len(verts)
    x, y = pts[:, 0], pts[:, 1]
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        if not np.any(crosses):
            continue
        t = (y[crosses] - y1) / (y2 - y1)
        hits = x[crosses] < x1 + t * (x2 - x1)
        idx = np.flatnonzero(crosses)[hits]
        inside[idx] = ~inside[idx]
    if include_boundary:
        for i in range(n):
            ab = verts[(i + 1) % n] - verts[i]
            ap = pts - verts[i]
            denom = ab[0] * ab[0] + ab[1] * ab[1]
            t = 0.0 if denom == 0.0 else np.clip(
                (ap[:, 0] * ab[0] + ap[:, 1] * ab[1]) / denom, 0.0, 1.0)
            dx, dy = ap[:, 0] - t * ab[0], ap[:, 1] - t * ab[1]
            inside |= np.sqrt(dx * dx + dy * dy) <= EDGE_EPS
    return inside


def _segments_cross(a, b, c, d) -> bool:
    """Proper intersection of open segments ab and cd."""
    d1 = _cross(c, d, a)
    d2 = _cross(c, d, b)
    d3 = _cross(a, b, c)
    d4 = _cross(a, b, d)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def polygon_is_simple(vertices) -> bool:
    verts = np.asarray(vertices, dtype=float).reshape(-1, 2)
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = verts[j], verts[(j + 1) % n]
            if _segments_cross(a, b, c, d):
                return False
    return True


def polygon_area(vertices) -> float:
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(x @ np.roll(y, -1) - y @ np.roll(x, -1)))
