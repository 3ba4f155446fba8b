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

``ray_mesh_intersect`` casts n rays of one direction at a ``TriMesh``; a
``PointGrid`` over its triangles' xy box centres (the box grid) hands each
ray the few dozen triangles under its shadow, and each row is the bits of
the one-ray cast over every triangle that passes the box test.

``nearest_neighbor`` is the one distance kernel: squared distances
``sum((cloud - q) ** 2)`` for an array of queries, ties broken to the lowest
cloud index. Up to ``NN_BLOCK`` query-cloud pairs it is the brute force over
every pair; above that a ``PointGrid`` (a uniform bucket grid) searches only
the cells near each query and gives the same bits. Callers that query one
cloud many times, or ask which points lie within a radius of some center,
build the ``PointGrid`` themselves.

2D polygons are (n, 2) vertex arrays, closed implicitly. ``points_in_polygon``
is the one membership kernel: the even-odd crossing rule over an array of
points (Hormann & Agathos, CGTA 20, 2001).

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CollinearTags, EmptyCloud, GridTooSmall

PARALLEL_EPS = 1e-9
DEGENERATE_AREA = 1e-12
EDGE_EPS = 1e-9
NN_BLOCK = 1 << 16  # query-cloud pairs per block: one query vs a 512x128 surface
GRID_QUERY_BLOCK = 4096  # PointGrid queries (or centers) searched at once
PAIR_BLOCK = 1 << 16  # ray-triangle pairs tested at once


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
    """Gridded surface points with optional per-point color and validity.

    ``points`` has shape (rows*cols, 3) in row-major grid order. ``valid``
    marks grid nodes whose depth measurement succeeded; invalid nodes keep
    their slot (the grid invariant rows*cols == len(points) always holds) but
    are skipped by triangulation and projection consumers.
    """

    rows: int
    cols: int
    points: np.ndarray
    color: np.ndarray | None = None
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
        if self.valid is not None:
            v = np.asarray(self.valid, dtype=bool)
            if v.shape != (len(pts),):
                raise ValueError("valid must be (N,)")
            object.__setattr__(self, "valid", v)

    def valid_mask(self) -> np.ndarray:
        if self.valid is None:
            return np.ones(len(self.points), dtype=bool)
        return self.valid


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
        vt = np.ascontiguousarray(self.vertices.T)  # corners as (3, T) rows
        a, b, c = (np.take(vt, k, axis=1) for k in self.triangles.T.copy())
        lo = np.minimum(np.minimum(a, b), c)
        hi = np.maximum(np.maximum(a, b), c)
        return lo[:2], hi[:2], float(lo[2].min()), float(hi[2].max())

    @cached_property
    def box_grid(self):
        """``(PointGrid over the xy box centres, largest half-extent)``; a
        box with a non-finite side holds no hit and is filed anywhere."""
        lo, hi = self.bounds[:2]
        centre, half = np.nan_to_num([(lo + hi) / 2.0, (hi - lo) / 2.0],
                                     posinf=0.0, neginf=0.0)
        return PointGrid(centre.T), float(half.max())


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


def ray_mesh_intersect(origins, mesh: TriMesh, direction):
    """``(hit (n,), points (n, 3), index (n,))``: the nearest hit
    ``origin + t * direction`` (t > 0) of each ray from the (n, 3)
    ``origins`` along the shared unit ``direction`` and its triangle, or
    NaN and -1. Moller-Trumbore (1997) on (ray, triangle) pairs, ties to
    the lowest index. Candidates: the triangles whose xy box meets the
    ray's xy shadow inside the mesh's z range, padded by 1e-9 relative
    (every triangle when |d_z| <= 1e-12), from the cells of the box grid
    under it (uniform-grid ray tracing: Fujimoto et al., "ARTS", 1986).
    """
    o = np.asarray(origins, dtype=float).reshape(-1, 3)
    d = as_vec3(direction)
    n = len(o)
    hit, index = np.zeros(n, dtype=bool), np.full(n, -1)
    points = np.full((n, 3), np.nan)
    if n == 0 or len(mesh.triangles) == 0:
        return hit, points, index
    lo, hi, zmin, zmax = mesh.bounds
    s_lo, s_hi = np.full((n, 2), -np.inf), np.full((n, 2), np.inf)
    if abs(d[2]) > 1e-12:
        # (ray, face, axis): where rays cross the slab's faces, t >= 0
        t = np.maximum((np.array([zmin, zmax]) - o[:, 2:]) / d[2], 0.0)
        seg = o[:, None, :2] + t[:, :, None] * d[:2]
        pad = 1e-9 * (1.0 + np.abs(seg).max(axis=(1, 2)))
        s_lo = seg.min(axis=1) - pad[:, None]
        s_hi = seg.max(axis=1) + pad[:, None]
    grid, reach = mesh.box_grid
    found = []
    for ray, cand in grid._box_pairs(s_lo - reach, s_hi + reach):
        keep = ((lo[:, cand] <= s_hi[ray].T)
                & (hi[:, cand] >= s_lo[ray].T)).all(axis=0)
        ray, cand = ray[keep], cand[keep]
        tris = mesh.triangles[cand]
        v0 = mesh.vertices[tris[:, 0]]
        e1 = mesh.vertices[tris[:, 1]] - v0
        e2 = mesh.vertices[tris[:, 2]] - v0
        p = np.cross(np.broadcast_to(d, e2.shape), e2)
        det = np.einsum("ij,ij->i", e1, p)
        usable = np.abs(det) > 1e-12
        inv_det = np.where(usable, 1.0 / np.where(usable, det, 1.0), 0.0)
        tvec = o[ray] - v0
        u = np.einsum("ij,ij->i", tvec, p) * inv_det
        q = np.cross(tvec, e1)
        v = np.einsum("j,ij->i", d, q) * inv_det
        t = np.einsum("ij,ij->i", e2, q) * inv_det
        ok = usable & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > 1e-12)
        found.append((ray[ok], cand[ok], t[ok]))
    ray, cand, t = (np.concatenate(col) for col in zip(*found))
    # per ray, the least t and then the lowest index: its first pair
    order = np.lexsort((cand, t, ray))
    first = order[np.flatnonzero(np.diff(ray[order], prepend=-1))]
    r = ray[first]
    hit[r], index[r] = True, cand[first]
    points[r] = o[r] + t[first][:, None] * d
    return hit, points, index


def _as_cloud(cloud) -> np.ndarray:
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise EmptyCloud("nearest_neighbor needs a nonempty (N,k) cloud")
    return pts


def _as_queries(queries, pts) -> np.ndarray:
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[1] != pts.shape[1]:
        raise ValueError("queries must be (k, d) with the cloud's dimension")
    return q


def _nearest_blocked(q, pts) -> tuple[np.ndarray, np.ndarray]:
    """Brute force over every query-cloud pair, ``NN_BLOCK`` pairs a block."""
    idx = np.empty(len(q), dtype=np.intp)
    d2 = np.empty(len(q))
    step = max(1, NN_BLOCK // len(pts))
    for lo in range(0, len(q), step):
        block = np.sum((pts - q[lo:lo + step, None, :]) ** 2, axis=-1)
        idx[lo:lo + step] = np.argmin(block, axis=1)
        d2[lo:lo + step] = block[np.arange(len(block)), idx[lo:lo + step]]
    return idx, d2


def nearest_neighbor(queries, cloud) -> tuple[np.ndarray, np.ndarray]:
    """Index and squared distance of each query's closest cloud point.

    ``queries`` is (k, d) and ``cloud`` (m, d); returns ``(idx (k,),
    d2 (k,))``. Ties break to the lowest index. Up to ``NN_BLOCK``
    query-cloud pairs (and for 1-D points) this is the brute force over
    every pair; above that it builds a ``PointGrid`` over the cloud, whose
    answers are the same bits.
    """
    pts = _as_cloud(cloud)
    q = _as_queries(queries, pts)
    if len(q) * len(pts) <= NN_BLOCK or pts.shape[1] < 2:
        return _nearest_blocked(q, pts)
    return PointGrid(pts).nearest(q)


def _expand(lo, hi) -> np.ndarray:
    """Positions ``lo[j] .. hi[j] - 1`` of every range j, concatenated."""
    counts = hi - lo
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(lo - ends + counts, counts)


def _annulus(a: int, b: int):
    """Row segments ``(dy, dx0, dx1)`` of the cells whose Chebyshev
    distance from cell (0, 0) lies in (a, b]: a full row where |dy| > a,
    else the two pieces left and right of the inner square."""
    dy = np.arange(-b, b + 1)
    inner = dy[np.abs(dy) <= a]
    return (np.concatenate([dy, inner]),
            np.concatenate([np.full(len(dy), -b), np.full(len(inner), a + 1)]),
            np.concatenate([np.where(np.abs(dy) <= a, -a - 1, b),
                            np.full(len(inner), b)]))


class PointGrid:
    """Uniform bucket grid over a point cloud for exact nearest-neighbour
    and fixed-radius queries (Bentley, Stanat & Williams, "The complexity
    of finding fixed-radius near neighbors", IPL 6(6), 1977).

    ``cloud`` is (m, d) with d >= 2; points are bucketed on their first two
    coordinates into square cells whose side comes from the bounding box
    and m: about one point per cell, never more than about m + 1 cells
    along an axis, so collinear clouds stay small, and a box of zero area
    and length (one distinct point) is one cell. Points are kept in
    row-major cell order, ascending within a cell, so a row segment of
    cells is one contiguous run of point indices. Distances are the brute
    force's own ``np.sum((p - q) ** 2, axis=-1)`` and ties go to the lowest
    index, so every answer is the bits ``nearest_neighbor``'s brute force
    gives. A cloud with a non-finite coordinate or extent is not bucketed;
    its queries run the brute force.
    """

    def __init__(self, cloud):
        pts = _as_cloud(cloud)
        if pts.shape[1] < 2:
            raise ValueError("PointGrid needs points with at least 2 coordinates")
        self.points = pts
        xy = pts[:, :2]
        self._lo, self._hi = xy.min(axis=0), xy.max(axis=0)
        width, height = self._hi - self._lo
        self._bucketed = bool(np.isfinite(pts).all()
                              and np.isfinite([width, height]).all())
        if not self._bucketed:
            return
        m = len(pts)
        cell = max(math.sqrt(width) * math.sqrt(height) / math.sqrt(m),
                   max(width, height) / m)
        self._cell = cell if cell > 0.0 else 1.0
        ix, iy = self._cell_of(xy)
        self._nx, self._ny = int(ix.max()) + 1, int(iy.max()) + 1
        key = iy * self._nx + ix
        # cell c holds points order[starts[c]:starts[c + 1]]
        self._order = np.argsort(key, kind="stable")
        self._starts = np.concatenate([[0], np.cumsum(
            np.bincount(key, minlength=self._nx * self._ny))])

    def _cell_of(self, xy):
        """Cell indices (ix, iy) of (n, 2) coordinates inside the box."""
        t = np.floor((xy - self._lo) / self._cell).astype(np.intp)
        return t[:, 0], t[:, 1]

    def _runs(self, y, x0, x1):
        """Start and stop positions in ``_order`` of the points of the cell
        row segments (y, x0..x1), clipped to the grid."""
        x0, x1 = np.maximum(x0, 0), np.minimum(x1, self._nx - 1)
        ok = (y >= 0) & (y < self._ny) & (x0 <= x1)
        first = np.where(ok, y * self._nx + x0, 0)
        return (self._starts[first],
                self._starts[np.where(ok, y * self._nx + x1 + 1, first)])

    def _box_pairs(self, b0, b1):
        """(box, point index) pairs of each (k, 2) box ``[b0, b1]`` (a NaN
        side unbounded) with the points in the cells that overlap it,
        widened by one cell on every side for the rounding of cell indices,
        in blocks of about ``PAIR_BLOCK`` pairs."""
        n = np.array([self._nx, self._ny])
        for s in range(0, len(b0), GRID_QUERY_BLOCK):
            with np.errstate(over="ignore"):
                t0 = (b0[s:s + GRID_QUERY_BLOCK] - self._lo) / self._cell
                t1 = (b1[s:s + GRID_QUERY_BLOCK] - self._lo) / self._cell
            # clipped to the grid and a cell past it; a NaN side to the far end
            lo = np.floor(np.fmin(np.fmax(t0, -2), n + 1)).astype(np.intp) - 1
            hi = np.floor(np.fmax(np.fmin(t1, n + 1), -2)).astype(np.intp) + 1
            lo, hi = np.maximum(lo, 0), np.minimum(hi, n - 1)
            rows = np.maximum(hi[:, 1] - lo[:, 1] + 1, 0)
            box = np.repeat(np.arange(len(rows)), rows)  # one per cell row
            first, stop = self._runs(_expand(lo[:, 1], lo[:, 1] + rows),
                                     lo[box, 0], hi[box, 0])
            count = stop - first
            block = (np.cumsum(count) - count) // PAIR_BLOCK
            for seg in np.split(np.arange(len(count)),
                                np.flatnonzero(np.diff(block)) + 1):
                yield (s + np.repeat(box[seg], count[seg]),
                       self._order[_expand(first[seg], stop[seg])])

    def nearest(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """``nearest_neighbor(queries, cloud)`` by a ring search.

        Each query starts at the cell of its projection q' onto the cloud's
        box and takes in the cells of ring 0, 1, 2, ... (the cells at
        Chebyshev cell distance R), a pass of one or more rings at a time,
        until the best squared distance so far is below a lower bound for
        every point not yet seen, or no cell is left. Such a point lies
        R + 1 or more rings out, so at least R cells from q' in exact
        arithmetic; cell indices are floors of rounded quotients and may
        sit one off, so the bound counts R - 1 cells. Every box point p has
        |p - q|^2 >= |p - q'|^2 + |q - q'|^2 (q' is the box point nearest
        q), which adds the query's squared distance to the box; the factor
        1 - 2^-40 covers the rounding of the squares. Queries with a
        non-finite coordinate, or whose squared distance to the box
        overflows, run the brute force.
        """
        q = _as_queries(queries, self.points)
        if not self._bucketed:
            return _nearest_blocked(q, self.points)
        off = q[:, :2] - np.clip(q[:, :2], self._lo, self._hi)
        with np.errstate(over="ignore", invalid="ignore"):
            off2 = np.sum(off ** 2, axis=-1)
        ok = np.isfinite(q).all(axis=1) & np.isfinite(off2)
        idx = np.empty(len(q), dtype=np.intp)
        d2 = np.empty(len(q))
        if not ok.all():
            idx[~ok], d2[~ok] = _nearest_blocked(q[~ok], self.points)
        rows = np.flatnonzero(ok)
        for s in range(0, len(rows), GRID_QUERY_BLOCK):
            block = rows[s:s + GRID_QUERY_BLOCK]
            idx[block], d2[block] = self._ring_search(q[block], off2[block])
        return idx, d2

    def _ring_search(self, q, off2):
        m = len(self.points)
        cx, cy = self._cell_of(np.clip(q[:, :2], self._lo, self._hi))
        # the ring from which on every cell is searched
        cover = np.maximum(np.maximum(cx, self._nx - 1 - cx),
                           np.maximum(cy, self._ny - 1 - cy))
        best_d2 = np.full(len(q), np.inf)
        best_idx = np.full(len(q), m)
        active = np.arange(len(q))
        done = -1  # rings 0..done are searched
        while active.size:
            # the bound is 0 before ring 2, so the first pass takes 0-2;
            # later passes widen the searched square by half its radius
            last = 2 if done < 0 else done + max(1, (done + 1) // 2)
            dy, dx0, dx1 = _annulus(done, last)
            x, y = cx[active, None], cy[active, None]
            lo, hi = self._runs(y + dy, x + dx0, x + dx1)
            cand = self._order[_expand(lo.ravel(), hi.ravel())]
            count = (hi - lo).sum(axis=1)  # candidates per query
            if cand.size:
                k = active[count > 0]
                count = count[count > 0]
                dd = np.sum((self.points[cand] - np.repeat(q[k], count, axis=0))
                            ** 2, axis=-1)
                # per query: the least d2, then the least index among ties
                heads = np.cumsum(count) - count
                least = np.minimum.reduceat(dd, heads)
                tied = dd == np.repeat(least, count)
                least_idx = np.minimum.reduceat(np.where(tied, cand, m), heads)
                better = (least < best_d2[k]) | ((least == best_d2[k])
                                                 & (least_idx < best_idx[k]))
                best_d2[k[better]] = least[better]
                best_idx[k[better]] = least_idx[better]
            done = last
            bound = ((max(done - 1, 0) * self._cell) ** 2
                     + off2[active]) * (1.0 - 2.0 ** -40)
            active = active[(cover[active] > done) & ~(best_d2[active] < bound)]
        return best_idx, best_d2

    def within(self, centers, radius: float) -> np.ndarray:
        """(m,) bool: the cloud points whose squared distance to some
        center, ``np.sum((center - p) ** 2, axis=-1)`` as the brute force
        ``nearest_neighbor(cloud, centers)`` computes it, is at most
        ``radius ** 2``. Each center checks the points in the cells under
        its square of half-side ``radius`` (``_box_pairs``).
        """
        c = _as_queries(_as_cloud(centers), self.points)
        r2 = radius ** 2
        if not (self._bucketed and np.isfinite(c).all()
                and math.isfinite(radius)):
            return _nearest_blocked(self.points, c)[1] <= r2
        inside, reach = np.zeros(len(self.points), dtype=bool), abs(radius)
        with np.errstate(over="ignore"):
            pairs = self._box_pairs(c[:, :2] - reach, c[:, :2] + reach)
        for who, cand in pairs:
            dd = np.sum((c[who] - self.points[cand]) ** 2, axis=-1)
            inside[cand[dd <= r2]] = True
        return inside


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
