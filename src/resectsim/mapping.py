"""3D tumor map construction: spot location, tags, boundary, cut targets.

The laser spot seen during a scan is located three ways (nearest surface
point to each camera's pixel hit, plus a ray trace onto the triangulated
surface) and fused by averaging. Classified tags project along z to 2D,
where the boundary is their convex hull; scan points inside or on the
boundary become cut targets.

The boundary assumes a convex tumor outline. A shrink factor above zero
tightens the hull by subdividing long edges toward interior tags; that
heuristic is this package's own definition and defaults to off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyRegion,
    LengthMismatch,
    NoCalibration,
    NoRayHit,
    NoVisibleSurface,
    TooFewTumorTags,
)
from .geometry import (
    Ray,
    SurfaceCloud,
    TriMesh,
    as_vec3,
    convex_hull,
    nearest_neighbor,
    points_in_polygon,
    polygon_is_simple,
    project_to_plane_z,
    ray_mesh_intersect,
    triangulate_grid,
)
from .sensors import PinholeCamera, project_points
from .spectra import HEALTHY, TUMOR

OUT_OF_VIEW_COLOR = (0, 0, 0)  # surface points the camera does not see

# ---------------------------------------------------------------------------
# Tags and boundary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TumorTag:
    """One classified scan point: 3D position, label, color, spectrum id."""

    position: np.ndarray
    label: str
    color: tuple = (0, 0, 0)
    spectrum_id: int = -1

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        if self.label not in (HEALTHY, TUMOR):
            raise ValueError(f"label must be '{HEALTHY}' or '{TUMOR}'")


@dataclass(frozen=True)
class BoundaryPolygon:
    """Closed 2D outline of the tumor region (closure implied, CCW)."""

    vertices: np.ndarray
    source_indices: tuple
    shrink: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "vertices", v)
        if len(v) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if not polygon_is_simple(v):
            raise ValueError("polygon must be simple")
        if not (0.0 <= self.shrink <= 1.0):
            raise ValueError("shrink factor must lie in [0, 1]")


@dataclass(frozen=True)
class SpotEstimate:
    """Laser spot located by both cameras and a surface ray trace."""

    from_left_camera: np.ndarray
    from_right_camera: np.ndarray
    from_ray_trace: np.ndarray
    fused: np.ndarray
    spread: float

    @classmethod
    def from_estimates(cls, left, right, ray) -> "SpotEstimate":
        left, right, ray = as_vec3(left), as_vec3(right), as_vec3(ray)
        fused = (left + right + ray) / 3.0
        spread = float(max(
            np.linalg.norm(left - right),
            np.linalg.norm(left - ray),
            np.linalg.norm(right - ray),
        ))
        return cls(left, right, ray, fused, spread)


@dataclass(frozen=True)
class CutRegion:
    """Tags selected for resection plus the boundary that selected them."""

    member_indices: tuple
    boundary: BoundaryPolygon
    targets: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "targets",
            np.asarray(self.targets, dtype=float).reshape(-1, 3))
        if len(self.member_indices) != len(self.targets):
            raise ValueError("member indices and targets must align")


class SpotLocator:
    """Reusable spot locator: caches surface projections and the mesh.

    Locating many spots against one scan only needs the per-camera surface
    projections once; this wrapper holds them and serves repeated queries.
    """

    def __init__(self, surface: SurfaceCloud,
                 camera_left: PinholeCamera, camera_right: PinholeCamera,
                 mesh: TriMesh | None = None):
        pts = surface.valid_points()
        if len(pts) == 0:
            raise NoVisibleSurface("surface cloud has no valid points")
        self.points = pts
        self.mesh = triangulate_grid(surface) if mesh is None else mesh
        self._views = []
        for cam in (camera_left, camera_right):
            uv, in_front = project_points(cam, pts)
            if not np.any(in_front):
                raise NoVisibleSurface(
                    "no surface point projects in front of a camera")
            visible = np.flatnonzero(in_front)
            self._views.append((uv[visible], visible))

    def locate(self, pixel_left, pixel_right, laser_ray: Ray) -> SpotEstimate:
        """Locate one laser spot on the scanned surface.

        Per-camera estimate: the valid surface point whose projection lands
        nearest the observed pixel. Ray estimate: beam intersection with the
        triangulated surface. The fused position is the plain mean of the
        three.
        """
        cam_estimates = []
        for (uv, visible), pixel in zip(self._views, (pixel_left, pixel_right)):
            idx, _ = nearest_neighbor(np.asarray(pixel, dtype=float), uv)
            cam_estimates.append(self.points[visible[idx]])
        hit = ray_mesh_intersect(laser_ray, self.mesh)
        if hit is None:
            raise NoRayHit("laser ray misses the surface mesh")
        return SpotEstimate.from_estimates(
            cam_estimates[0], cam_estimates[1], hit[0])


def build_tumor_tags(spots, labels, colors=None, spectrum_ids=None):
    """Zip scan outputs into tags, preserving scan order."""
    spots = np.asarray(spots, dtype=float).reshape(-1, 3)
    labels = list(labels)
    if len(spots) != len(labels):
        raise LengthMismatch(f"{len(spots)} spots vs {len(labels)} labels")
    if colors is None:
        colors = [(0, 0, 0)] * len(spots)
    elif len(colors) != len(spots):
        raise LengthMismatch("colors length mismatch")
    if spectrum_ids is None:
        spectrum_ids = list(range(len(spots)))
    elif len(spectrum_ids) != len(spots):
        raise LengthMismatch("spectrum id length mismatch")
    return [
        TumorTag(p, lab, tuple(int(c) for c in col), int(sid))
        for p, lab, col, sid in zip(spots, labels, colors, spectrum_ids)
    ]


def boundary_from_tags(tags, shrink: float = 0.0) -> BoundaryPolygon:
    """2D boundary of the tumor-labeled tags (convex hull at shrink = 0).

    For shrink > 0, hull edges longer than (1 - shrink) times the longest
    initial edge are subdivided toward the interior tumor tag nearest the
    edge midpoint, while the polygon stays simple. This concave refinement
    is a package-specific heuristic.
    """
    tumor_idx = [k for k, t in enumerate(tags) if t.label == TUMOR]
    if len(tumor_idx) < 3:
        raise TooFewTumorTags(f"{len(tumor_idx)} tumor tags; need >= 3")
    proj = project_to_plane_z([tags[k].position for k in tumor_idx])
    hull = convex_hull(proj)

    def sources(vertices):
        out = []
        for v in vertices:
            match = np.flatnonzero(np.all(np.isclose(proj, v, atol=0.0), axis=1))
            out.append(tumor_idx[int(match[0])])
        return tuple(out)

    if shrink <= 0.0:
        return BoundaryPolygon(hull, sources(hull), 0.0)

    edges = np.linalg.norm(np.diff(np.vstack([hull, hull[:1]]), axis=0), axis=1)
    limit = (1.0 - shrink) * float(edges.max())
    poly = [tuple(v) for v in hull]
    used = {tuple(v) for v in poly}
    candidates = [tuple(p) for p in proj if tuple(p) not in used]

    for _ in range(10 * len(proj)):
        n = len(poly)
        lengths = [
            np.hypot(poly[(i + 1) % n][0] - poly[i][0],
                     poly[(i + 1) % n][1] - poly[i][1])
            for i in range(n)
        ]
        order = sorted(range(n), key=lambda i: -lengths[i])
        inserted = False
        for i in order:
            if lengths[i] <= limit:
                break
            a = np.array(poly[i])
            b = np.array(poly[(i + 1) % n])
            mid = (a + b) / 2.0
            ranked = sorted(
                (c for c in candidates if c not in used),
                key=lambda c: (c[0] - mid[0]) ** 2 + (c[1] - mid[1]) ** 2,
            )
            for c in ranked:
                trial = poly[:i + 1] + [c] + poly[i + 1:]
                if polygon_is_simple(np.array(trial)):
                    poly = trial
                    used.add(c)
                    inserted = True
                    break
            if inserted:
                break
        if not inserted:
            break
    return BoundaryPolygon(np.array(poly), sources(np.array(poly)), shrink)


def select_cut_targets(tags, boundary: BoundaryPolygon) -> CutRegion:
    """Tags whose xy projection falls inside the boundary or within
    ``EDGE_EPS`` of an edge (hull vertices included), in scan order."""
    positions = np.array([t.position for t in tags], dtype=float).reshape(-1, 3)
    members = np.flatnonzero(points_in_polygon(
        positions[:, :2], boundary.vertices, include_boundary=True))
    if not len(members):
        raise EmptyRegion("no tag projects inside the boundary")
    return CutRegion(tuple(members.tolist()), boundary, positions[members])


def colorize_surface(surface: SurfaceCloud, camera: PinholeCamera, image):
    """Attach per-point colors by nearest-pixel lookup.

    Returns (cloud_with_color, in_view) where in_view marks points that
    projected inside the image; the rest carry ``OUT_OF_VIEW_COLOR``.
    """
    if camera is None:
        raise NoCalibration("colorize_surface needs a calibrated camera")
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("image must be (H, W, 3)")
    h, w = img.shape[:2]
    uv, in_front = project_points(camera, surface.points)
    color = np.tile(np.asarray(OUT_OF_VIEW_COLOR, dtype=np.uint8), (len(surface.points), 1))
    in_view = np.zeros(len(surface.points), dtype=bool)
    ok = in_front & surface.valid_mask()
    cols = np.round(uv[ok, 0]).astype(int)
    rows = np.round(uv[ok, 1]).astype(int)
    inside = (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    sel = np.flatnonzero(ok)[inside]
    color[sel] = img[rows[inside], cols[inside]]
    in_view[sel] = True
    cloud = SurfaceCloud(surface.rows, surface.cols, surface.points,
                         color=color, label=surface.label,
                         valid=surface.valid)
    return cloud, in_view
