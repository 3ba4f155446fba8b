"""3D tumor map construction: spot location, tags, boundary, cut targets.

The laser spot seen during a scan is located three ways (nearest surface
point to each camera's pixel hit, plus a ray trace onto the triangulated
surface) and fused by averaging. Classified tags project along z to 2D,
where the boundary is their convex hull; scan points inside or on the
boundary become cut targets.
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
    PointGrid,
    Ray,
    SurfaceCloud,
    TriMesh,
    as_vec3,
    convex_hull,
    points_in_polygon,
    ray_mesh_intersect,
)
from .sensors import PinholeCamera, project_points
from .spectra import HEALTHY, TUMOR

OUT_OF_VIEW_COLOR = (0, 0, 0)  # surface points the camera does not see

# ---------------------------------------------------------------------------
# Tags and boundary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TumorTag:
    """One classified scan point: 3D position, label, color."""

    position: np.ndarray
    label: str
    color: tuple = (0, 0, 0)

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        if self.label not in (HEALTHY, TUMOR):
            raise ValueError(f"label must be '{HEALTHY}' or '{TUMOR}'")


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


class SpotLocator:
    """Reusable spot locator: caches surface projections and the mesh.

    Locating many spots against one scan only needs the per-camera surface
    projections once; this wrapper holds them, each bucketed in a
    ``PointGrid``, and serves repeated queries.
    """

    def __init__(self, surface: SurfaceCloud,
                 camera_left: PinholeCamera, camera_right: PinholeCamera,
                 mesh: TriMesh):
        pts = surface.valid_points()
        if len(pts) == 0:
            raise NoVisibleSurface("surface cloud has no valid points")
        self.points = pts
        self.mesh = mesh
        self._views = []
        for cam in (camera_left, camera_right):
            uv, in_front = project_points(cam, pts)
            if not np.any(in_front):
                raise NoVisibleSurface(
                    "no surface point projects in front of a camera")
            visible = np.flatnonzero(in_front)
            self._views.append((PointGrid(uv[visible]), visible))

    def locate(self, pixel_left, pixel_right, laser_ray: Ray) -> SpotEstimate:
        """Locate one laser spot on the scanned surface.

        Per-camera estimate: the valid surface point whose projection lands
        nearest the observed pixel. Ray estimate: beam intersection with the
        triangulated surface. The fused position is the plain mean of the
        three.
        """
        cam_estimates = []
        for (grid, visible), pixel in zip(self._views, (pixel_left, pixel_right)):
            idx, _ = grid.nearest(np.reshape(pixel, (1, 2)))
            cam_estimates.append(self.points[visible[idx[0]]])
        hit = ray_mesh_intersect(laser_ray, self.mesh)
        if hit is None:
            raise NoRayHit("laser ray misses the surface mesh")
        return SpotEstimate.from_estimates(
            cam_estimates[0], cam_estimates[1], hit[0])


def build_tumor_tags(spots, labels, colors=None):
    """Zip scan outputs into tags, preserving scan order."""
    spots = np.asarray(spots, dtype=float).reshape(-1, 3)
    labels = list(labels)
    if len(spots) != len(labels):
        raise LengthMismatch(f"{len(spots)} spots vs {len(labels)} labels")
    if colors is None:
        colors = [(0, 0, 0)] * len(spots)
    elif len(colors) != len(spots):
        raise LengthMismatch("colors length mismatch")
    return [
        TumorTag(p, lab, tuple(int(c) for c in col))
        for p, lab, col in zip(spots, labels, colors)
    ]


def boundary_from_tags(tags) -> np.ndarray:
    """2D boundary of the tumor-labeled tags: the convex hull of their xy,
    an (n, 2) CCW vertex array with n >= 3."""
    tumor = [t.position for t in tags if t.label == TUMOR]
    if len(tumor) < 3:
        raise TooFewTumorTags(f"{len(tumor)} tumor tags; need >= 3")
    return convex_hull(np.array(tumor)[:, :2])


def select_cut_targets(tags, boundary) -> np.ndarray:
    """(k, 3) positions of the tags whose xy projection falls inside the
    ``(n, 2)`` boundary or within ``EDGE_EPS`` of an edge (hull vertices
    included), in scan order."""
    positions = np.array([t.position for t in tags], dtype=float).reshape(-1, 3)
    targets = positions[points_in_polygon(
        positions[:, :2], boundary, include_boundary=True)]
    if not len(targets):
        raise EmptyRegion("no tag projects inside the boundary")
    return targets


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
