"""3D tumor map construction: spot location, boundary, cut targets.

A scan's laser spots are located as arrays, three ways (the nearest surface
point to each camera's pixel hit, one query a camera, plus one ray trace
onto the triangulated surface, which leaves a spot it misses unmapped) and
fused by averaging. Spots are (n, 3) arrays with (n,) tumor flags; the tumor
spots project along z to 2D, where the boundary is their convex hull, and
spots inside or on it become cut targets.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    EmptyRegion,
    NoCalibration,
    NoVisibleSurface,
    TooFewTumorTags,
)
from .geometry import (
    PointGrid,
    SurfaceCloud,
    TriMesh,
    convex_hull,
    points_in_polygon,
    ray_mesh_intersect,
)
from .sensors import PinholeCamera, project_points

OUT_OF_VIEW_COLOR = (0, 0, 0)  # surface points the camera does not see

# ---------------------------------------------------------------------------
# Spots and boundary
# ---------------------------------------------------------------------------


class SpotLocator:
    """A scan's valid surface points, their projections into each camera
    (bucketed in a ``PointGrid``) and its mesh, to locate spots against."""

    def __init__(self, surface: SurfaceCloud,
                 camera_left: PinholeCamera, camera_right: PinholeCamera,
                 mesh: TriMesh):
        pts = surface.points[surface.valid_mask()]
        if len(pts) == 0:
            raise NoVisibleSurface("surface cloud has no valid points")
        self.points, self.mesh, self._views = pts, mesh, []
        for cam in (camera_left, camera_right):
            uv, in_front = project_points(cam, pts)
            if not np.any(in_front):
                raise NoVisibleSurface(
                    "no surface point projects in front of a camera")
            visible = np.flatnonzero(in_front)
            self._views.append((PointGrid(uv[visible]), visible))

    def locate(self, pixels_left, pixels_right, origins, direction):
        """Locate n spots seen at the (n, 2) pixels and fired from the
        (n, 3) ``origins`` along the unit ``direction``: ``(mapped, spots)``,
        the indices of the spots whose beam hits the mesh and their (m, 3)
        fused positions, the mean of the beam's hit and each camera's
        valid point projecting nearest its pixel."""
        hit, points, _ = ray_mesh_intersect(origins, self.mesh, direction)
        mapped = np.flatnonzero(hit)
        cams = []
        for (grid, visible), pixels in zip(self._views, (pixels_left, pixels_right)):
            idx, _ = grid.nearest(np.reshape(pixels, (-1, 2))[mapped])
            cams.append(self.points[visible[idx]])
        return mapped, (cams[0] + cams[1] + points[mapped]) / 3.0


def boundary_from_tags(spots, tumor) -> np.ndarray:
    """2D boundary of the tumor spots: the convex hull of the xy of the
    (n, 3) ``spots`` flagged in the (n,) bool ``tumor``, an (m, 2) CCW
    vertex array with m >= 3."""
    tumor_xy = spots[tumor, :2]
    if len(tumor_xy) < 3:
        raise TooFewTumorTags(f"{len(tumor_xy)} tumor tags; need >= 3")
    return convex_hull(tumor_xy)


def select_cut_targets(spots, boundary) -> np.ndarray:
    """(k, 3) rows of the (n, 3) ``spots`` whose xy projection falls inside
    the ``(m, 2)`` boundary or within ``EDGE_EPS`` of an edge (hull vertices
    included), in scan order."""
    targets = spots[points_in_polygon(spots[:, :2], boundary,
                                      include_boundary=True)]
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
                         color=color, valid=surface.valid)
    return cloud, in_view
