"""Region comparison metrics and the two-sample significance test.

Regions are 2D projections along z, given as (n, 2) vertex arrays (closure
implied). Area-based quantities (IoU, undercut, overcut) are computed on a
common raster covering both regions; the default 0.02 mm pitch makes raster
error negligible at the millimeter scales evaluated here. Each mask is a
scanline even-odd fill with ``points_in_polygon``'s crossing predicate, so
a pixel is inside exactly when its centre is. Edge error is
directional: every boundary sample of the first region is matched to its
nearest neighbor on the second.

Undercut is the fraction of the reference ("true") region left uncovered;
overcut is the area cut outside the reference, expressed as a fraction of the
reference area (it may exceed 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSamples,
    EmptyBoundary,
    EmptyInput,
    EmptyTrueRegion,
    EmptyUnion,
    RasterTooLarge,
)
from .geometry import nearest_neighbor

DEFAULT_PITCH = 0.02  # mm
# the default +-100 mm domain at the default pitch; each mask takes one
# byte per cell
MAX_RASTER_CELLS = 10**8
BOUNDARY_SPACING = 0.05  # mm between edge-error samples


def _raster_on(polygon, x0, y0, nx, ny, pitch) -> np.ndarray:
    """Even-odd (ny, nx) mask of the pixel centres inside ``polygon``.

    A scanline fill with ``points_in_polygon``'s crossing predicate: each
    (row, edge) pair with ``(y1 > y) != (y2 > y)`` gets its crossing
    ``xc`` once, in the same operation order, and toggles the pixels with
    ``xs < xc``, the first ``searchsorted(xs, xc, "left")`` of the row
    because ``xs`` is nondecreasing. A reverse running XOR of the toggles
    gives each pixel's parity in place, about one byte per cell.
    """
    xs = x0 + (np.arange(nx) + 0.5) * pitch
    ys = y0 + (np.arange(ny) + 0.5) * pitch
    x1, y1 = polygon[:, 0], polygon[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    rows, edges = np.nonzero((y1 > ys[:, None]) != (y2 > ys[:, None]))
    t = (ys[rows] - y1[edges]) / (y2[edges] - y1[edges])
    xc = x1[edges] + t * (x2[edges] - x1[edges])
    count = np.searchsorted(xs, xc, side="left")
    toggles = np.zeros((ny, nx), dtype=np.uint8)
    hit = count > 0
    # the crossing flips pixels 0 .. count-1: mark the last, XOR leftwards
    np.bitwise_xor.at(toggles, (rows[hit], count[hit] - 1), 1)
    rev = toggles[:, ::-1]
    np.bitwise_xor.accumulate(rev, axis=1, out=rev)
    return toggles.view(bool)


def rasterize_pair(a, b, pitch: float = DEFAULT_PITCH):
    """Both vertex arrays on one common grid spanning their joint bounding
    box; returns the two (ny, nx) masks.

    Raises ``RasterTooLarge``, before allocating anything, when the grid
    would hold more than ``MAX_RASTER_CELLS`` cells.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    lo = np.minimum(a.min(axis=0), b.min(axis=0)) - 2 * pitch
    hi = np.maximum(a.max(axis=0), b.max(axis=0)) + 2 * pitch
    nx, ny = np.ceil((hi - lo) / pitch)
    if not nx * ny <= MAX_RASTER_CELLS:
        raise RasterTooLarge(
            f"a {nx:.0f} x {ny:.0f} raster at pitch {pitch} mm exceeds "
            f"{MAX_RASTER_CELLS} cells")
    nx, ny = int(nx), int(ny)
    return (_raster_on(a, lo[0], lo[1], nx, ny, pitch),
            _raster_on(b, lo[0], lo[1], nx, ny, pitch))


def _iou(ma: np.ndarray, mb: np.ndarray) -> float:
    union = int(np.sum(ma | mb))
    if union == 0:
        raise EmptyUnion("both regions rasterize to nothing")
    return float(np.sum(ma & mb)) / union


def _true_area(mt: np.ndarray) -> int:
    t_area = int(mt.sum())
    if t_area == 0:
        raise EmptyTrueRegion("reference region rasterizes to nothing")
    return t_area


def _undercut(mt: np.ndarray, ma: np.ndarray) -> float:
    return float(np.sum(mt & ~ma)) / _true_area(mt)


def _overcut(mt: np.ndarray, ma: np.ndarray) -> float:
    return float(np.sum(ma & ~mt)) / _true_area(mt)


def region_iou(a, b, pitch: float = DEFAULT_PITCH) -> float:
    return _iou(*rasterize_pair(a, b, pitch))


def undercut_ratio(true_r, actual_r, pitch: float = DEFAULT_PITCH) -> float:
    """Fraction of the reference region that was not covered."""
    return _undercut(*rasterize_pair(true_r, actual_r, pitch))


def overcut_ratio(true_r, actual_r, pitch: float = DEFAULT_PITCH) -> float:
    """Area covered outside the reference region, over the reference area."""
    return _overcut(*rasterize_pair(true_r, actual_r, pitch))


def sample_polygon_boundary(vertices,
                            spacing: float = BOUNDARY_SPACING) -> np.ndarray:
    """Points along the polygon outline at most ``spacing`` apart: each
    edge cut into ``max(1, ceil(length / spacing))`` equal steps."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    edges = np.roll(v, -1, axis=0) - v
    lengths = np.sqrt(np.vecdot(edges, edges))  # np.linalg.norm's bits
    steps = np.maximum(1, np.ceil(lengths / spacing).astype(np.int64))
    k = np.arange(steps.sum()) - np.repeat(np.cumsum(steps) - steps, steps)
    t = k / np.repeat(steps, steps)
    return np.repeat(v, steps, axis=0) \
        + t[:, None] * np.repeat(edges, steps, axis=0)


def disc_polygon(center, radius: float) -> np.ndarray:
    """Regular 360-gon approximation of a disc (CCW)."""
    ang = 2 * np.pi * np.arange(360) / 360
    return np.column_stack([
        center[0] + radius * np.cos(ang),
        center[1] + radius * np.sin(ang),
    ])


def edge_error(a_samples, b_samples) -> np.ndarray:
    """Distance from every sample of a to its nearest sample of b."""
    a = np.asarray(a_samples, dtype=float).reshape(-1, 2)
    b = np.asarray(b_samples, dtype=float).reshape(-1, 2)
    if len(a) < 3 or len(b) < 3:
        raise EmptyBoundary("boundaries need at least 3 samples each")
    return np.sqrt(nearest_neighbor(a, b)[1])


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def two_sample_t_test(x, y):
    """Welch's unequal-variance t-test, two-sided.

    Returns (t, dof, p) with p from the Student t distribution function
    at the Welch-Satterthwaite degrees of freedom.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if len(x) < 2 or len(y) < 2:
        raise DegenerateSamples("each sample needs at least 2 values")
    vx = float(np.var(x, ddof=1))
    vy = float(np.var(y, ddof=1))
    if vx == 0.0 or vy == 0.0:
        raise DegenerateSamples("zero variance sample")
    nx, ny = len(x), len(y)
    se2 = vx / nx + vy / ny
    t = (float(np.mean(x)) - float(np.mean(y))) / math.sqrt(se2)
    dof = se2**2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
    from scipy.special import stdtr  # loaded on use: it takes about 0.25 s

    return t, dof, float(2.0 * stdtr(dof, -abs(t)))


def summarize(errors):
    """(mean, sample std, RMSE) of an error list; std is 0 for one value."""
    arr = np.asarray(errors, dtype=float).reshape(-1)
    if len(arr) == 0:
        raise EmptyInput("summarize needs at least one value")
    std = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), std, float(np.sqrt(np.mean(arr**2)))


@dataclass(frozen=True)
class RegionReport:
    """One region comparison: edge-error stats plus area ratios."""

    kind: str  # "system" | "algorithm" | "calibration"
    edge_errors: tuple
    mean: float
    std: float
    rmse: float
    iou: float
    undercut: float
    overcut: float

    def as_dict(self):
        return {
            "kind": self.kind,
            "mean": self.mean,
            "std": self.std,
            "rmse": self.rmse,
            "iou": self.iou,
            "undercut": self.undercut,
            "overcut": self.overcut,
            "edge_errors": list(self.edge_errors),
        }


def compare_regions(kind: str, reference, achieved,
                    pitch: float = DEFAULT_PITCH) -> RegionReport:
    """Full comparison: directional edge error plus IoU/undercut/overcut.

    Edge errors run from the achieved outline, sampled every
    ``BOUNDARY_SPACING`` mm, to the reference one. The raster comes first,
    so a grid over ``MAX_RASTER_CELLS`` fails before the outlines are
    sampled.
    """
    m_ref, m_ach = rasterize_pair(reference, achieved, pitch)
    errs = edge_error(
        sample_polygon_boundary(achieved, BOUNDARY_SPACING),
        sample_polygon_boundary(reference, BOUNDARY_SPACING),
    )
    mean, std, rmse = summarize(errs)
    return RegionReport(
        kind=kind,
        edge_errors=tuple(float(e) for e in errs),
        mean=mean, std=std, rmse=rmse,
        iou=_iou(m_ref, m_ach),
        undercut=_undercut(m_ref, m_ach),
        overcut=_overcut(m_ref, m_ach),
    )
