"""Region comparison metrics and the two-sample significance test.

Regions are 2D (projections along z): either simple polygons or rasterized
masks. Area-based quantities (IoU, undercut, overcut) are computed on a
common raster covering both regions; the default 0.02 mm pitch makes raster
error negligible at the millimeter scales evaluated here. Edge error is
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
from scipy.special import stdtr

from .errors import (
    DegenerateSamples,
    EmptyBoundary,
    EmptyInput,
    EmptyTrueRegion,
    EmptyUnion,
)
from .geometry import points_in_polygon

DEFAULT_PITCH = 0.02  # mm
BOUNDARY_SPACING = 0.05  # mm between edge-error samples


@dataclass(frozen=True)
class Region2D:
    """Planar region as a simple polygon or a boolean mask with a pitch."""

    polygon: np.ndarray | None = None
    mask: np.ndarray | None = None
    pitch: float | None = None
    origin: tuple[float, float] = (0.0, 0.0)
    role: str = ""

    @classmethod
    def from_polygon(cls, vertices, role: str = "") -> "Region2D":
        v = np.asarray(vertices, dtype=float).reshape(-1, 2)
        if len(v) < 3:
            raise ValueError("polygon region needs at least 3 vertices")
        return cls(polygon=v, role=role)

    @classmethod
    def from_mask(cls, mask, pitch: float, origin=(0.0, 0.0),
                  role: str = "") -> "Region2D":
        m = np.asarray(mask, dtype=bool)
        if m.ndim != 2:
            raise ValueError("mask must be 2D")
        if pitch <= 0:
            raise ValueError("mask pitch must be positive")
        return cls(mask=m, pitch=float(pitch),
                   origin=(float(origin[0]), float(origin[1])), role=role)

    def bounds(self):
        if self.polygon is not None:
            lo = self.polygon.min(axis=0)
            hi = self.polygon.max(axis=0)
        else:
            ny, nx = self.mask.shape
            lo = np.array(self.origin)
            hi = lo + np.array([nx * self.pitch, ny * self.pitch])
        return lo, hi


def _raster_on(region: Region2D, x0, y0, nx, ny, pitch) -> np.ndarray:
    xs = x0 + (np.arange(nx) + 0.5) * pitch
    ys = y0 + (np.arange(ny) + 0.5) * pitch
    gx, gy = np.meshgrid(xs, ys)
    if region.polygon is not None:
        flat = points_in_polygon(np.column_stack([gx.ravel(), gy.ravel()]),
                                 region.polygon)
        return flat.reshape(ny, nx)
    ox, oy = region.origin
    ci = np.floor((gx - ox) / region.pitch).astype(int)
    cj = np.floor((gy - oy) / region.pitch).astype(int)
    src_ny, src_nx = region.mask.shape
    ok = (ci >= 0) & (ci < src_nx) & (cj >= 0) & (cj < src_ny)
    out = np.zeros((ny, nx), dtype=bool)
    out[ok] = region.mask[cj[ok], ci[ok]]
    return out


def rasterize_pair(a: Region2D, b: Region2D, pitch: float = DEFAULT_PITCH):
    """Both regions on one common grid spanning their joint bounding box."""
    lo_a, hi_a = a.bounds()
    lo_b, hi_b = b.bounds()
    lo = np.minimum(lo_a, lo_b) - 2 * pitch
    hi = np.maximum(hi_a, hi_b) + 2 * pitch
    nx = int(np.ceil((hi[0] - lo[0]) / pitch))
    ny = int(np.ceil((hi[1] - lo[1]) / pitch))
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


def region_iou(a: Region2D, b: Region2D, pitch: float = DEFAULT_PITCH) -> float:
    return _iou(*rasterize_pair(a, b, pitch))


def undercut_ratio(true_r: Region2D, actual_r: Region2D,
                   pitch: float = DEFAULT_PITCH) -> float:
    """Fraction of the reference region that was not covered."""
    return _undercut(*rasterize_pair(true_r, actual_r, pitch))


def overcut_ratio(true_r: Region2D, actual_r: Region2D,
                  pitch: float = DEFAULT_PITCH) -> float:
    """Area covered outside the reference region, over the reference area."""
    return _overcut(*rasterize_pair(true_r, actual_r, pitch))


def sample_polygon_boundary(vertices,
                            spacing: float = BOUNDARY_SPACING) -> np.ndarray:
    """Points along the polygon outline at most ``spacing`` apart."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    out = []
    n = len(v)
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        length = float(np.linalg.norm(b - a))
        steps = max(1, int(np.ceil(length / spacing)))
        for t in np.arange(steps) / steps:
            out.append(a + t * (b - a))
    return np.array(out)


def disc_polygon(center, radius: float, n: int = 360) -> np.ndarray:
    """Regular polygon approximation of a disc (CCW)."""
    ang = 2 * np.pi * np.arange(n) / n
    return np.column_stack([
        center[0] + radius * np.cos(ang),
        center[1] + radius * np.sin(ang),
    ])


def edge_error(a_samples, b_samples):
    """Distance from every sample of a to its nearest sample of b, plus RMSE."""
    a = np.asarray(a_samples, dtype=float).reshape(-1, 2)
    b = np.asarray(b_samples, dtype=float).reshape(-1, 2)
    if len(a) < 3 or len(b) < 3:
        raise EmptyBoundary("boundaries need at least 3 samples each")
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    dists = np.sqrt(d2.min(axis=1))
    return dists, float(np.sqrt(np.mean(dists**2)))


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


def compare_regions(kind: str, reference: Region2D, achieved: Region2D,
                    pitch: float = DEFAULT_PITCH) -> RegionReport:
    """Full comparison: directional edge error plus IoU/undercut/overcut.

    Edge errors run from the achieved outline, sampled every
    ``BOUNDARY_SPACING`` mm, to the reference one.
    """
    if reference.polygon is None or achieved.polygon is None:
        raise ValueError("edge error needs polygon regions")
    errs, rmse = edge_error(
        sample_polygon_boundary(achieved.polygon, BOUNDARY_SPACING),
        sample_polygon_boundary(reference.polygon, BOUNDARY_SPACING),
    )
    mean, std, rmse = summarize(errs)
    m_ref, m_ach = rasterize_pair(reference, achieved, pitch)
    return RegionReport(
        kind=kind,
        edge_errors=tuple(float(e) for e in errs),
        mean=mean, std=std, rmse=rmse,
        iou=_iou(m_ref, m_ach),
        undercut=_undercut(m_ref, m_ach),
        overcut=_overcut(m_ref, m_ach),
    )
