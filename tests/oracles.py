"""Scalar oracles for the array membership kernels.

These are the one-point-at-a-time versions that ``points_in_polygon`` and
``ScenePhantom._region_index`` replaced, kept as they were so the tests can
hold the array kernels to them.
"""

import numpy as np

from resectsim.geometry import EDGE_EPS
from resectsim.spectra import HEALTHY


def point_on_segment(p, a, b, eps: float = EDGE_EPS) -> bool:
    ab = b - a
    ap = p - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return bool(np.linalg.norm(ap) <= eps)
    t = np.clip(float(ap @ ab) / denom, 0.0, 1.0)
    return bool(np.linalg.norm(ap - t * ab) <= eps)


def point_in_polygon(point, vertices, include_boundary: bool = True) -> bool:
    """Even-odd membership test; boundary points count as inside by default."""
    p = np.asarray(point, dtype=float).reshape(2)
    verts = np.asarray(vertices, dtype=float).reshape(-1, 2)
    n = len(verts)
    if include_boundary:
        for i in range(n):
            if point_on_segment(p, verts[i], verts[(i + 1) % n]):
                return True
    inside = False
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        if (y1 > p[1]) != (y2 > p[1]):
            t = (p[1] - y1) / (y2 - y1)
            if p[0] < x1 + t * (x2 - x1):
                inside = not inside
    return inside


def _region_hits(self, x: float, y: float):
    hit = None
    for reg in self.regions:
        if reg["kind"] == "disc":
            cx, cy = reg["center"]
            if (x - cx) ** 2 + (y - cy) ** 2 <= reg["radius"] ** 2:
                hit = reg
        elif point_in_polygon((x, y), reg["vertices"],
                              include_boundary=False):
            hit = reg
    return hit


def label_at(scene, x, y) -> str:
    reg = _region_hits(scene, float(x), float(y))
    return reg["label"] if reg is not None else HEALTHY


def albedo_at(scene, x, y) -> float:
    reg = _region_hits(scene, float(x), float(y))
    key = reg["label"] if reg is not None else "default"
    return float(scene.albedo.get(key, scene.albedo.get("default", 0.9)))
