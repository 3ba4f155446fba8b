"""Output checks for benchmark trials, computed without resectsim.

Each check reads artifacts the way any consumer of the files would (JSON,
CSV and ASCII PLY parsed here with numpy) and recomputes the property it
asserts from first principles: convexity and containment from cross
products, plan landing points from the laser model written to
``laser_calibration.json``, and the algorithm IoU by exact convex
clipping. Nothing is compared with a stored copy of earlier output.

Every check returns a list of failure messages; an empty list means the
artifact passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# tolerance for points written with "%.9g" (PLY) and compared with exact
# floats written with repr (CSV, JSON)
PLY_TOL = 1e-6
PLAN_TOL = 1e-6  # mm
NOISELESS_TOL = 1e-6  # mm


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def read_json(path):
    return json.loads(Path(path).read_text())


def read_ply(path):
    """ASCII PLY vertex table as {property: column array}."""
    text = Path(path).read_text()
    header, _, body = text.partition("end_header\n")
    props = []
    n = 0
    for line in header.splitlines():
        if line.startswith("element vertex"):
            n = int(line.split()[-1])
        elif line.startswith("property"):
            props.append(line.split()[-1])
    values = np.array(body.split(), dtype=float)
    if values.size != n * len(props):
        raise ValueError(f"{path}: {values.size} values for {n} x {len(props)}")
    table = values.reshape(n, len(props))
    return {p: table[:, k] for k, p in enumerate(props)}


def read_plan(path):
    """Cut plan CSV as (betas (N,2), targets (N,3))."""
    with Path(path).open(newline="") as f:
        rows = list(csv.DictReader(f))
    betas = np.array([[float(r["beta_x"]), float(r["beta_y"])] for r in rows])
    targets = np.array([[float(r["px"]), float(r["py"]), float(r["pz"])]
                        for r in rows])
    return betas.reshape(-1, 2), targets.reshape(-1, 3)


def read_tags(path):
    """Tag cloud PLY as (xyz (N,3), label (N,) int)."""
    t = read_ply(path)
    xyz = np.column_stack([t["x"], t["y"], t["z"]])
    return xyz, t["label"].astype(int)


# ---------------------------------------------------------------------------
# Planar geometry
# ---------------------------------------------------------------------------


def polygon_area(poly) -> float:
    """Signed shoelace area (positive for counter-clockwise)."""
    p = np.asarray(poly, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def edge_turns(poly) -> np.ndarray:
    """Cross product of each pair of consecutive edges (one per vertex)."""
    p = np.asarray(poly, dtype=float)
    e = np.roll(p, -1, axis=0) - p
    e_next = np.roll(e, -1, axis=0)
    return e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]


def signed_inside_distance(points, poly) -> np.ndarray:
    """Distance inside a CCW convex polygon (negative outside).

    The minimum over edges of the signed distance to the edge's line; for a
    point outside it is a lower bound on how far outside it lies.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    p = np.asarray(poly, dtype=float)
    a = p
    e = np.roll(p, -1, axis=0) - p
    length = np.hypot(e[:, 0], e[:, 1])
    rel = pts[:, None, :] - a[None, :, :]
    cross = e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0]
    return (cross / length[None, :]).min(axis=1)


def clip_convex(subject, clip) -> np.ndarray:
    """Sutherland-Hodgman: part of ``subject`` inside the CCW convex ``clip``."""
    out = [np.asarray(v, dtype=float) for v in subject]
    c = np.asarray(clip, dtype=float)
    for i in range(len(c)):
        a, b = c[i], c[(i + 1) % len(c)]
        e = b - a

        def side(v):
            return e[0] * (v[1] - a[1]) - e[1] * (v[0] - a[0])

        src, out = out, []
        for j in range(len(src)):
            cur, nxt = src[j], src[(j + 1) % len(src)]
            sc, sn = side(cur), side(nxt)
            if sc >= 0:
                out.append(cur)
            if (sc >= 0) != (sn >= 0):
                out.append(cur + (sc / (sc - sn)) * (nxt - cur))
        if not out:
            return np.zeros((0, 2))
    return np.array(out)


def perimeter(poly) -> float:
    p = np.asarray(poly, dtype=float)
    return float(np.hypot(*(np.roll(p, -1, axis=0) - p).T).sum())


def disc_polygon(center, radius: float, n: int = 360) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([center[0] + radius * np.cos(ang),
                            center[1] + radius * np.sin(ang)])


def raster_iou_bound(a, b, pitch: float) -> float:
    """Largest IoU error a cell-center raster at ``pitch`` can make.

    A point is misclassified only when its cell center lies on the other
    side of an outline, so it lies within pitch/sqrt(2) of that outline.
    For a convex region of perimeter P that band has area at most
    sqrt(2) * pitch * P + pi * pitch**2 / 2. Intersection and union areas
    each move by at most E, the sum over both regions, so the IoU moves
    by at most 2 E / (union - E).
    """
    def band(poly):
        return math.sqrt(2.0) * pitch * perimeter(poly) + math.pi * pitch**2 / 2

    inter = abs(polygon_area(clip_convex(a, b)))
    union = abs(polygon_area(a)) + abs(polygon_area(b)) - inter
    e = band(a) + band(b)
    return 2.0 * e / (union - e)


def exact_convex_iou(a, b) -> float:
    inter = abs(polygon_area(clip_convex(a, b)))
    union = abs(polygon_area(a)) + abs(polygon_area(b)) - inter
    return inter / union


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_surface_heights(ply_path, plane_z: float, axial_pitch: float):
    t = read_ply(ply_path)
    if len(t["z"]) == 0:
        return [f"{ply_path}: no surface points"]
    worst = float(np.max(np.abs(t["z"] - plane_z)))
    if worst > axial_pitch:
        return [f"surface height off the plane z={plane_z} by {worst:.4g} mm "
                f"(> one axial pitch {axial_pitch})"]
    return []


def check_volume(sidecar_path, raw_path, block_bytes: int = 1 << 22):
    """Raw volume holds the sidecar's shape and values in [0, 1].

    Reads in fixed blocks so the check adds little to peak memory.
    """
    meta = read_json(sidecar_path)
    shape = meta["shape"]
    expected = 4 * int(np.prod(shape))
    size = Path(raw_path).stat().st_size
    if meta.get("dtype") != "float32-le" or size != expected:
        return [f"volume is {size} bytes, sidecar says float32 {shape}"]
    lo, hi = np.inf, -np.inf
    buf = bytearray(block_bytes)
    with Path(raw_path).open("rb") as f:
        while True:
            n = f.readinto(buf)
            if not n:
                break
            block = np.frombuffer(memoryview(buf)[:n], dtype="<f4")
            lo = min(lo, float(block.min()))
            hi = max(hi, float(block.max()))
    if not (lo >= 0.0 and hi <= 1.0):
        return [f"volume values span [{lo}, {hi}], outside [0, 1]"]
    return []


def check_boundary(vertices, tag_xy, tag_label):
    """Convex and CCW, vertices are tumor tags, every tumor tag inside."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    fails = []
    if len(v) < 3:
        return [f"boundary has {len(v)} vertices"]
    if polygon_area(v) <= 0.0:
        fails.append("boundary is not counter-clockwise")
    turns = edge_turns(v)
    if np.any(turns <= 0.0):
        fails.append(f"boundary is not strictly convex at "
                     f"{int(np.sum(turns <= 0.0))} vertices")
    tumor = np.asarray(tag_xy, dtype=float)[np.asarray(tag_label) == 1]
    if len(tumor) == 0:
        return fails + ["no tumor tags"]
    d = np.sqrt(((v[:, None, :] - tumor[None, :, :]) ** 2).sum(axis=2))
    if np.any(d.min(axis=1) > PLY_TOL):
        fails.append("a boundary vertex is not a tumor tag")
    if np.any(signed_inside_distance(tumor, v) < -PLY_TOL):
        fails.append("a tumor tag lies outside the boundary")
    return fails


def check_cut_targets(targets, tag_xyz, vertices):
    """Cut targets are exactly the tags inside or on the boundary, in order."""
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    tags = np.asarray(tag_xyz, dtype=float).reshape(-1, 3)
    inside = tags[signed_inside_distance(tags[:, :2], v) >= -PLY_TOL]
    t = np.asarray(targets, dtype=float).reshape(-1, 3)
    if len(t) != len(inside):
        return [f"{len(t)} cut targets, {len(inside)} tags inside the boundary"]
    if len(t) and float(np.max(np.abs(t - inside))) > PLY_TOL:
        return ["cut targets differ from the tags inside the boundary"]
    return []


def check_plan_replay(betas, targets, calibration: dict):
    """Each waypoint, fired along the written beam, lands on its target.

    p = origin + (alpha_x + beta_x) v_x + (alpha_y + beta_y) v_y, then the
    beam v_w is intersected with the horizontal plane at the target height.
    """
    frame = calibration["frame"]
    origin = np.array(frame["origin"])
    axes = np.array([frame["v_x"], frame["v_y"]])
    alpha = np.array(calibration["alpha"])
    v_w = np.array(calibration["v_w"])
    b = np.asarray(betas, dtype=float).reshape(-1, 2)
    t = np.asarray(targets, dtype=float).reshape(-1, 3)
    p_w = origin[None, :] + (alpha[None, :] + b) @ axes
    s = (t[:, 2] - p_w[:, 2]) / v_w[2]
    land = p_w + s[:, None] * v_w[None, :]
    if len(t) == 0:
        return []
    worst = float(np.max(np.linalg.norm(land - t, axis=1)))
    if worst > PLAN_TOL:
        return [f"a plan row lands {worst:.3g} mm from its target"]
    return []


def check_algorithm_iou(reported_iou: float, vertices, disc_center,
                        disc_radius: float, pitch: float = 0.02):
    """Reported algorithm IoU vs exact clipping against the 360-gon disc."""
    disc = disc_polygon(disc_center, disc_radius)
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    exact = exact_convex_iou(v, disc)
    bound = raster_iou_bound(v, disc, pitch)
    if abs(reported_iou - exact) > bound:
        return [f"algorithm IoU {reported_iou:.6f} vs exact {exact:.6f} "
                f"(raster bound {bound:.4f})"]
    return []


def check_iou_identity(regions: dict):
    """iou == (1 - undercut) / (1 + overcut) for every comparison kind."""
    fails = []
    for kind, r in regions.items():
        want = (1.0 - r["undercut"]) / (1.0 + r["overcut"])
        if not math.isclose(r["iou"], want, rel_tol=1e-12, abs_tol=1e-15):
            fails.append(f"{kind}: iou {r['iou']} != (1-u)/(1+o) = {want}")
    return fails


def check_far_tags(tag_xy, tag_label, disc_center, disc_radius: float,
                   margin: float):
    """Tags farther than ``margin`` from the disc edge carry their side's label."""
    xy = np.asarray(tag_xy, dtype=float).reshape(-1, 2)
    r = np.hypot(xy[:, 0] - disc_center[0], xy[:, 1] - disc_center[1])
    label = np.asarray(tag_label)
    wrong_in = np.sum((r < disc_radius - margin) & (label != 1))
    wrong_out = np.sum((r > disc_radius + margin) & (label != 0))
    if wrong_in or wrong_out:
        return [f"{int(wrong_in)} tags deep inside the disc not tumor, "
                f"{int(wrong_out)} tags far outside labelled tumor"]
    return []


def check_noiseless_errors(report: dict):
    worst = max(report["errors_mm"])
    if worst >= NOISELESS_TOL:
        return [f"noiseless {report['experiment']} error {worst:.3g} mm"]
    return []


def tree_digest(root) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        with path.open("rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def tree_size(root) -> tuple[int, int]:
    """(file count, total bytes) under ``root``."""
    files = [p for p in Path(root).rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)
