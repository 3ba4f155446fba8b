"""Tests for the benchmark's output checks: each passes on a right artifact
and fails on a wrong one.

    python3 -m pytest -q bench
"""

import json

import numpy as np
import pytest

import checks


def write_ply(path, xyz, label=None):
    lines = ["ply", "format ascii 1.0", f"element vertex {len(xyz)}",
             "property float x", "property float y", "property float z"]
    if label is not None:
        lines.append("property uchar label")
    lines.append("end_header")
    for i, p in enumerate(xyz):
        row = ["%.9g" % v for v in p]
        if label is not None:
            row.append(str(int(label[i])))
        lines.append(" ".join(row))
    path.write_text("\n".join(lines) + "\n")


SQUARE = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])


def test_read_ply_and_tags(tmp_path):
    xyz = np.array([[1.0, 2.0, 3.0], [4.5, 5.25, -6.0]])
    write_ply(tmp_path / "t.ply", xyz, label=[1, 0])
    got_xyz, got_label = checks.read_tags(tmp_path / "t.ply")
    assert np.allclose(got_xyz, xyz)
    assert got_label.tolist() == [1, 0]


def test_read_ply_rejects_short_body(tmp_path):
    write_ply(tmp_path / "t.ply", np.zeros((2, 3)))
    text = (tmp_path / "t.ply").read_text().splitlines()
    (tmp_path / "t.ply").write_text("\n".join(text[:-1]) + "\n")
    with pytest.raises(ValueError):
        checks.read_ply(tmp_path / "t.ply")


def test_area_turns_and_clip():
    assert checks.polygon_area(SQUARE) == 4.0
    assert checks.polygon_area(SQUARE[::-1]) == -4.0
    assert np.all(checks.edge_turns(SQUARE) > 0)
    shifted = SQUARE + [1.0, 1.0]
    assert abs(abs(checks.polygon_area(checks.clip_convex(SQUARE, shifted)))
               - 1.0) < 1e-12
    assert abs(checks.exact_convex_iou(SQUARE, shifted) - 1.0 / 7.0) < 1e-12
    far = SQUARE + [10.0, 0.0]
    assert len(checks.clip_convex(SQUARE, far)) == 0


def test_signed_inside_distance():
    d = checks.signed_inside_distance([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]],
                                      SQUARE)
    assert np.allclose(d, [1.0, 0.0, -1.0])


def test_raster_bound_shrinks_with_pitch():
    disc = checks.disc_polygon((0.0, 0.0), 5.0)
    coarse = checks.raster_iou_bound(SQUARE, disc, 0.1)
    fine = checks.raster_iou_bound(SQUARE, disc, 0.02)
    assert 0.0 < fine < coarse


def test_check_boundary():
    tags = np.vstack([SQUARE, [[1.0, 1.0], [1.0, 0.0], [5.0, 5.0]]])
    label = np.array([1, 1, 1, 1, 1, 1, 0])
    assert checks.check_boundary(SQUARE, tags, label) == []
    assert checks.check_boundary(SQUARE[::-1], tags, label)  # clockwise
    concave = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [2.0, 2.0],
                        [0.0, 2.0]])
    assert checks.check_boundary(concave, np.vstack([tags, concave]),
                                 np.concatenate([label, [1] * 5]))
    outside = np.vstack([tags, [[3.0, 1.0]]])
    assert checks.check_boundary(SQUARE, outside, np.append(label, 1))
    not_tag = SQUARE * 1.01
    assert checks.check_boundary(not_tag, tags, label)
    assert checks.check_boundary(SQUARE, tags, np.zeros(len(tags)))


def test_check_cut_targets():
    tags = np.array([[1.0, 1.0, 3.0], [5.0, 5.0, 3.0], [2.0, 1.0, 3.0],
                     [0.0, 0.0, 3.0]])
    inside = tags[[0, 2, 3]]
    assert checks.check_cut_targets(inside, tags, SQUARE) == []
    assert checks.check_cut_targets(inside[:2], tags, SQUARE)
    assert checks.check_cut_targets(tags, tags, SQUARE)
    assert checks.check_cut_targets(inside[[1, 0, 2]], tags, SQUARE)


def calibration():
    beam = np.array([0.06, -0.04, -1.0])
    return {"frame": {"origin": [0.5, -0.2, 56.3], "v_x": [1.0, 0.0, 0.0],
                      "v_y": [0.05, float(np.sqrt(1 - 0.05**2)), 0.0]},
            "alpha": [1.5, -2.0],
            "v_w": (beam / np.linalg.norm(beam)).tolist()}


def solve_betas(cal, targets):
    """Independent IK: least squares for beta in the replay equation."""
    f = cal["frame"]
    o, vx, vy = (np.array(f[k]) for k in ("origin", "v_x", "v_y"))
    v = np.array(cal["v_w"])
    out = []
    for t in targets:
        s = (t[2] - o[2]) / v[2]  # axes are horizontal, so s is fixed
        a = np.column_stack([vx[:2], vy[:2]])
        coef = np.linalg.solve(a, t[:2] - o[:2] - s * v[:2])
        out.append(coef - np.array(cal["alpha"]))
    return np.array(out)


def test_check_plan_replay():
    cal = calibration()
    targets = np.array([[1.0, 2.0, 3.0], [6.0, 6.0, 2.5], [10.0, 1.0, 4.0]])
    betas = solve_betas(cal, targets)
    assert checks.check_plan_replay(betas, targets, cal) == []
    moved = targets.copy()
    moved[1, 0] += 1e-4
    assert checks.check_plan_replay(betas, moved, cal)


def test_check_algorithm_iou():
    disc = checks.disc_polygon((6.3, 6.4), 5.0)
    hull = disc[::10] * 0.98 + 0.02 * np.array([6.3, 6.4])
    exact = checks.exact_convex_iou(hull, disc)
    assert checks.check_algorithm_iou(exact, hull, (6.3, 6.4), 5.0) == []
    assert checks.check_algorithm_iou(exact - 0.1, hull, (6.3, 6.4), 5.0)


def test_check_iou_identity():
    good = {"iou": 0.8 / 1.1, "undercut": 0.2, "overcut": 0.1}
    bad = {"iou": 0.75, "undercut": 0.2, "overcut": 0.1}
    assert checks.check_iou_identity({"system": good}) == []
    assert checks.check_iou_identity({"system": good, "algorithm": bad})


def test_check_far_tags():
    xy = np.array([[6.3, 6.4], [6.3, 14.0], [6.3, 11.0]])
    assert checks.check_far_tags(xy, [1, 0, 0], (6.3, 6.4), 5.0, 2.0) == []
    assert checks.check_far_tags(xy, [1, 0, 1], (6.3, 6.4), 5.0, 2.0) == []
    assert checks.check_far_tags(xy, [0, 0, 0], (6.3, 6.4), 5.0, 2.0)
    assert checks.check_far_tags(xy, [1, 1, 0], (6.3, 6.4), 5.0, 2.0)


def test_check_noiseless_errors():
    assert checks.check_noiseless_errors(
        {"experiment": "marker", "errors_mm": [0.0, 3e-9]}) == []
    assert checks.check_noiseless_errors(
        {"experiment": "marker", "errors_mm": [0.0, 2e-6]})


def test_check_volume(tmp_path):
    shape = [2, 3, 4]
    sidecar = tmp_path / "v.json"
    sidecar.write_text(json.dumps({"dtype": "float32-le", "shape": shape}))
    raw = tmp_path / "v.f32"
    data = np.linspace(0.0, 1.0, 24).astype("<f4")
    data.tofile(raw)
    assert checks.check_volume(sidecar, raw, block_bytes=16) == []
    data[5] = 1.5
    data.tofile(raw)
    assert checks.check_volume(sidecar, raw, block_bytes=16)
    data[:20].tofile(raw)
    assert checks.check_volume(sidecar, raw)


def test_check_surface_heights(tmp_path):
    xyz = np.array([[0.0, 0.0, 2.993], [1.0, 0.0, 3.005]])
    write_ply(tmp_path / "s.ply", xyz)
    assert checks.check_surface_heights(tmp_path / "s.ply", 3.0, 0.0146) == []
    xyz[1, 2] = 3.02
    write_ply(tmp_path / "s.ply", xyz)
    assert checks.check_surface_heights(tmp_path / "s.ply", 3.0, 0.0146)


def test_tree_digest_and_size(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name / "sub").mkdir(parents=True)
        (tmp_path / name / "x.txt").write_text("x")
        (tmp_path / name / "sub" / "y.txt").write_text("yy")
    assert checks.tree_digest(tmp_path / "a") == checks.tree_digest(
        tmp_path / "b")
    assert checks.tree_size(tmp_path / "a") == (2, 3)
    (tmp_path / "b" / "sub" / "y.txt").write_text("yz")
    assert checks.tree_digest(tmp_path / "a") != checks.tree_digest(
        tmp_path / "b")
