#!/usr/bin/env python3
"""Geometry walkthrough: planes, gridded surfaces, and beam casting.

Builds a bumpy height-field surface, triangulates it with the fixed-diagonal
rule, and fires a fan of beams at it, checking the fast intersector against a
naive scan over every triangle.
"""

import numpy as np

from resectsim.geometry import (
    SurfaceCloud,
    normalize,
    ray_mesh_intersect,
    triangulate_grid,
)

# --- a beam meeting a virtual plane ---------------------------------------
# a plane is a center point and a unit normal, as the calibration boards are
# a beam is an origin and a unit direction
origin, direction = np.array([0.0, 0.0, 10.0]), normalize([0.3, 0.0, -1.0])
center, normal = np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
# p = origin + t * direction with n . (p - center) = 0
t = -np.dot(normal, origin - center) / np.dot(normal, direction)
hit = origin + t * direction
print("oblique beam from z=10 meets the z=0 plane at:", hit.round(6))
print("residual against the plane equation:",
      abs(np.dot(hit - center, normal)))

# --- a gridded surface with two bumps --------------------------------------
rows = cols = 25


def height(x, y):
    return (1.5 * np.exp(-((x - 4) ** 2 + (y - 4) ** 2) / 2.0)
            + 0.9 * np.exp(-((x - 9) ** 2 + (y - 7) ** 2) / 3.0))


pts = np.array([
    [c * 0.5, r * 0.5, height(c * 0.5, r * 0.5)]
    for r in range(rows) for c in range(cols)
])
surface = SurfaceCloud(rows, cols, pts)
mesh = triangulate_grid(surface)
print(f"\n{rows}x{cols} grid -> {len(mesh.triangles)} triangles "
      f"(2 * {rows - 1} * {cols - 1})")

# --- beam casting with a brute-force cross-check ---------------------------
rng = np.random.default_rng(0)
agreements = 0
for _ in range(200):
    origin = np.array([rng.uniform(0, 12), rng.uniform(0, 12), 8.0])
    aim = np.array([rng.uniform(0, 12), rng.uniform(0, 12), 0.0])
    direction = normalize(aim - origin)
    # one row: the kernel takes (n, 3) origins sharing one direction
    found, point, index = ray_mesh_intersect(origin[None], mesh, direction)

    naive = None
    for i, (a, b, c) in enumerate(mesh.triangles):
        v0, v1, v2 = mesh.vertices[a], mesh.vertices[b], mesh.vertices[c]
        m = np.column_stack([-direction, v1 - v0, v2 - v0])
        if abs(np.linalg.det(m)) < 1e-12:
            continue
        t, u, v = np.linalg.solve(m, origin - v0)
        if u >= 0 and v >= 0 and u + v <= 1 and t > 1e-12:
            if naive is None or t < naive[0]:
                naive = (t, i)
    if not found[0]:
        assert naive is None
    else:
        assert naive is not None and index[0] == naive[1]
    agreements += 1

print(f"fast intersector agreed with the all-triangles scan on "
      f"{agreements}/200 random beams")
