"""Synthetic scene, volumetric scanner, pinhole cameras, and spectrum source.

The scene is an analytic height field (sum of primitives) over a rectangular
domain, with labeled 2D regions ("tumor" discs or polygons) that control the
per-point pathology label and surface albedo. The virtual depth scanner images
the scene as a stack of B-scan slices whose A-scans carry a Gaussian surface
peak; surface segmentation is the argmax along each A-scan.

Axial convention: A-scan index k maps to axial coordinate z = k * axial_pitch,
so segmented clouds live in the same millimeter frame the lasers are
calibrated in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCamera, EmptySurface, NoRayHit, WindowOutOfDomain
from .geometry import SurfaceCloud, as_vec3, points_in_polygon
from .spectra import HEALTHY, TUMOR, Spectrum

DEFAULT_DOMAIN = (-100.0, -100.0, 100.0, 100.0)


@dataclass(frozen=True)
class ScenePhantom:
    """Analytic test object: height field primitives + labeled regions + albedo.

    Primitives (dicts, summed):
      {"kind": "plane", "z": 3.0}
      {"kind": "sphere_cap", "center": [x, y], "radius": r, "height": h}
      {"kind": "gauss_bump", "center": [x, y], "sigma": s, "height": h}

    Regions (dicts, later entries paint over earlier ones):
      {"label": "tumor", "kind": "disc", "center": [x, y], "radius": r}
      {"label": "tumor", "kind": "polygon", "vertices": [[x, y], ...]}

    Albedo maps region labels to reflectivity in [0, 1]; key "default" covers
    unlabeled surface. Construction rejects unknown kinds, sphere caps, bumps
    and discs without a positive size, polygons with fewer than 3 vertices
    and region labels other than "healthy" and "tumor". ``height``,
    ``label_at`` and ``albedo_at`` accept scalars or arrays.
    """

    primitives: tuple
    regions: tuple = ()
    albedo: dict = field(default_factory=lambda: {"default": 0.9})
    domain: tuple = DEFAULT_DOMAIN

    def __post_init__(self):
        for p in self.primitives:
            kind = p["kind"]
            if kind == "sphere_cap":
                if not (p["radius"] > 0 and p["height"] > 0):
                    raise ValueError("sphere_cap radius and height must be > 0")
            elif kind == "gauss_bump":
                if not p["sigma"] > 0:
                    raise ValueError("gauss_bump sigma must be > 0")
            elif kind != "plane":
                raise ValueError(f"unknown primitive kind: {kind}")
        for reg in self.regions:
            kind, label = reg["kind"], reg.get("label")
            if kind not in ("disc", "polygon"):
                raise ValueError(f"unknown region kind: {kind}")
            if label not in (HEALTHY, TUMOR):
                raise ValueError(f"region label must be {HEALTHY!r} or "
                                 f"{TUMOR!r}, not {label!r}")
            if kind == "disc" and not reg["radius"] > 0:
                raise ValueError("disc radius must be > 0")
            if kind == "polygon" and len(reg["vertices"]) < 3:
                raise ValueError("polygon needs at least 3 vertices")

    @classmethod
    def from_dict(cls, spec: dict) -> "ScenePhantom":
        return cls(
            primitives=tuple(spec.get("primitives", ())),
            regions=tuple(spec.get("regions", ())),
            albedo=dict(spec.get("albedo", {"default": 0.9})),
            domain=tuple(spec.get("domain", DEFAULT_DOMAIN)),
        )

    def height(self, x, y):
        """Surface height (mm) at (x, y); accepts scalars or arrays."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.zeros(np.broadcast(x, y).shape)
        for p in self.primitives:
            kind = p["kind"]
            if kind == "plane":
                z = z + p["z"]
            elif kind == "sphere_cap":
                cx, cy = p["center"]
                r, h = p["radius"], p["height"]
                big_r = (r * r + h * h) / (2.0 * h)
                d2 = (x - cx) ** 2 + (y - cy) ** 2
                cap = np.sqrt(np.clip(big_r * big_r - d2, 0.0, None)) - (big_r - h)
                z = z + np.where(d2 <= r * r, np.clip(cap, 0.0, None), 0.0)
            else:  # gauss_bump
                cx, cy = p["center"]
                s, h = p["sigma"], p["height"]
                d2 = (x - cx) ** 2 + (y - cy) ** 2
                z = z + h * np.exp(-d2 / (2.0 * s * s))
        return z if z.shape else float(z)

    def _region_index(self, x, y) -> np.ndarray:
        """Index of the last region covering each point, or -1."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        index = np.full(x.shape, -1)
        for k, reg in enumerate(self.regions):
            if reg["kind"] == "disc":
                cx, cy = reg["center"]
                # float_power squares through pow() like Python's float ** 2;
                # x * x rounds differently on about 0.1 % of inputs
                hit = (np.float_power(x - cx, 2) + np.float_power(y - cy, 2)
                       <= reg["radius"] ** 2)
            else:
                hit = points_in_polygon(np.column_stack([x.ravel(), y.ravel()]),
                                        reg["vertices"]).reshape(x.shape)
            index[hit] = k
        return index

    def label_at(self, x, y):
        """Region label at (x, y); accepts scalars or arrays."""
        labels = np.array([HEALTHY] + [r["label"] for r in self.regions])
        out = labels[self._region_index(x, y) + 1]
        return out if out.shape else str(out)

    def albedo_at(self, x, y):
        """Surface albedo at (x, y); accepts scalars or arrays."""
        default = self.albedo.get("default", 0.9)
        values = np.array([default] + [self.albedo.get(r["label"], default)
                                       for r in self.regions], dtype=float)
        out = values[self._region_index(x, y) + 1]
        return out if out.shape else float(out)


@dataclass(frozen=True)
class OctConfig:
    """Scanner geometry. Lateral pitches derive from extents over counts."""

    n_bscans: int = 128
    n_axial: int = 512
    n_lateral: int = 512
    axial_pitch: float = 0.0146  # mm per axial pixel
    extent_x: float = 12.6  # mm, fast (lateral) axis
    extent_y: float = 12.8  # mm, slow (B-scan) axis
    peak_sigma_px: float = 2.0
    noise_amplitude: float = 0.0  # uniform additive noise, must stay < 0.1

    def __post_init__(self):
        if not (0.0 <= self.noise_amplitude < 0.1):
            raise ValueError("background noise amplitude must be < 0.1")

    @property
    def pitch_x(self) -> float:
        return self.extent_x / self.n_lateral

    @property
    def pitch_y(self) -> float:
        return self.extent_y / self.n_bscans


@dataclass(frozen=True)
class OctVolume:
    """C-scan: stack of B-scan images, shape (n_bscans, n_axial, n_lateral).

    ``origin`` is the world (x, y) of lateral sample (0, 0); sample i along a
    B-scan sits at x = origin_x + i * pitch_x, B-scan j at y = origin_y +
    j * pitch_y, axial index k at z = k * axial_pitch.
    """

    b_scans: np.ndarray
    config: OctConfig
    origin: tuple[float, float]

    def __post_init__(self):
        arr = np.asarray(self.b_scans, dtype=np.float32)
        c = self.config
        if arr.shape != (c.n_bscans, c.n_axial, c.n_lateral):
            raise ValueError(
                f"volume shape {arr.shape} inconsistent with config "
                f"({c.n_bscans}, {c.n_axial}, {c.n_lateral})"
            )
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("intensities must lie in [0, 1]")
        object.__setattr__(self, "b_scans", arr)


def render_oct_volume(scene: ScenePhantom, window: tuple[float, float],
                      cfg: OctConfig = OctConfig(),
                      seed: int = 0) -> OctVolume:
    """Image the scene over a scan window anchored at ``window`` = (x0, y0).

    Each A-scan gets a Gaussian peak (sigma = cfg.peak_sigma_px axial pixels)
    centered at the local surface depth with amplitude equal to the local
    albedo, over an optional uniform noise floor. Intensities are clipped to
    [0, 1].
    """
    x0, y0 = window
    dx0, dy0, dx1, dy1 = scene.domain
    if not (dx0 <= x0 and x0 + cfg.extent_x <= dx1 and
            dy0 <= y0 and y0 + cfg.extent_y <= dy1):
        raise WindowOutOfDomain(
            f"window {window} + extents exceeds scene domain {scene.domain}"
        )

    xs = x0 + np.arange(cfg.n_lateral) * cfg.pitch_x
    ys = y0 + np.arange(cfg.n_bscans) * cfg.pitch_y
    gx, gy = np.meshgrid(xs, ys)  # (n_bscans, n_lateral)
    height = scene.height(gx, gy)
    if not np.all(np.isfinite(height)):
        raise WindowOutOfDomain("height field not finite over the window")
    albedo = scene.albedo_at(gx, gy)

    k0 = height / cfg.axial_pitch  # fractional peak index per A-scan
    k = np.arange(cfg.n_axial, dtype=float)
    # peak[j, k, i] = albedo[j, i] * exp(-(k - k0[j, i])^2 / (2 sigma^2))
    two_s2 = 2.0 * cfg.peak_sigma_px ** 2
    vol = np.empty((cfg.n_bscans, cfg.n_axial, cfg.n_lateral), dtype=np.float32)
    for j in range(cfg.n_bscans):
        prof = np.exp(-((k[:, None] - k0[j][None, :]) ** 2) / two_s2)
        vol[j] = (albedo[j][None, :] * prof).astype(np.float32)
    if cfg.noise_amplitude > 0.0:
        rng = np.random.default_rng(seed)
        vol += rng.uniform(
            0.0, cfg.noise_amplitude, size=vol.shape
        ).astype(np.float32)
        np.clip(vol, 0.0, 1.0, out=vol)
    return OctVolume(vol, cfg, (float(x0), float(y0)))


def segment_surface(volume: OctVolume, threshold: float = 0.15) -> SurfaceCloud:
    """One surface point per A-scan at the intensity argmax.

    A-scans whose maximum stays below ``threshold`` are marked invalid; the
    grid slot is kept so downstream consumers can skip it. Raises
    EmptySurface when nothing clears the threshold.
    """
    cfg = volume.config
    arr = volume.b_scans
    peak_idx = arr.argmax(axis=1)  # (n_bscans, n_lateral)
    peak_val = arr.max(axis=1)
    valid = peak_val >= threshold
    if not np.any(valid):
        raise EmptySurface(f"no A-scan max reached threshold {threshold}")

    x0, y0 = volume.origin
    xs = x0 + np.arange(cfg.n_lateral) * cfg.pitch_x
    ys = y0 + np.arange(cfg.n_bscans) * cfg.pitch_y
    gx, gy = np.meshgrid(xs, ys)
    gz = peak_idx * cfg.axial_pitch
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    return SurfaceCloud(cfg.n_bscans, cfg.n_lateral, pts,
                        valid=valid.ravel())


@dataclass(frozen=True)
class PinholeCamera:
    """Ideal pinhole: p_cam = R @ p_world + t, u = fx X/Z + cx, v = fy Y/Z + cy."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray
    translation: np.ndarray
    width: int = 1280
    height: int = 720

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-10:
            raise ValueError("rotation must be orthonormal")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", as_vec3(self.translation))

    @classmethod
    def look_at(cls, position, target, up=(0.0, 1.0, 0.0), **kw) -> "PinholeCamera":
        """Camera at ``position`` with its optical axis through ``target``."""
        position = as_vec3(position)
        fwd = as_vec3(target) - position
        fwd = fwd / np.linalg.norm(fwd)
        upv = as_vec3(up)
        right = np.cross(fwd, upv)
        if np.linalg.norm(right) < 1e-9:  # looking along `up`
            right = np.cross(fwd, np.array([0.0, 0.0, 1.0]))
        right = right / np.linalg.norm(right)
        down = np.cross(fwd, right)
        r = np.vstack([right, down, fwd])
        return cls(rotation=r, translation=-r @ position, **kw)

    def to_camera(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return pts @ self.rotation.T + self.translation


def project_world_to_image(camera: PinholeCamera, p) -> np.ndarray:
    """Project one world point to pixel coordinates (u, v)."""
    pc = camera.to_camera(np.asarray(p, dtype=float).reshape(1, 3))[0]
    if pc[2] <= 1e-6:
        raise BehindCamera(f"camera-frame depth {pc[2]:.3e} <= 1e-6")
    return np.array([
        camera.fx * pc[0] / pc[2] + camera.cx,
        camera.fy * pc[1] / pc[2] + camera.cy,
    ])


def project_points(camera: PinholeCamera, points):
    """Batch projection. Returns (uv (N,2), in_front (N,) bool).

    Points at or behind the camera get uv = nan and in_front = False instead
    of raising, so callers can mask.
    """
    pc = camera.to_camera(points)
    z = pc[:, 2]
    in_front = z > 1e-6
    uv = np.full((len(pc), 2), np.nan)
    uv[in_front, 0] = camera.fx * pc[in_front, 0] / z[in_front] + camera.cx
    uv[in_front, 1] = camera.fy * pc[in_front, 1] / z[in_front] + camera.cy
    return uv, in_front


# ---------------------------------------------------------------------------
# Synthetic point spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumConfig:
    """Two-fluorophore synthetic spectrum family.

    Both classes share peak centers/widths; the class difference is the
    amplitude ratio of the two peaks. Noise is multiplicative lognormal
    jitter on the whole curve plus additive Gaussian per-bin noise (clipped
    at zero).
    """

    wl_start: float = 350.0
    wl_stop: float = 700.0
    wl_step: float = 1.0
    centers: tuple[float, float] = (500.0, 630.0)
    widths: tuple[float, float] = (45.0, 40.0)
    healthy_amps: tuple[float, float] = (1.0, 0.30)
    tumor_amps: tuple[float, float] = (0.35, 0.95)
    noise_sigma: float = 0.01
    jitter_sigma: float = 0.05
    scale: float = 1.0

    def wavelengths(self) -> np.ndarray:
        n = int(round((self.wl_stop - self.wl_start) / self.wl_step)) + 1
        return self.wl_start + np.arange(n) * self.wl_step


_CLASS_CODE = {HEALTHY: 0, TUMOR: 1}


def synth_spectrum(label: str, seed: int,
                   cfg: SpectrumConfig = SpectrumConfig()) -> Spectrum:
    """Deterministic class-conditional spectrum for (label, seed)."""
    if label not in _CLASS_CODE:
        raise ValueError(f"label must be one of {sorted(_CLASS_CODE)}")
    wl = cfg.wavelengths()
    amps = cfg.healthy_amps if label == HEALTHY else cfg.tumor_amps
    base = np.zeros_like(wl)
    for a, c, w in zip(amps, cfg.centers, cfg.widths):
        base += a * np.exp(-((wl - c) ** 2) / (2.0 * w * w))
    base *= cfg.scale

    rng = np.random.default_rng([int(seed), _CLASS_CODE[label]])
    if cfg.jitter_sigma > 0:
        base = base * np.exp(rng.normal(0.0, cfg.jitter_sigma))
    if cfg.noise_sigma > 0:
        base = base + rng.normal(0.0, cfg.noise_sigma, size=base.shape)
    return Spectrum(wl, np.clip(base, 0.0, None), state="raw")


def intersect_scene(ray, scene: ScenePhantom, t_max: float = 500.0,
                    samples: int = 800) -> np.ndarray:
    """First intersection of a descending ray with the analytic height field.

    Brackets the first sign change of (ray height - surface height) along the
    ray, then bisects. Raises NoRayHit when the ray never meets the surface
    within ``t_max``.
    """

    def gap(t):
        p = ray.at(t)
        return p[2] - scene.height(p[0], p[1])

    ts = np.linspace(0.0, t_max, samples)
    pts = ray.origin[None, :] + ts[:, None] * ray.direction[None, :]
    gaps = pts[:, 2] - scene.height(pts[:, 0], pts[:, 1])
    crossing = np.flatnonzero((gaps[:-1] > 0.0) & (gaps[1:] <= 0.0))
    if len(crossing) == 0:
        raise NoRayHit("ray does not reach the surface")
    lo, hi = float(ts[crossing[0]]), float(ts[crossing[0] + 1])
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return ray.at(0.5 * (lo + hi))
