"""Synthetic scene, volumetric scanner, pinhole cameras, and spectrum source.

The scene is an analytic height field (sum of primitives) over a rectangular
domain, with labeled 2D regions ("tumor" discs or polygons) that control the
per-point pathology label and surface albedo. The virtual depth scanner images
the scene as a stream of B-scan slices, rendered one at a time, whose A-scans
carry a Gaussian surface peak; surface segmentation reduces each B-scan to
the argmax along each of its A-scans, so no pass holds the whole C-scan.
Each B-scan evaluates the Gaussian only on the band of axial rows within
about 15 sigma of its peaks; every other row rounds to a float32 zero.

Axial convention: A-scan index k maps to axial coordinate z = k * axial_pitch,
so segmented clouds live in the same millimeter frame the lasers are
calibrated in.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import (
    EmptySurface,
    LengthMismatch,
    NoRayHit,
    WindowOutOfDomain,
)
from .geometry import SurfaceCloud, as_vec3, normalize, points_in_polygon
from .spectra import HEALTHY, TUMOR, Spectrum

DEFAULT_DOMAIN = (-100.0, -100.0, 100.0, 100.0)
RAY_T_MAX = 500.0  # mm of beam searched by intersect_scene
RAY_SAMPLES = 800  # bracketing samples along that length
RAY_BLOCK = 256  # rays bracketed at once: a (256, 800, 3) float block is 4.7 MiB
PEAK_BAND_EXPONENT = 110.0  # e^-110 < 2^-150: a float32 zero past the band


def finite_number(value) -> bool:
    """A real number in float range; bools (JSON true/false) are not."""
    return isinstance(value, Real) and type(value) is not bool and abs(value) < 2**1024


def _numbers(values, count: int, what: str):
    if not (len(values) == count and all(map(finite_number, values))):
        raise ValueError(f"{what} needs {count} finite numbers, not {values!r}")


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
    unlabeled surface. ``domain`` is (x0, y0, x1, y1). Construction rejects
    unknown kinds and labels (only "healthy" and "tumor"), coordinates and
    sizes that are not finite numbers of the right count, sphere caps, bumps
    and discs without a positive size, polygons with fewer than 3 vertices
    and albedo values outside [0, 1]. ``height``, ``label_at`` and
    ``albedo_at`` accept scalars or arrays.
    """

    primitives: tuple
    regions: tuple = ()
    albedo: dict = field(default_factory=lambda: {"default": 0.9})
    domain: tuple = DEFAULT_DOMAIN

    def __post_init__(self):
        for p in self.primitives:
            kind = p["kind"]
            if kind == "plane":
                _numbers([p["z"]], 1, "plane z")
            elif kind == "sphere_cap":
                _numbers([*p["center"], p["radius"], p["height"]], 4, kind)
                if not (p["radius"] > 0 and p["height"] > 0):
                    raise ValueError("sphere_cap radius and height must be > 0")
            elif kind == "gauss_bump":
                _numbers([*p["center"], p["sigma"], p["height"]], 4, kind)
                if not p["sigma"] > 0:
                    raise ValueError("gauss_bump sigma must be > 0")
            else:
                raise ValueError(f"unknown primitive kind: {kind}")
        for reg in self.regions:
            kind, label = reg["kind"], reg.get("label")
            if kind not in ("disc", "polygon"):
                raise ValueError(f"unknown region kind: {kind}")
            if label not in (HEALTHY, TUMOR):
                raise ValueError(f"region label must be {HEALTHY!r} or "
                                 f"{TUMOR!r}, not {label!r}")
            if kind == "disc":
                _numbers([*reg["center"], reg["radius"]], 3, "disc")
                if not reg["radius"] > 0:
                    raise ValueError("disc radius must be > 0")
            elif len(reg["vertices"]) < 3:
                raise ValueError("polygon needs at least 3 vertices")
            else:
                for v in reg["vertices"]:
                    _numbers(v, 2, "polygon vertex")
        for key, value in self.albedo.items():
            if not (finite_number(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"albedo {key!r} must be a number in "
                                 f"[0, 1], not {value!r}")
        _numbers(self.domain, 4, "domain")

    @classmethod
    def from_dict(cls, spec: dict) -> "ScenePhantom":
        return cls(
            primitives=tuple(spec.get("primitives", ())),
            regions=tuple(spec.get("regions", ())),
            albedo=dict(spec.get("albedo", {"default": 0.9})),
            domain=tuple(spec.get("domain", DEFAULT_DOMAIN)),
        )

    def height(self, x, y):
        """Surface height (mm) at (x, y); accepts scalars or arrays.

        Squares go through np.float_power, which calls pow() as a scalar
        ``** 2`` does, so an array call equals per-element scalar calls.
        """
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
                d2 = np.float_power(x - cx, 2) + np.float_power(y - cy, 2)
                cap = np.sqrt(np.clip(big_r * big_r - d2, 0.0, None)) - (big_r - h)
                z = z + np.where(d2 <= r * r, np.clip(cap, 0.0, None), 0.0)
            else:  # gauss_bump
                cx, cy = p["center"]
                s, h = p["sigma"], p["height"]
                d2 = np.float_power(x - cx, 2) + np.float_power(y - cy, 2)
                z = z + h * np.exp(-d2 / (2.0 * s * s))
        return z if z.shape else float(z)

    def region_index(self, x, y) -> np.ndarray:
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
        out = labels[self.region_index(x, y) + 1]
        return out if out.shape else str(out)

    def albedo_at(self, x, y):
        """Surface albedo at (x, y); accepts scalars or arrays."""
        default = self.albedo.get("default", 0.9)
        values = np.array([default] + [self.albedo.get(r["label"], default)
                                       for r in self.regions], dtype=float)
        out = values[self.region_index(x, y) + 1]
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
        if not (finite_number(self.noise_amplitude)
                and 0.0 <= self.noise_amplitude < 0.1):
            raise ValueError("background noise amplitude must be a number in [0, 0.1)")

    @property
    def pitch_x(self) -> float:
        return self.extent_x / self.n_lateral

    @property
    def pitch_y(self) -> float:
        return self.extent_y / self.n_bscans


class BScanStream:
    """Re-iterable B-scans: each pass over it calls ``make()`` for a fresh
    iterator, so the stream can be read again without being held."""

    def __init__(self, make):
        self._make = make

    def __iter__(self):
        return self._make()


@dataclass(frozen=True)
class OctVolume:
    """C-scan: ``n_bscans`` B-scan images of shape (n_axial, n_lateral).

    ``b_scans`` is any iterable of B-scans in slow-axis order: a
    ``BScanStream`` that renders or reads them one at a time, or a 3-D
    array. Iterating the volume yields each B-scan as float32 after
    checking its shape and that its intensities lie in [0, 1], and checks
    the count at the end; a bad volume raises ValueError. Materialize a
    volume with ``np.stack(list(volume))``.

    ``origin`` is the world (x, y) of lateral sample (0, 0); sample i along a
    B-scan sits at x = origin_x + i * pitch_x, B-scan j at y = origin_y +
    j * pitch_y, axial index k at z = k * axial_pitch.
    """

    b_scans: Iterable
    config: OctConfig
    origin: tuple[float, float]

    def __iter__(self):
        c = self.config
        shape = (c.n_axial, c.n_lateral)
        count = 0
        for b_scan in self.b_scans:
            if count == c.n_bscans:
                raise ValueError(f"volume has more than {c.n_bscans} B-scans")
            b_scan = np.asarray(b_scan, dtype=np.float32)
            if b_scan.shape != shape:
                raise ValueError(f"B-scan {count} has shape {b_scan.shape}, "
                                 f"config says {shape}")
            # negated, so that a NaN, which compares False, fails too
            if b_scan.size and not (b_scan.min() >= 0 and b_scan.max() <= 1):
                raise ValueError("intensities must lie in [0, 1]")
            count += 1
            yield b_scan
        if count != c.n_bscans:
            raise ValueError(f"volume has {count} B-scans, config says "
                             f"{c.n_bscans}")


def render_oct_volume(scene: ScenePhantom, window: tuple[float, float],
                      cfg: OctConfig = OctConfig(),
                      seed: int = 0) -> OctVolume:
    """Image the scene over a scan window anchored at ``window`` = (x0, y0).

    Each A-scan gets a Gaussian peak (sigma = cfg.peak_sigma_px axial pixels)
    centered at the local surface depth with amplitude equal to the local
    albedo, over an optional uniform noise floor; noisy intensities are
    clipped to [0, 1]. The window and the height field are checked here;
    the B-scans are rendered lazily, one at a time on each pass over the
    returned volume. Each B-scan evaluates the peak only on the axial rows
    from ``floor(min k0) - h`` to ``ceil(max k0) + h`` over its A-scans'
    peak indices k0, with ``h = ceil(sqrt(110 * 2 sigma^2))`` (30 rows at
    sigma = 2 px): past that band the value is below e^-110, which rounds
    to a float32 zero, so the B-scan starts as zeros and is the same bits
    as evaluating every row. Each pass draws the noise from a fresh
    ``default_rng(seed)``, one (n_axial, n_lateral) draw per B-scan, which
    is the stream a single whole-volume draw would give.
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

    def b_scans():
        k = np.arange(cfg.n_axial, dtype=float)
        two_s2 = 2.0 * cfg.peak_sigma_px ** 2
        half = math.ceil(math.sqrt(PEAK_BAND_EXPONENT * two_s2))
        rng = np.random.default_rng(seed)
        for j in range(cfg.n_bscans):
            # b_scan[k, i] = albedo[j, i] * exp(-(k - k0[j, i])^2 / (2 sigma^2))
            # on the rows within ``half`` of some peak. Off that band
            # (k - k0)^2 > 110 * 2 sigma^2, so with albedo <= 1 the value is
            # below e^-110 < 1.7e-48, under 2^-150: it rounds to a float32
            # zero, signed as the albedo (an albedo of -0.0 gives -0.0)
            b_scan = np.zeros((cfg.n_axial, cfg.n_lateral), dtype=np.float32)
            b_scan[:, np.signbit(albedo[j])] = -0.0
            lo = max(math.floor(k0[j].min()) - half, 0)
            hi = min(math.ceil(k0[j].max()) + half + 1, cfg.n_axial)
            prof = np.exp(-((k[lo:hi, None] - k0[j][None, :]) ** 2) / two_s2)
            b_scan[lo:hi] = albedo[j][None, :] * prof
            if cfg.noise_amplitude > 0.0:
                b_scan += rng.uniform(0.0, cfg.noise_amplitude,
                                      size=b_scan.shape).astype(np.float32)
                np.clip(b_scan, 0.0, 1.0, out=b_scan)
            yield b_scan

    return OctVolume(BScanStream(b_scans), cfg, (float(x0), float(y0)))


def column_peaks(b_scan: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(argmax(axis=0), max(axis=0))`` of a NaN-free 2-D array, without
    argmax's transposed copy: the first row equal to each column's maximum,
    searched among the rows that hold some column's maximum."""
    top = b_scan.max(axis=0)
    hit = b_scan == top
    rows = np.flatnonzero(hit.any(axis=1))
    return rows[hit[rows].argmax(axis=0)], top


def segment_surface(volume: OctVolume) -> SurfaceCloud:
    """One surface point per A-scan at the intensity argmax.

    Takes one pass over the volume (in the e2e scan, the pass that writes
    it), one B-scan at a time, keeping each A-scan's first maximal axial
    index and its maximum. A-scans whose maximum stays below 0.15 are
    marked invalid; the grid slot is kept so downstream consumers can skip
    it. Raises EmptySurface, after the pass, when nothing clears it.
    """
    cfg = volume.config
    peak_idx = np.empty((cfg.n_bscans, cfg.n_lateral), dtype=np.intp)
    peak_val = np.empty((cfg.n_bscans, cfg.n_lateral), dtype=np.float32)
    for j, b_scan in enumerate(volume):
        peak_idx[j], peak_val[j] = column_peaks(b_scan)
    valid = peak_val >= 0.15
    if not np.any(valid):
        raise EmptySurface("no A-scan max reached threshold 0.15")

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
    def look_at(cls, position, target, **kw) -> "PinholeCamera":
        """Camera at ``position`` with its optical axis through ``target``."""
        position = as_vec3(position)
        fwd = as_vec3(target) - position
        fwd = fwd / np.linalg.norm(fwd)
        right = np.cross(fwd, np.array([0.0, 1.0, 0.0]))
        if np.linalg.norm(right) < 1e-9:  # looking along y
            right = np.cross(fwd, np.array([0.0, 0.0, 1.0]))
        right = right / np.linalg.norm(right)
        down = np.cross(fwd, right)
        r = np.vstack([right, down, fwd])
        return cls(rotation=r, translation=-r @ position, **kw)

    def to_camera(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return pts @ self.rotation.T + self.translation


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


def synth_spectrum(label, seed, cfg: SpectrumConfig = SpectrumConfig()
                   ) -> Spectrum:
    """Deterministic class-conditional spectrum for (label, seed), or one
    row per pair of two equal-length sequences. Each row draws its jitter,
    then its per-bin noise, from its own ``default_rng([seed, class code])``.
    """
    single = isinstance(label, str)
    labels, seeds = ([label], [seed]) if single else (list(label), list(seed))
    if len(labels) != len(seeds):
        raise LengthMismatch(f"{len(labels)} labels for {len(seeds)} seeds")
    if not set(labels) <= _CLASS_CODE.keys():
        raise ValueError(f"label must be one of {sorted(_CLASS_CODE)}")
    wl = cfg.wavelengths()
    bases = np.zeros((2, len(wl)))  # rows in class-code order
    for base, amps in zip(bases, (cfg.healthy_amps, cfg.tumor_amps)):
        for a, c, w in zip(amps, cfg.centers, cfg.widths):
            base += a * np.exp(-((wl - c) ** 2) / (2.0 * w * w))
    bases *= cfg.scale

    codes = [_CLASS_CODE[lab] for lab in labels]
    rngs = [np.random.default_rng([int(s), c]) for s, c in zip(seeds, codes)]
    rows = bases[codes]
    if cfg.jitter_sigma > 0:
        rows = rows * np.exp([r.normal(0.0, cfg.jitter_sigma)
                              for r in rngs])[:, None]
    if cfg.noise_sigma > 0:
        rows = rows + np.reshape([r.normal(0.0, cfg.noise_sigma, len(wl))
                                  for r in rngs], rows.shape)
    rows = np.clip(rows, 0.0, None)
    return Spectrum(wl, rows[0] if single else rows, state="raw")


def intersect_scene(origins, direction, scene: ScenePhantom) -> np.ndarray:
    """First intersection of n parallel descending rays with the height field.

    The rays start at ``origins`` (n, 3) and share ``direction``, which is
    normalized once (``geometry.normalize``). Each ray brackets the first sign
    change of (ray height - surface height) among ``RAY_SAMPLES`` even steps
    along ``RAY_T_MAX`` mm, at most ``RAY_BLOCK`` rays at a time, and then
    all rays bisect that bracket together for 90 steps. Every step is the
    per-ray arithmetic, so each row is the point one ray alone would give.
    Returns the (n, 3) hits in order. Raises NoRayHit when any ray never
    meets the surface, naming how many missed and the index of the first
    (callers pass one ray per waypoint, in plan order).
    """
    origins = np.asarray(origins, dtype=float).reshape(-1, 3)
    d = normalize(direction)
    ts = np.linspace(0.0, RAY_T_MAX, RAY_SAMPLES)
    first = np.empty(len(origins), dtype=np.intp)
    hit = np.empty(len(origins), dtype=bool)
    for s in range(0, len(origins), RAY_BLOCK):
        pts = origins[s:s + RAY_BLOCK, None, :] + ts[:, None] * d
        gaps = pts[..., 2] - scene.height(pts[..., 0], pts[..., 1])
        crossing = (gaps[:, :-1] > 0.0) & (gaps[:, 1:] <= 0.0)
        first[s:s + RAY_BLOCK] = crossing.argmax(axis=1)
        hit[s:s + RAY_BLOCK] = crossing.any(axis=1)
    if not hit.all():
        missed = np.flatnonzero(~hit)
        raise NoRayHit(f"{len(missed)} of {len(origins)} rays do not reach "
                       f"the surface (first: waypoint {missed[0]})")
    lo, hi = ts[first], ts[first + 1]
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        p = origins + mid[:, None] * d
        above = p[:, 2] - scene.height(p[:, 0], p[:, 1]) > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return origins + (0.5 * (lo + hi))[:, None] * d
