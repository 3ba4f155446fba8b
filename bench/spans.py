"""In-memory spans and counters around resectsim's public functions.

Instrumentation replaces a function where its caller looks it up (for
example ``resectsim.harness.triangulate_grid`` or
``resectsim.mapping.ray_mesh_intersect``) with a wrapper that records a span
or bumps a counter, and puts the original back afterwards, so the package
itself is not edited. Spans carry a name, start, end, parent index and
trial id; they stay in memory until the run writes them out as one file.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT = "trial"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, trial id]
        self.counts = defaultdict(Counter)  # trial id -> counter
        self.trial = None
        self._stack = []

    @contextmanager
    def root(self, trial: int):
        self.trial = trial
        with self._span(ROOT):
            yield
        self.trial = None

    @contextmanager
    def _span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.trial]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, span: bool = True, on_return=None):
        """Wrapper that records a span named ``name`` around ``fn``, or with
        ``span=False`` only adds one to the counter ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not span:
                tracer.counts[tracer.trial][name] += 1
                result = fn(*args, **kwargs)
            else:
                with tracer._span(name):
                    result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(tracer.counts[tracer.trial], args, kwargs, result)
            return result

        return traced

    def dump(self, path, t0: float, **meta):
        """Write every span (times relative to ``t0``) and counter as JSON."""
        spans = [[n, s - t0, e - t0, p, t] for n, s, e, p, t in self.spans]
        counts = {str(k): dict(v) for k, v in self.counts.items()}
        path.write_text(json.dumps(
            {**meta, "span_fields": ["name", "start_s", "end_s", "parent",
                                     "trial"],
             "spans": spans, "counts": counts}) + "\n")


# ---------------------------------------------------------------------------
# What to instrument
# ---------------------------------------------------------------------------


def _mlp_step_flops(counts, args, kwargs, result):
    """Matmul flops of one training step: forward, weight grads, input grads."""
    model, x = args[0], args[1]
    b = len(x)
    flops = 0
    for i, w in enumerate(model.weights):
        n_in, n_out = w.shape
        flops += 2 * b * n_in * n_out * (3 if i > 0 else 2)
    counts["spectra.mlp_train.flop"] += flops


def _mesh_triangles(counts, args, kwargs, result):
    counts["geometry.mesh_triangles"] += len(result.triangles)


def _triangle_tests(counts, args, kwargs, result):
    mesh = kwargs["mesh"] if "mesh" in kwargs else args[1]
    counts["geometry.triangle_tests"] += len(mesh.triangles)


def _located(counts, args, kwargs, result):
    counts["mapping.spots_located"] += 1


def _raster_cells(counts, args, kwargs, result):
    counts["metrics.raster_cells"] += result[0].size + result[1].size


def _laser_lm(counts, args, kwargs, result):
    counts["calibration.lm_iterations"] += result.iterations


def _camera_lm(counts, args, kwargs, result):
    counts["calibration.lm_iterations"] += result[1].iterations


IO_WRITERS = ("write_json", "write_ply_cloud", "write_surface_ply",
              "write_oct_volume", "write_cut_plan_csv",
              "write_spot_observations_csv", "write_spectra_csv",
              "write_mlp_json", "append_region_reports_csv")

RUNNERS = ("run_end_to_end", "run_roi_experiment", "run_marker_experiment",
           "run_trajectory_experiment")


def targets():
    """(owner, attribute, span or counter name, records a span, on_return)."""
    from resectsim import harness, io, kinematics, mapping, metrics, sensors, \
        spectra

    h = harness
    out = [(h, name, f"harness.{name}", True, None) for name in RUNNERS]
    out += [
        (h, "render_oct_volume", "sensors.render_oct_volume", True, None),
        (h, "segment_surface", "sensors.segment_surface", True, None),
        (h, "render_camera_image", "harness.render_camera_image", True, None),
        (h, "intersect_scene", "sensors.intersect_scene", True, None),
        (h, "synth_spectrum", "sensors.synth_spectrum", True, None),
        (h, "triangulate_grid", "geometry.triangulate_grid", True,
         _mesh_triangles),
        (mapping, "ray_mesh_intersect", "geometry.ray_mesh_intersect", True,
         _triangle_tests),
        (mapping.SpotLocator, "locate", "mapping.locate", True, _located),
        (h, "colorize_surface", "mapping.colorize_surface", True, None),
        (h, "boundary_from_tags", "mapping.boundary_from_tags", True, None),
        (h, "select_cut_targets", "mapping.select_cut_targets", True, None),
        (h, "mlp_train", "spectra.mlp_train", True, None),
        (h, "mlp_predict", "spectra.mlp_predict", True, None),
        (h, "preprocess", "spectra.preprocess", True, None),
        (h, "threshold_classify", "spectra.threshold_classify", True, None),
        (h, "compare_regions", "metrics.compare_regions", True, None),
        (h, "plan_trajectory", "kinematics.plan_trajectory", True, None),
        (h, "calibrate_laser_orientation",
         "calibration.calibrate_laser_orientation", True, _laser_lm),
        (h, "estimate_camera_extrinsics",
         "calibration.estimate_camera_extrinsics", True, _camera_lm),
        # counted only: too many calls, or cheap enough that a span would
        # mostly time the tracer
        (sensors.ScenePhantom, "label_at", "sensors.region_queries", False,
         None),
        (sensors.ScenePhantom, "albedo_at", "sensors.region_queries", False,
         None),
        (spectra, "nll_loss_and_gradients", "spectra.adam_steps", False,
         _mlp_step_flops),
        (metrics, "rasterize_pair", "metrics.rasterize_pair.calls", False,
         _raster_cells),
        (h, "solve_ik", "kinematics.solve_ik.calls", False, None),
        (kinematics, "solve_ik", "kinematics.solve_ik.calls", False, None),
    ]
    out += [(io, name, f"io.{name}", True, None) for name in IO_WRITERS]
    return out


@contextmanager
def instrumented(tracer: Tracer):
    """Install every hook for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, span, on_return in targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, span, on_return))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer figures from one trial's spans
# ---------------------------------------------------------------------------


def self_times(spans, trial: int):
    """{span index: self seconds} for one trial's spans."""
    idx = [i for i, s in enumerate(spans) if s[4] == trial]
    child = defaultdict(float)
    for i in idx:
        parent = spans[i][3]
        if parent is not None:
            child[parent] += spans[i][2] - spans[i][1]
    return {i: spans[i][2] - spans[i][1] - child[i] for i in idx}


def trial_figures(tracer: Tracer, trial: int) -> dict:
    """Self seconds and call counts per span name, plus this trial's counters.

    ``<name>_s`` is the self time of the spans of that name: their duration
    minus what their child spans cover. ``io.write_s`` is the total time
    inside artifact writers (the duration of every outermost ``io.*`` span).
    """
    spans = tracer.spans
    selfs = self_times(spans, trial)
    out = Counter()
    for i, t in selfs.items():
        name = spans[i][0]
        out[name + "_s"] += t
        out[name + ".calls"] += 1
        parent = spans[i][3]
        if name.startswith("io.") and (
                parent is None or not spans[parent][0].startswith("io.")):
            out["io.write_s"] += spans[i][2] - spans[i][1]
    out.update(tracer.counts[trial])
    root = next(i for i in selfs if spans[i][0] == ROOT)
    out["_root_s"] = spans[root][2] - spans[root][1]
    out["_self_sum_s"] = sum(selfs.values())
    return out
