"""resectsim benchmark: time one workload's trials and check their outputs.

    python3 bench/run.py --workload e2e-threshold --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory. With ``--trace 0`` the run measures set-up time in fresh
interpreters, runs a warm-up, then times whole trials through the public
runners until ``--seconds`` would be exceeded (at least two trials), checks
every trial's artifacts and prints the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced trials and prints the
per-layer metrics from the traced ones, plus the tracing overhead. The last
line of standard output is always one JSON object; metric names and units
come from BENCHMARK.json. Run records and trace files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 3
MIN_TRIALS = 2
STAGES = ("calibrate", "scan", "classify", "map", "plan", "resect",
          "evaluate", "train", "execute")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run (not a fault of a trial)."""


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


# ---------------------------------------------------------------------------
# Set-up in fresh interpreters
# ---------------------------------------------------------------------------


def _probe(config: dict, env: dict, importtime: bool):
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "setup_probe.py"), json.dumps(config)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if importtime else None,
                            text=True)
    try:
        if importtime:
            out, err = proc.communicate(timeout=120)
            ready = out.strip() == "ready"
            elapsed = None
        else:
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=120)
            err = None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed, err


def import_seconds(importtime_log: str) -> dict:
    """Self import time per top-level package, from ``-X importtime``."""
    out = {}
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        out[top] = out.get(top, 0.0) + int(self_us) / 1e6
    return out


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


def reference_seconds() -> float:
    """A fixed computation timed between trials to show host drift."""
    import numpy as np

    a = np.random.default_rng(12345).standard_normal((300, 300))
    t0 = time.perf_counter()
    for _ in range(40):
        a = a @ a
        a /= np.abs(a).max()
    s = 0
    for i in range(1_000_000):
        s += i * i
    return time.perf_counter() - t0


def run_calls(harness, calls, configs, trial_dir: Path):
    """Make every call; return (seconds, failed calls, summed stage timings)."""
    failed = []
    timings = dict.fromkeys(STAGES, 0.0)
    t0 = time.perf_counter()
    for call, cfg in zip(calls, configs):
        runner = getattr(harness, call.runner)
        try:
            result = runner(cfg, trial_dir / call.subdir, **call.kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed.append(call)
            print(f"operation failed: {call.subdir}: {type(exc).__name__}: "
                  f"{exc}", file=sys.stderr)
            continue
        for stage, seconds in result.timings.items():
            timings[stage] = timings.get(stage, 0.0) + seconds
    return time.perf_counter() - t0, failed, timings


def check_trial(workload, calls, failed, trial_dir: Path):
    """Artifact checks for every call that did not fail."""
    import checks

    fails = []
    for call in calls:
        if call in failed:
            continue
        try:
            fails += [f"{call.subdir}: {m}" for m in
                      workload.check_call(call, trial_dir / call.subdir)]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            fails.append(f"{call.subdir}: unreadable artifact: {exc}")
    return fails, checks.tree_digest(trial_dir), checks.tree_size(trial_dir)


def layer_metrics(names, figures, timings, sizes, imports):
    """Per-layer metric values for one traced trial."""
    values = {}
    for name in names:
        if name.startswith("setup.import."):
            values[name] = imports[name[len("setup.import."):-2]]
        elif name.startswith("harness.stage."):
            values[name] = timings.get(name[len("harness.stage."):-2], 0.0)
        elif name == "spectra.mlp_train.gflop":
            values[name] = figures.get("spectra.mlp_train.flop", 0) / 1e9
        elif name == "spectra.mlp_train.gflop_per_s":
            busy = figures.get("spectra.mlp_train_s", 0.0)
            flop = figures.get("spectra.mlp_train.flop", 0)
            values[name] = flop / 1e9 / busy if busy > 0 else 0.0
        elif name == "io.files_written":
            values[name] = sizes[0]
        elif name == "io.bytes_written":
            values[name] = sizes[1]
        else:
            values[name] = figures.get(name, 0)
    return values


def measure_setup(config: dict, trace: bool):
    """Spawn-to-ready seconds per probe, or with ``trace`` the median self
    import seconds per package; run before this process imports numpy."""
    probes = [_probe(config, dict(os.environ), importtime=trace)
              for _ in range(SETUP_PROBES)]
    if not trace:
        return [elapsed for elapsed, _ in probes], {}
    logs = [import_seconds(log) for _, log in probes]
    return [], {pkg: statistics.median(d.get(pkg, 0.0) for d in logs)
                for pkg in ("numpy", "scipy", "resectsim")}


@dataclass
class Trials:
    untraced: list = field(default_factory=list)  # seconds per trial
    traced: list = field(default_factory=list)
    references: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    layers: list = field(default_factory=list)  # (figures, metrics) per trial
    attempted: int = 0
    failed: int = 0


def run_trials(harness, workload, calls, trials_dir: Path, seconds: float,
               tracer, layer_names, imports) -> Trials:
    """Timed trials until the next one would end after ``seconds``; with a
    tracer, every second trial is traced."""
    import spans

    configs = [harness.ExperimentConfig.from_dict(c.config) for c in calls]
    out = Trials()
    cycles = []
    window_t0 = time.perf_counter()
    k = 0
    while True:
        cycle_t0 = time.perf_counter()
        d = trials_dir / f"t{k}"
        traced = tracer is not None and k % 2 == 1
        if traced:
            with spans.instrumented(tracer), tracer.root(k):
                secs, failed, timings = run_calls(harness, calls, configs, d)
        else:
            secs, failed, timings = run_calls(harness, calls, configs, d)
        (out.traced if traced else out.untraced).append(secs)
        out.attempted += len(calls)
        out.failed += len(failed)
        fails, digest, sizes = check_trial(workload, calls, failed, d)
        out.failures += [f"trial {k}: {m}" for m in fails]
        out.digests.append(digest)
        if traced:
            figures = spans.trial_figures(tracer, k)
            out.layers.append((figures, layer_metrics(
                layer_names, figures, timings, sizes, imports)))
        shutil.rmtree(d)
        gc.collect()  # free this trial's garbage before the next one
        out.references.append(reference_seconds())
        cycles.append(time.perf_counter() - cycle_t0)
        k += 1
        elapsed = time.perf_counter() - window_t0
        if k >= MIN_TRIALS and elapsed + statistics.median(cycles) > seconds:
            break
    if any(dg != out.digests[0] for dg in out.digests):
        out.failures.append("artifact digests differ between trials: "
                            + " ".join(dg[:12] for dg in out.digests))
    return out


def main(argv=None) -> int:
    if not (SRC / "resectsim" / "__init__.py").is_file():
        print(f"bench: no resectsim sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)  # before anything imports numpy
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(SRC, quiet=1)
    calls = workload.trial_calls(args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    run_t0 = time.perf_counter()
    setup, imports = measure_setup(calls[0].config, bool(args.trace))

    import numpy
    import scipy
    from resectsim import harness
    import spans

    trials_dir = OUT / "trials" / tag
    shutil.rmtree(trials_dir, ignore_errors=True)
    warmup = workload.warmup_calls(args.seed)
    run_calls(harness, warmup,
              [harness.ExperimentConfig.from_dict(c.config) for c in warmup],
              trials_dir / "warmup")
    gc.collect()
    tracer = spans.Tracer() if args.trace else None
    layer_names = [m["name"] for m in spec["per_layer"]]
    t = run_trials(harness, workload, calls, trials_dir, args.seconds,
                   tracer, layer_names, imports)
    shutil.rmtree(trials_dir, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "run_s": time.perf_counter() - run_t0,
        "machine": {"cores": os.cpu_count(), "numpy": numpy.__version__,
                    "scipy": scipy.__version__,
                    **{var: os.environ[var] for var in SINGLE_THREAD}},
        "setup_samples_s": setup, "import_medians_s": imports,
        "trial_samples_s": t.untraced, "traced_trial_samples_s": t.traced,
        "reference_samples_s": t.references, "digest": t.digests[0],
        "failures": t.failures, "attempted": t.attempted, "failed": t.failed,
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(calls)} runner calls per trial")
    print(f"machine: {os.cpu_count()} cores, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, OPENBLAS_NUM_THREADS=1")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        metrics = {name: statistics.median(v[name] for _, v in t.layers)
                   for name in layer_names}
        for name in layer_names:
            print(f"{name} {metrics[name]} {units[name]}")
        traced_s = statistics.median(t.traced)
        untraced_s = statistics.median(t.untraced)
        gaps = [f["_self_sum_s"] - f["_root_s"] for f, _ in t.layers]
        roots = [f["_root_s"] for f, _ in t.layers]
        print(f"tracing overhead: traced trial_s {traced_s} s - untraced "
              f"trial_s {untraced_s} s = {traced_s - untraced_s} s "
              f"({len(t.traced)} traced, {len(t.untraced)} untraced)")
        print(f"self times: sum of self times minus root span, per traced "
              f"trial: {gaps} s (root spans {roots} s)")
        trace_file = OUT / "traces" / f"{tag}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_file, run_t0, workload=args.workload, seed=args.seed)
        print(f"trace file: {trace_file.relative_to(ROOT)}")
        record.update(overhead_s=traced_s - untraced_s, self_time_gaps_s=gaps,
                      layer_samples=[v for _, v in t.layers])
    else:
        metrics = {"setup_s": statistics.median(setup),
                   "trial_s": statistics.median(t.untraced),
                   "peak_rss_mib": peak_rss_mib}
        print(f"setup_s {metrics['setup_s']} s (median of {len(setup)} "
              f"fresh interpreters: {setup})")
        print(f"trial_s {metrics['trial_s']} s (median of {len(t.untraced)} "
              f"trials: {t.untraced})")
        print(f"peak_rss_mib {peak_rss_mib} MiB")
    print(f"reference_s {statistics.median(t.references)} s (fixed "
          f"computation between trials, median of {len(t.references)}; a "
          f"host-drift figure, not a metric)")
    print(f"attempted {t.attempted} failed {t.failed} "
          f"checks {'passed' if not t.failures else 'FAILED'}")
    for m in t.failures:
        print(f"check failed: {m}", file=sys.stderr)
    record["metrics"] = metrics
    rec_file = OUT / "records" / f"{tag}-trace{args.trace}.json"
    rec_file.parent.mkdir(parents=True, exist_ok=True)
    rec_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not t.failures, "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(3)
