import filecmp
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resectsim
from resectsim.cli import main

NO_TUMOR = {
    "seed": 1,
    "classifier": "perfect",
    "scene": {
        "primitives": [{"kind": "plane", "z": 3.0}],
        "regions": [],
        "albedo": {"default": 0.9},
    },
    "scan_points": 64,
}


def write_cfg(tmp_path, **extra):
    cfg = {"seed": 1, "scan_points": 64, "noiseless": True, **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_import_loads_no_scipy():
    # every command pays its imports before the first stage, and scipy's
    # submodules take about a second to load; concurrent.futures, which only
    # MLP training uses, about 7 ms. A fresh interpreter shows what
    # importing the CLI alone pulls in
    src = str(Path(resectsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = ("import json, sys, resectsim.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('concurrent.futures'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        rc = main(["--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o"), "phantom", "marker"])
        assert rc == 2

    def test_no_config_no_seed(self, tmp_path):
        rc = main(["--out", str(tmp_path / "o"), "phantom", "marker"])
        assert rc == 2

    def test_marker_ok(self, tmp_path):
        cfg = write_cfg(tmp_path)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                   "phantom", "marker"])
        assert rc == 0
        assert (tmp_path / "o" / "marker_report.json").exists()

    def test_degenerate_region_exit_3(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(NO_TUMOR))
        rc = main(["--config", str(path), "--out", str(tmp_path / "o"), "e2e"])
        assert rc == 3

    def test_no_mapped_scan_point_exit_3(self, tmp_path, capsys):
        # a raster far wider than the imaging field: every spot misses the
        # scanned surface, so the scan stops before writing any spectra
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"seed": 1, "scan_points": 4, "scan_extent": [400.0, 400.0]}))
        rc = main(["--config", str(path), "--out", str(tmp_path / "o"), "e2e"])
        assert rc == 3
        assert "none of 4 scan points mapped" in capsys.readouterr().err
        assert not (tmp_path / "o" / "scan_spectra.csv").exists()

    @pytest.mark.parametrize("command, extra", [
        (["e2e"], {"scan_points": 50}),
        (["phantom", "roi"], {"scene": {
            "primitives": [{"kind": "sphere_cap", "center": [6.3, 6.4],
                            "radius": 4.0, "height": 0}],
            "regions": [{"label": "tumor", "kind": "disc",
                         "center": [6.3, 6.4], "radius": 5.0}]}}),
        (["e2e"], {"oct_noise": 0.25, "scan_points": 16}),
        (["e2e"], {"mlp_epochs": 0}),
        (["e2e"], {"mlp_train_per_class": 0}),
        (["phantom", "roi"], {"spot_diameter": 0.0}),
        (["e2e"], {"scan_extent": [13.0, -1.0]}),
        (["e2e"], {"scan_extent": 13.0}),
        (["e2e"], {"scan_points": 16, "scan_extent": [1e300, 1e300]}),
        (["phantom", "roi"], {"scan_points": 16,
                              "scan_extent": [1e300, 1e300]}),
        (["e2e"], {"scan_points": 16, "scan_extent": [13.0, 2000.0]}),
        (["e2e"], {"scan_points": 16, "spot_diameter": 1e200}),
        (["phantom", "marker"], {"tilt_deg": 180}),
        (["phantom", "marker"], {"tilt_deg": -90}),
        (["phantom", "roi"], {"scan_points": 16, "scene": {
            "primitives": [{"kind": "plane", "z": 3.0}],
            "regions": [{"kind": "disc", "center": [6.3, 6.4],
                         "radius": 5.0}]}}),
        (["phantom", "roi"], {"scan_points": 16, "scene": {
            "primitives": [{"kind": "plane", "z": 3.0}],
            "regions": [{"label": "tumor", "kind": "polygon",
                         "vertices": [[2.0, 2.0], [10.0, 10.0]]}]}}),
        (["e2e"], {"scan_points": 16, "scene": {
            "primitives": [{"kind": "plane", "z": 3.0}],
            "regions": [{"label": "tumor", "kind": "disc",
                         "center": [6.3, 6.4], "radius": 5.0},
                        {"label": "necrosis", "kind": "disc",
                         "center": [9.0, 9.0], "radius": 2.0}]}}),
        (["e2e"], {"scan_points": 16, "scene": {
            "primitives": [{"kind": "plane", "z": 3.0}],
            "regions": [{"label": "tumor", "kind": "disc",
                         "center": [6.3, 6.4], "radius": 5.0}],
            "albedo": {"default": 1.5, "tumor": 0.35}}}),
        (["e2e"], {"scan_points": 16, "scene": {
            "primitives": [{"kind": "plane", "z": 3.0}],
            "regions": [{"label": "tumor", "kind": "disc",
                         "center": [6.3, 6.4], "radius": 5.0}],
            "albedo": {"default": 0.9, "tumor": "dark"}}}),
        (["phantom", "roi"], {"seed": "abc"}),
        (["phantom", "roi"], {"seed": 1.5}),
        (["phantom", "roi"], {"seed": -1}),
        (["phantom", "roi"], {"seed": True}),
        (["phantom", "roi"], {"tilt_deg": "x"}),
        (["phantom", "roi"], {"classifier": "mlp", "mlp_epochs": 2.5}),
        (["phantom", "roi"], {"classifier": "mlp", "mlp_train_per_class": 2.5}),
        (["phantom", "roi"], {"noiseless": "no"}),
        (["e2e"], {"scan_points": 16, "scene": []}),
        (["e2e"], {"scan_points": 16, "scene": {
            "primitives": [{"kind": "plane", "z": 3.0}],
            "regions": [{"label": "tumor", "kind": "disc", "center": [1],
                         "radius": 5.0}]}}),
        (["e2e"], {"scan_points": 16, "scene": {
            "primitives": [{"kind": "plane", "z": "3"}]}}),
        (["e2e"], {"scan_points": 16, "scene": {
            "primitives": [{"kind": "plane", "z": None}]}}),
        (["e2e"], {"scan_points": 16, "scene": {
            "primitives": [{"kind": "plane", "z": 3.0},
                           {"kind": "gauss_bump", "center": [6.3, 6.4, 0.0],
                            "sigma": 2.0, "height": 1.0}]}}),
        (["e2e"], {"scan_points": 16, "scene": {
            "primitives": [{"kind": "plane", "z": 3.0}],
            "regions": [{"label": "tumor", "kind": "polygon",
                         "vertices": [[2.0, 2.0], [10.0, 2.0], [1, "a"]]}]}}),
        (["e2e"], {"scan_points": 16, "scene": {
            "primitives": [{"kind": "plane", "z": 3.0}], "domain": [0, 0]}}),
    ], ids=["non-square-scan-points", "flat-sphere-cap", "oct-noise-too-high",
            "zero-mlp-epochs", "zero-mlp-train-per-class", "zero-spot-diameter",
            "negative-scan-extent", "scalar-scan-extent",
            "huge-scan-extent-e2e", "huge-scan-extent-roi",
            "scan-extent-over-bound", "huge-spot-diameter", "upward-tilt",
            "horizontal-tilt", "region-without-label",
            "two-vertex-polygon", "unknown-region-label", "albedo-above-one",
            "string-albedo", "string-seed", "float-seed", "negative-seed",
            "bool-seed", "string-tilt", "float-mlp-epochs",
            "float-mlp-train-per-class", "string-noiseless", "list-scene",
            "one-number-disc-center", "string-plane-z", "null-plane-z",
            "three-number-bump-center", "string-polygon-vertex",
            "two-number-domain"])
    def test_invalid_config_exits_2_before_writing(self, tmp_path, capsys,
                                                   command, extra):
        cfg = write_cfg(tmp_path, **extra)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                   *command])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, extra", [
        (["phantom", "marker"], {"tilt_deg": 80, "noiseless": False}),
        (["phantom", "marker"], {"tilt_deg": 75, "noiseless": False}),
        (["phantom", "trajectory"], {"tilt_deg": 89}),
    ], ids=["marker-tilt-80-noisy", "marker-tilt-75-noisy",
            "trajectory-tilt-89"])
    def test_upward_calibrated_beam_exits_4(self, tmp_path, capsys, command,
                                            extra):
        # steep beams: the calibration solve converges to a beam that points
        # up, which is a solver failure, not a raw ValueError
        cfg = write_cfg(tmp_path, **extra)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                   *command])
        assert rc == 4
        assert ("solver failure: NonConvergence"
                in capsys.readouterr().err)

    def test_surface_above_the_rig_exits_1_and_counts_misses(self, tmp_path,
                                                             capsys):
        # the surface sits above every waypoint, so no beam can reach it;
        # the message says how many of the raster's rays missed
        cfg = write_cfg(tmp_path, scene={
            "primitives": [{"kind": "plane", "z": 400.0}],
            "regions": [{"label": "tumor", "kind": "disc",
                         "center": [6.3, 6.4], "radius": 5.0}]})
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                   "phantom", "roi"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "pipeline failure: NoRayHit: 64 of 64 rays" in err
        assert "first: waypoint 0" in err
        assert err.endswith("(stage scan)\n")
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
            "laser_calibration.json"]

    def test_huge_tumor_disc_exits_1_before_rasterizing(self, tmp_path,
                                                       capsys):
        # a 10 m disc passes scene validation, but comparing it with the
        # boundary at 0.02 mm would take a 1000005 x 1000005 raster
        cfg = write_cfg(tmp_path, scene={
            "primitives": [{"kind": "plane", "z": 3.0}],
            "regions": [{"label": "tumor", "kind": "disc",
                         "center": [6.3, 6.4], "radius": 10000.0}]})
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                   "phantom", "roi"])
        assert rc == 1
        err = capsys.readouterr().err
        assert ("pipeline failure: RasterTooLarge: a 1000005 x 1000005 "
                "raster") in err
        assert "Traceback" not in err

    def test_dim_scene_exits_3_naming_the_scan_stage(self, tmp_path, capsys):
        # no A-scan of an albedo-0.1 surface reaches the 0.15 threshold
        cfg = write_cfg(tmp_path, scene={
            "primitives": [{"kind": "plane", "z": 3.0}],
            "regions": [{"label": "tumor", "kind": "disc",
                         "center": [6.3, 6.4], "radius": 3.0}],
            "albedo": {"default": 0.1}})
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "e2e"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == ("degenerate region: EmptySurface: no A-scan max "
                       "reached threshold 0.15 (stage scan)\n")
        # the pass ended before the empty surface raised: both files stand
        assert (tmp_path / "o" / "oct_volume.f32").exists()
        assert (tmp_path / "o" / "oct_volume.json").exists()

    def test_bad_config_json(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        rc = main(["--config", str(path), "--out", str(tmp_path / "o"),
                   "phantom", "roi"])
        assert rc == 2
        # raised while loading the config, before any stage
        assert "(stage" not in capsys.readouterr().err


class TestStages:
    def test_calibrate_stage(self, tmp_path):
        cfg = write_cfg(tmp_path)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                   "calibrate"])
        assert rc == 0
        assert (tmp_path / "o" / "laser_calibration.json").exists()
        assert not (tmp_path / "o" / "oct_volume.f32").exists()

    def test_seed_override(self, tmp_path):
        cfg = write_cfg(tmp_path)
        rc = main(["--config", str(cfg), "--seed", "77",
                   "--out", str(tmp_path / "o"), "phantom", "marker"])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "marker_report.json").read_text())
        assert report["seed"] == 77

    def test_profile_override(self, tmp_path):
        cfg = write_cfg(tmp_path)
        rc = main(["--config", str(cfg), "--profile", "fiber",
                   "--out", str(tmp_path / "o"), "phantom", "marker"])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "marker_report.json").read_text())
        assert report["profile"] == "fiber"


class TestDeterminism:
    def test_roi_byte_identical_across_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, noiseless=False, classifier="threshold")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "a"),
                     "phantom", "roi"]) == 0
        assert main(["--config", str(cfg), "--out", str(tmp_path / "b"),
                     "phantom", "roi"]) == 0
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name


def _scene():
    num = st.floats(-3.0, 16.0)
    xy = st.tuples(num, num).map(list)
    plane = st.builds(lambda z: {"kind": "plane", "z": z}, st.floats(-5, 20))
    bump = st.builds(lambda c, s, h: {"kind": "gauss_bump", "center": c,
                                      "sigma": s, "height": h},
                     xy, st.floats(0.05, 8.0), st.floats(-4.0, 6.0))
    cap = st.builds(lambda c, r, h: {"kind": "sphere_cap", "center": c,
                                     "radius": r, "height": h},
                    xy, st.floats(0.05, 8.0), st.floats(0.05, 8.0))
    disc = st.builds(lambda lab, c, r: {"label": lab, "kind": "disc",
                                        "center": c, "radius": r},
                     st.sampled_from(["tumor", "healthy"]), xy,
                     st.floats(0.05, 12.0))
    polygon = st.builds(lambda lab, v: {"label": lab, "kind": "polygon",
                                        "vertices": v},
                        st.sampled_from(["tumor", "healthy"]),
                        st.lists(xy, min_size=3, max_size=6))
    unit = st.floats(0.0, 1.0)
    return st.fixed_dictionaries({
        "primitives": st.lists(st.one_of(plane, bump, cap), min_size=1,
                               max_size=3),
        "regions": st.lists(st.one_of(disc, polygon), max_size=3),
        "albedo": st.fixed_dictionaries({"default": unit},
                                        optional={"tumor": unit,
                                                  "healthy": unit}),
    })


RUN_CONFIGS = st.fixed_dictionaries({
    "seed": st.integers(0, 1000),
    "scan_points": st.sampled_from([4, 9, 16, 36, 64, 100]),
}, optional={
    "scene": _scene(),
    "scan_extent": st.tuples(st.floats(0.5, 30.0),
                             st.floats(0.5, 30.0)).map(list),
    "profile": st.sampled_from(["diode", "tumorid", "fiber"]),
    "classifier": st.sampled_from(["threshold", "perfect", "mlp"]),
    "noiseless": st.booleans(),
    "tilt_deg": st.one_of(st.none(), st.floats(-89.0, 89.0)),
    "spot_diameter": st.floats(0.01, 20.0),
    "uncertain_policy": st.sampled_from(["healthy", "tumor"]),
    "oct_noise": st.one_of(st.just(0.0), st.floats(0.0, 0.099)),
    "mlp_epochs": st.integers(1, 2),
    "mlp_train_per_class": st.integers(1, 8),
})

EXIT_PREFIXES = {1: "pipeline failure: ", 2: "config error: ",
                 3: "degenerate region: ", 4: "solver failure: "}


@settings(max_examples=20)
@given(cfg=RUN_CONFIGS, command=st.sampled_from([["e2e"],
                                                  ["phantom", "roi"]]))
def test_whole_runs_exit_with_a_documented_code(cfg, command):
    # a config that constructs runs to exit 0 or to a PipelineError's exit
    # code and message; a raw exception would escape main() and fail here
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, redirect_stderr(err), \
            redirect_stdout(io.StringIO()):
        path = Path(d) / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["--config", str(path), "--out", str(Path(d) / "o"),
                   *command])
    err = err.getvalue()
    assert rc in (0, *EXIT_PREFIXES)
    if rc:
        assert err.startswith(EXIT_PREFIXES[rc]) and err.count("\n") == 1
