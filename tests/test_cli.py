import filecmp
import json
from pathlib import Path

import pytest

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
    ], ids=["non-square-scan-points", "flat-sphere-cap", "oct-noise-too-high",
            "zero-mlp-epochs", "zero-mlp-train-per-class", "zero-spot-diameter",
            "negative-scan-extent", "scalar-scan-extent", "region-without-label",
            "two-vertex-polygon", "unknown-region-label"])
    def test_invalid_config_exits_2_before_writing(self, tmp_path, capsys,
                                                   command, extra):
        cfg = write_cfg(tmp_path, **extra)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                   *command])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_config_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        rc = main(["--config", str(path), "--out", str(tmp_path / "o"),
                   "phantom", "roi"])
        assert rc == 2


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
