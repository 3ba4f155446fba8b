"""Byte-identity guard: the SHA-256 of every artifact of twelve fixed runs.

Refactors must leave artifacts byte-identical (acceptance criterion 11 run
across versions of the code, not only across repeats). The digests below
were recorded before the ROI and e2e scan loops were merged into one; the
marker digests were recorded before the laser calibration's start point
became fixed, and the roi-polygon-noisy digests (the one run whose true
tumor region is a polygon, with integer vertices) before the region
wrapper types gave way to plain vertex arrays. The two runs on a bumped and
capped plane (ROI at 400 points, and e2e with OCT noise) were recorded
before ``intersect_scene`` cast whole plans at once. The 400-point e2e run
on the default scene (a 400-tag tumor map and a larger hull) was recorded
before the region raster became a scanline fill and the PLY writer
formatted whole columns. The ROI run with the MLP classifier (two epochs,
whose edge errors take the bucket-grid side of ``nearest_neighbor``) was
recorded before the OCT render became band-limited and the grid search came
in; its digests are the same with one BLAS thread and with the default
count. The trajectory run with a beam tilted 30 degrees (its calibration
recovers a tilted beam, and every plan step moves the spot off the
waypoint's vertical) was recorded before the plan's Newton loop and the
laser calibration's residual became array passes. The e2e run with the MLP
classifier (two epochs on 20 spectra a class; the one pin on
``mlp_model.json``, its ``scan_spectra.csv`` and its MLP verdicts) was
recorded before the scan's spectra and verdicts became one array pass over
the raster; its digests are the same with one BLAS thread and with the
default count. A digest changes only
when the artifact's bytes do; if a change is meant to alter an artifact,
re-record its digest and say why. Every pin is checked twice: here, with
OpenBLAS's default thread count, and in a fresh interpreter with one BLAS
thread, the count the benchmark runs with. The two pins that train on two
threads run a third time with the interpreter switching threads every
microsecond.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resectsim
from resectsim.harness import (
    ExperimentConfig,
    run_end_to_end,
    run_marker_experiment,
    run_roi_experiment,
    run_trajectory_experiment,
)

# a bumped plane with a polygon tumor and a healthy disc painted over it
POLYGON_SCENE = {
    "primitives": [
        {"kind": "plane", "z": 3.0},
        {"kind": "gauss_bump", "center": [6, 6], "sigma": 2, "height": 1},
    ],
    "regions": [
        {"label": "tumor", "kind": "polygon",
         "vertices": [[2, 2], [10, 3], [9, 10], [3, 9]]},
        {"label": "healthy", "kind": "disc", "center": [6, 6], "radius": 1},
    ],
}

# a plane with a Gaussian bump and a sphere cap under a disc tumor
BUMPY_SCENE = {
    "primitives": [
        {"kind": "plane", "z": 3.0},
        {"kind": "gauss_bump", "center": [6, 6], "sigma": 2, "height": 1},
        {"kind": "sphere_cap", "center": [4, 8], "radius": 2.5,
         "height": 1.2},
    ],
    "regions": [
        {"label": "tumor", "kind": "disc", "center": [6.3, 6.4], "radius": 4},
    ],
    "albedo": {"default": 0.9, "tumor": 0.35},
}

RUNS = {
    "e2e-tumorid-noisy": (run_end_to_end, dict(
        seed=5, profile="tumorid", noiseless=False, classifier="threshold",
        scan_points=16)),
    "e2e-400": (run_end_to_end, dict(
        seed=5, noiseless=False, classifier="threshold", scan_points=400)),
    "roi-noisy": (run_roi_experiment, dict(
        seed=5, noiseless=False, classifier="threshold", scan_points=100)),
    "roi-noiseless": (run_roi_experiment, dict(
        seed=5, noiseless=True, classifier="threshold", scan_points=100)),
    "roi-mlp": (run_roi_experiment, dict(
        seed=5, noiseless=False, classifier="mlp", scan_points=100,
        mlp_epochs=2)),
    "roi-polygon-noisy": (run_roi_experiment, dict(
        seed=3, noiseless=False, classifier="threshold", scan_points=100,
        scene=POLYGON_SCENE)),
    "roi-bumpy-400": (run_roi_experiment, dict(
        seed=7, noiseless=False, classifier="threshold", scan_points=400,
        scene=BUMPY_SCENE)),
    "e2e-bumpy-oct-noise": (run_end_to_end, dict(
        seed=7, noiseless=False, classifier="threshold", scan_points=100,
        oct_noise=0.05, scene=BUMPY_SCENE)),
    "trajectory-diode-noisy": (run_trajectory_experiment, dict(
        seed=5, profile="diode", noiseless=False)),
    "marker-fiber-noisy": (run_marker_experiment, dict(
        seed=5, profile="fiber", noiseless=False)),
    "trajectory-diode-tilt30-noisy": (run_trajectory_experiment, dict(
        seed=5, profile="diode", noiseless=False, tilt_deg=30.0)),
    "e2e-mlp": (run_end_to_end, dict(
        seed=5, noiseless=False, classifier="mlp", scan_points=100,
        mlp_epochs=2, mlp_train_per_class=20)),
}

DIGESTS = {
    "e2e-tumorid-noisy": {
        "actual_spots.ply":
            "f8a2d52a179144452710a446d7bca2b3ab2368eefaf53d3fb59cfc12682b0ef9",
        "boundary.json":
            "3cd66791f708c62437c975fea8ec0992012e3fc2892cb50b5793685eaacc6716",
        "calibration_observations.csv":
            "bfec7777eeed601098ed28557fc6ec35d8dc8e42cd233b7fd5e88f716f7dee95",
        "camera_extrinsics.json":
            "9af453835ca19be694a10a117de4236d744d4af6098b8ce6656e67671a685b75",
        "cut_plan.csv":
            "b0735728d9eff6c682f2f5703e27ff9ef4b6c455e3662da8cba12e95b09d8fe1",
        "e2e_report.json":
            "f6de80b2caaace63c9b1b725f1047a1dbc7344d860c77d24e073b972a179071a",
        "laser_calibration.json":
            "36933e0aa776c7feefcd8f1ffe2e057a4312d0bfa3496d4b8d1cd42fe4cd3cdb",
        "oct_volume.f32":
            "28523e990c4ff1cc464ef294ce43d87e71ba9ede1ad9d717e14074f556f0e07a",
        "oct_volume.json":
            "b35010ab19bc05072d09b3a8a967f7195da00470212267e827f61c807d4bac90",
        "post_resection_surface.ply":
            "0885a1a2ae53d9d7563ae061d0afabc56b2bfcbe1175a7882e2dd6062b38661d",
        "region_ledger.csv":
            "18d66c1d8092de9384d56abae954225418bd481576ba2e59f05f4c2a87cb9eca",
        "scan_spectra.csv":
            "8cfe53342b210b2909371795bbf2b02e0c53344082f2276323f04a027e87e7d1",
        "scan_spectra.sidecar.json":
            "e0a8d9203181faaa99294b918ec26f22c57ab0fa48bb2aefd59ba940a6e62c83",
        "surface.ply":
            "846193670f45dc0d9ed18e6fa5291836d5cbbaf43370c10bdebdc9d02816306b",
        "tumor_map.ply":
            "67f83b6926aec1e799e1619b62f26c72a34e27e39e6b319c1cef6f8e8460ac66",
    },
    "e2e-400": {
        "actual_spots.ply":
            "ac8b96e7017a823b8b2ccb347f0230d3a06013342bfb7f38dbbb3905b71efed5",
        "boundary.json":
            "ea555a9773ee1f62dbe49eb45f6241ebb637732a43f2e0065290237b8a5a8493",
        "calibration_observations.csv":
            "a67669195e6016bb501ce9df8e3aa4d8406b604981a3d64738acd226f99433d6",
        "camera_extrinsics.json":
            "9af453835ca19be694a10a117de4236d744d4af6098b8ce6656e67671a685b75",
        "cut_plan.csv":
            "463402b6c1a19900a64ac1a829e019d9c941388278212f90659469b465af8868",
        "e2e_report.json":
            "6c1b570b0f7481fe43b6a67e39ca1f26d68fe631a0263fd8f6c66fc3d1796ef3",
        "laser_calibration.json":
            "83a8340bc81d798df5b6fa47eba3775cfd99ee47a40ce8e2d4ab16ede8e18cf1",
        "oct_volume.f32":
            "28523e990c4ff1cc464ef294ce43d87e71ba9ede1ad9d717e14074f556f0e07a",
        "oct_volume.json":
            "b35010ab19bc05072d09b3a8a967f7195da00470212267e827f61c807d4bac90",
        "post_resection_surface.ply":
            "f9e7118a0781cf2b57a84ed467987fcc52ff9e9a734ccc44be9363b0c7215289",
        "region_ledger.csv":
            "71de09779d3405f6e0dddfa6cf9af076cc4839b478c6c010153cca8cb14fe5f9",
        "scan_spectra.csv":
            "3845a7431e8125db63b16fba06740762dbd263f4a59b299260bafc8757f4271c",
        "scan_spectra.sidecar.json":
            "a0ae79771f7deb67e2c21f0042d8cbd7b5090d2dcadc8249bfadac40a7fdd4d7",
        "surface.ply":
            "846193670f45dc0d9ed18e6fa5291836d5cbbaf43370c10bdebdc9d02816306b",
        "tumor_map.ply":
            "e498904286aaf42a811e678089e75f646575014909d8903fe11c99fa6a31d06c",
    },
    "roi-noisy": {
        "laser_calibration.json":
            "83a8340bc81d798df5b6fa47eba3775cfd99ee47a40ce8e2d4ab16ede8e18cf1",
        "region_ledger.csv":
            "7dc66154f899339704bc722611f867bf37561503d45501ee51cd7e0e2d4b574b",
        "roi_boundary.json":
            "abebc2c62ed2a9e7303dbfb4d237c0460e8d290a93d507205a473d6d580d635d",
        "roi_plan.csv":
            "e60d8aa55473a1f2f402ead47ffb987257066fb1da7fe230625e87ffe3d94807",
        "roi_report.json":
            "1f9f8a261cdcf0a85867fa9b0d420ce923e8c5b9dc6277beb7eabad3fc6ee254",
        "roi_tags.ply":
            "d1136bd06a908397ffa24048fe4bb6f269c8c6a4a13ff197b6c935aad10d7791",
    },
    "roi-noiseless": {
        "laser_calibration.json":
            "4e8c3c2e16191d01fb531c1d0d32f193eff9d1acddb41adbc207f881ae5fe8ae",
        "region_ledger.csv":
            "0b91258f0f5823f2fae8699437bfb2b5eb25c5e0d80e502bdff5257cd0b4c714",
        "roi_boundary.json":
            "d113111da27ffa71c83b41a95be089cb1b34afab97c18b9333a305b531986156",
        "roi_plan.csv":
            "bfb5bc4f40b90228c2b227b15237afb4fa57ffee03c1637655d1bfb1edf574ec",
        "roi_report.json":
            "6022aa0122d31dc8647bee8b4414a18368da7ad79e149c3b26db74897d065173",
        "roi_tags.ply":
            "5da50744459e5f84c528eb462c077dc123eadbe77398988ed26c6e1275d6be8f",
    },
    "roi-mlp": {
        "laser_calibration.json":
            "83a8340bc81d798df5b6fa47eba3775cfd99ee47a40ce8e2d4ab16ede8e18cf1",
        "region_ledger.csv":
            "7dc66154f899339704bc722611f867bf37561503d45501ee51cd7e0e2d4b574b",
        "roi_boundary.json":
            "abebc2c62ed2a9e7303dbfb4d237c0460e8d290a93d507205a473d6d580d635d",
        "roi_plan.csv":
            "e60d8aa55473a1f2f402ead47ffb987257066fb1da7fe230625e87ffe3d94807",
        "roi_report.json":
            "7ba4342abfe793dcf5126051eec6faf249cb7f7a360b95de8b16457e4db6fc3c",
        "roi_tags.ply":
            "d1136bd06a908397ffa24048fe4bb6f269c8c6a4a13ff197b6c935aad10d7791",
    },
    "roi-polygon-noisy": {
        "laser_calibration.json":
            "a0bb1279ed1997eeea63da0b8be7a842db52fd9f958d1a00b77901904d9ad07b",
        "region_ledger.csv":
            "b7225b6b536d2e764f5d22bc73e152e8be34d78d3de83a9643da0bb32ca95e7c",
        "roi_boundary.json":
            "aa56a68a8ea05fed7311fb11c2371f3ab39b788d313bf55b16272f05f9abf487",
        "roi_plan.csv":
            "1a8a127fc9648ceae2be804c6210d3a531c72e0b39d5ab2fac90fad77c33b61a",
        "roi_report.json":
            "4cb7f34e36d8454dd399975107904d44d3a98311344152ba2e87e171ce606ab9",
        "roi_tags.ply":
            "4b75521ab440db0e0c0a94c3e487305269c3e9d9b3d93c3d376d1ab8fee972da",
    },
    "roi-bumpy-400": {
        "laser_calibration.json":
            "2ad17afc785145fe8d2219596e1848dbe27932ee6a009ab9014f22de53379231",
        "region_ledger.csv":
            "2f3429e8bc6afeae50de4f1458e8659a88e0fef7a0d78693541e71bab98cc8ff",
        "roi_boundary.json":
            "1b745a8645b9a9cea4b7faae7d8cea4e15d1c6f084ec6487e453457cf2217d7c",
        "roi_plan.csv":
            "554b4f1891228785d6f75da112f0cbf9fe8d92a0be73d02645f23cd60c7cc24a",
        "roi_report.json":
            "d0f213b01dcc982948ede4eb8e9b9c57ba1739020271a1f05ca646abcd021a26",
        "roi_tags.ply":
            "9297fb67ebb6cbbc7dc80ab4b9a36ea299d82774ac45410d35aaeb4174713e36",
    },
    "e2e-bumpy-oct-noise": {
        "actual_spots.ply":
            "cdb45244c8bb2a471b542c6c865f3518b6371ddd4a8852ed39ce3d4e1ccaefda",
        "boundary.json":
            "7fb6ba6a23fc2faad935c072a82b454634534bc06a87251945494d76fd7fe96a",
        "calibration_observations.csv":
            "fb19f8e4198e9ee01dfa3ac9bffb5fb28cf5339a3388049e8e5c16e51f0371c9",
        "camera_extrinsics.json":
            "8238c4a2e10835bf1e3e3ba6c844562088316fe5124692b86f4c1c01cc11f86c",
        "cut_plan.csv":
            "4757cdb812febbcc90f87a9dfff3b70c281f383c230111205387583fa9bffa99",
        "e2e_report.json":
            "9603b3845574764078b81dd094bf6bd91e12502c9fe0fa21d415d782eb02195d",
        "laser_calibration.json":
            "2ad17afc785145fe8d2219596e1848dbe27932ee6a009ab9014f22de53379231",
        "oct_volume.f32":
            "24b0715887cfd980e78f21d3db349d6d9020912baf04b03002a2124d47241085",
        "oct_volume.json":
            "b35010ab19bc05072d09b3a8a967f7195da00470212267e827f61c807d4bac90",
        "post_resection_surface.ply":
            "eb0538146791c56617a13b48049d5a8c759437f730cf9f3f5b3f1353ea08534d",
        "region_ledger.csv":
            "d2b2a875efa4079fcc0b4a912759f5885fcef0716c46467098996c3acc536c82",
        "scan_spectra.csv":
            "3423f9c4a218524f93b04c6708abb230d4061381f7f350340e519df8ac455e4d",
        "scan_spectra.sidecar.json":
            "dd4eada1b064f2ef4191611fe2528ac4ef6c3334f756c447139827295ffbcf4c",
        "surface.ply":
            "e79969ea5d8e5b20263ca75d9ab69d50cc65c83781569e82fb35a1af94fdc407",
        "tumor_map.ply":
            "02c1a30eda6e3b36664e222a76a7aea1a8f26eade9519393ec5db2c58586bdce",
    },
    "trajectory-diode-noisy": {
        "laser_calibration.json":
            "83a8340bc81d798df5b6fa47eba3775cfd99ee47a40ce8e2d4ab16ede8e18cf1",
        "trajectory_plan.csv":
            "ea3eecd515ed88d92f3b70aab89d2984547fad7ed2ac535ddc5a926c09eddca7",
        "trajectory_report.json":
            "2f2b2270a6519876f98e3cf0a65b2bfa164973e4b3a8c3955512b59387711c51",
    },
    "marker-fiber-noisy": {
        "calibration_observations.csv":
            "f988ffb3125f4d89a31299741cac10323af747f0fa0bbfcbdc6381ae714e5ca1",
        "laser_calibration.json":
            "6d2dee5b01e4209096277b21d7e4e4d97be1bcac15371deeb90d674a535e8de8",
        "marker_plan.csv":
            "24ffe19f90a8771755d091f0e88e3893c2c25322b8d20769c6c568f4bf2f9ff7",
        "marker_report.json":
            "69d9d6cfdd989cc12c67a7e14f6fc7d4b5face4eb96ca3a8ddcc4829fd7bfa26",
    },
    "trajectory-diode-tilt30-noisy": {
        "laser_calibration.json":
            "6ba1a6260d932eb17ac540149cafa3133db45e848c68e9c73f9b5d3f94a808f0",
        "trajectory_plan.csv":
            "56415b80a67e6eb09b2deb0d8430f8c6dbd5dcf6d7ebd6da0f8d963d4885e3ed",
        "trajectory_report.json":
            "650d9daf1d0e2b53cfcd13b251b8fa1f1cec11a92f28f6e8b8de861359ed731f",
    },
    "e2e-mlp": {
        "actual_spots.ply":
            "73e6ae459ff8b7f0d7bebcb3fc796c89ddfb7e46dcc49c2b49daeacfd5bdfb0d",
        "boundary.json":
            "57cb2a21b5a5f5f77f992417f3a5fd1696daef9bb0ec4bca805a4ea5ddb8b1c0",
        "calibration_observations.csv":
            "a67669195e6016bb501ce9df8e3aa4d8406b604981a3d64738acd226f99433d6",
        "camera_extrinsics.json":
            "9af453835ca19be694a10a117de4236d744d4af6098b8ce6656e67671a685b75",
        "cut_plan.csv":
            "f4c3196778369bee8a52ba04acc05711edb4c278158a37e582ad1a3c70c13afb",
        "e2e_report.json":
            "af75c5e8542e1b7c096c64082e8259610ced5189a0bc3a5df2806b324c0a0aca",
        "laser_calibration.json":
            "83a8340bc81d798df5b6fa47eba3775cfd99ee47a40ce8e2d4ab16ede8e18cf1",
        "mlp_model.json":
            "39a787506c4100ebbbb6c27eb6e253758fd50ede555d2a1905bc1efcf8b4b3d0",
        "oct_volume.f32":
            "28523e990c4ff1cc464ef294ce43d87e71ba9ede1ad9d717e14074f556f0e07a",
        "oct_volume.json":
            "b35010ab19bc05072d09b3a8a967f7195da00470212267e827f61c807d4bac90",
        "post_resection_surface.ply":
            "87ff31138edbc0c2ffd9374bb8a3608371b11665c0eb85291f7a22ccd2af9d1e",
        "region_ledger.csv":
            "2ee95dc33ecbca1c7c11c285c9772a3257d8bd63741aad8a9c3754f964e6f577",
        "scan_spectra.csv":
            "e18e2e178e25bc0efbb72e2d34be9109c64f50cc0655f787add2850601d06611",
        "scan_spectra.sidecar.json":
            "f1d5bcb642923a8a0e54a2d53796e26a04bd9e479fddeee638068b2d9f194bd5",
        "surface.ply":
            "846193670f45dc0d9ed18e6fa5291836d5cbbaf43370c10bdebdc9d02816306b",
        "tumor_map.ply":
            "b505634e9f7b9176a8dca55f42f3019cf382991ed2572a36de1fbc84705cecf0",
    },
}


def assert_pin_holds(run, out):
    runner, cfg = RUNS[run]
    runner(ExperimentConfig(**cfg), out)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    expected = DIGESTS[run]
    assert sorted(got) == sorted(expected), "artifact names changed"
    changed = sorted(name for name in expected if got[name] != expected[name])
    assert not changed, f"{run}: artifacts changed: {changed}"


@pytest.mark.parametrize("run", list(RUNS))
def test_artifacts_byte_identical(tmp_path, run):
    assert_pin_holds(run, tmp_path)


@pytest.mark.parametrize("run", ["roi-mlp", "e2e-mlp"])
def test_pins_hold_under_a_fine_thread_schedule(tmp_path, run):
    # the two pins that train on two threads; a 1 us switch interval hands
    # the interpreter between them as often as it can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert_pin_holds(run, tmp_path)
    finally:
        sys.setswitchinterval(interval)


def test_pins_hold_with_one_blas_thread(tmp_path):
    # a run is a pure function of (config, seed) whatever the thread count;
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when it loads, so the pins
    # run again in a fresh interpreter
    src = str(Path(resectsim.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_artifacts_byte_identical"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
    assert f"{len(RUNS)} passed" in proc.stdout
