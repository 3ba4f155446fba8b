import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resectsim import io as rio
from resectsim.calibration import LaserCalibration, SpotObservations
from resectsim.errors import LengthMismatch
from resectsim.geometry import ReferenceFrame
from resectsim.kinematics import CutPlan
from resectsim.sensors import OctConfig, OctVolume
from resectsim.spectra import init_mlp

import oracles
import readers

# values that formatting once per distinct value must keep apart or print
# alike: signed zeros, non-finite values, subnormals, extremes, and
# neighbours that agree to 9 significant digits but differ in their bits
SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
                  1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
                  0.1, np.nextafter(0.1, 1.0), 123456789.0, 123456789.00000001,
                  6.3, -6.3]


class TestPly:
    def test_roundtrip_full(self, tmp_path):
        pts = np.array([[0.0, 1.5, -2.25], [10.0, 0.0, 0.125]])
        color = np.array([[255, 0, 0], [0, 255, 0]], dtype=np.uint8)
        label = np.array([1, 0])
        path = rio.write_ply_cloud(tmp_path / "c.ply", pts, color, label)
        rp, rc, rl = readers.read_ply_cloud(path)
        assert np.allclose(rp, pts, atol=1e-7)
        assert np.array_equal(rc, color)
        assert np.array_equal(rl, label)

    def test_points_only(self, tmp_path):
        path = rio.write_ply_cloud(tmp_path / "c.ply", np.zeros((3, 3)))
        rp, rc, rl = readers.read_ply_cloud(path)
        assert rc is None and rl is None
        assert len(rp) == 3

    def test_deterministic(self, tmp_path):
        pts = np.random.default_rng(0).normal(size=(20, 3))
        a = rio.write_ply_cloud(tmp_path / "a.ply", pts)
        b = rio.write_ply_cloud(tmp_path / "b.ply", pts)
        assert a.read_bytes() == b.read_bytes()


@st.composite
def ply_clouds(draw):
    """Clouds of 0 to 40 rows over a small value pool (heavy repeats), with
    optional uint8, int64 or float colours and optional labels."""
    n = draw(st.integers(0, 40))
    extra = draw(st.lists(st.floats(-1e6, 1e6), max_size=4))
    pool = np.array(SPECIAL_FLOATS + extra)
    points = pool[np.array(draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=3 * n, max_size=3 * n)),
        dtype=int)].reshape(n, 3)
    color = None
    dtype = draw(st.sampled_from([None, np.uint8, np.int64, np.float64]))
    if dtype is not None:
        values = [0, 1, 254, 255] + (
            [-0.0, 254.9, 0.5] if dtype is np.float64 else [])
        color = np.array(draw(st.lists(st.sampled_from(values),
                                       min_size=3 * n, max_size=3 * n)),
                         dtype=dtype).reshape(n, 3)
    label = None
    if draw(st.booleans()):
        label = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return points, color, label


class TestPlyAgainstOracle:
    @given(ply_clouds())
    def test_bytes_equal_row_writer(self, cloud):
        with tempfile.TemporaryDirectory() as d:
            got = rio.write_ply_cloud(Path(d) / "a.ply", *cloud)
            want = oracles.write_ply_cloud(Path(d) / "b.ply", *cloud)
            assert got.read_bytes() == want.read_bytes()

    def test_label_rows_must_match_points(self, tmp_path):
        with pytest.raises(LengthMismatch, match="match the 3 points"):
            rio.write_ply_cloud(tmp_path / "c.ply", np.zeros((3, 3)),
                                label=[0, 1])


class TestVolume:
    def test_roundtrip(self, tmp_path):
        cfg = OctConfig(n_bscans=4, n_axial=512, n_lateral=8)
        data = np.random.default_rng(1).uniform(0, 1, (4, 512, 8)).astype(np.float32)
        vol = OctVolume(data, cfg, (1.0, 2.0))
        rio.write_oct_volume(tmp_path / "vol", vol)
        back = rio.read_oct_volume(tmp_path / "vol")
        assert np.array_equal(np.stack(list(back)), data)
        assert back.origin == (1.0, 2.0)
        assert back.config.axial_pitch == cfg.axial_pitch


# unit normals that scaling to unit length leaves as they are, so a record
# read back holds the bits that were written
UNIT_NORMALS = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                (0.0, -1.0, 0.0), (0.6, 0.0, 0.8), (0.0, -0.8, 0.6)]


@st.composite
def spot_records(draw):
    """Up to six board shots of any finite doubles, subnormals and signed
    zeros included, on boards with the normals above."""
    m = draw(st.integers(0, 6))

    def column(width):
        return np.reshape(draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=m * width, max_size=m * width)), (m, width))

    normals = draw(st.lists(st.sampled_from(UNIT_NORMALS), min_size=m,
                            max_size=m))
    return SpotObservations(column(2), column(3), np.reshape(normals, (m, 3)),
                            column(3))


class TestCsv:
    @given(spot_records())
    def test_spot_observations(self, obs):
        with tempfile.TemporaryDirectory() as d:
            path = rio.write_spot_observations_csv(Path(d) / "o.csv", obs)
            back = readers.read_spot_observations_csv(path)
        for name in ("betas", "centers", "normals", "spots"):
            got, want = getattr(back, name), getattr(obs, name)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_cut_plan(self, tmp_path):
        plan = CutPlan(np.arange(6.0).reshape(2, 3),
                       np.arange(4.0).reshape(2, 2), np.array([1e-12, 2e-12]))
        path = rio.write_cut_plan_csv(tmp_path / "p.csv", plan)
        back = readers.read_cut_plan_csv(path)
        assert np.array_equal(back.targets, plan.targets)
        assert np.array_equal(back.waypoints, plan.waypoints)
        assert np.array_equal(back.residuals, plan.residuals)

    def test_spectra(self, tmp_path):
        wl = np.arange(450.0, 460.0)
        rows = np.random.default_rng(2).uniform(0, 1, (3, 10))
        rio.write_spectra_csv(tmp_path / "s", wl, rows,
                              ["m1", "m1", "m2"], ["tumor", "healthy", "tumor"])
        rwl, rrows, subj, lab = readers.read_spectra_csv(tmp_path / "s")
        assert np.array_equal(rwl, wl)
        assert np.array_equal(rrows, rows)
        assert subj == ["m1", "m1", "m2"]
        assert lab == ["tumor", "healthy", "tumor"]


@st.composite
def float_tables(draw, width):
    """(n, width) floats: the special values above mixed with any float,
    subnormals, infinities and nan included."""
    n = draw(st.integers(0, 6))
    values = draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL_FLOATS),
                  st.floats(allow_nan=True, allow_infinity=True,
                            allow_subnormal=True)),
        min_size=n * width, max_size=n * width))
    return np.array(values, dtype=float).reshape(n, width)


class TestCsvAgainstOracle:
    """The three float-table writers give the ``csv.writer`` bytes."""

    @given(float_tables(11))
    def test_spot_observations(self, table):
        obs = SimpleNamespace(betas=table[:, :2], centers=table[:, 2:5],
                              normals=table[:, 5:8], spots=table[:, 8:])
        with tempfile.TemporaryDirectory() as d:
            got = rio.write_spot_observations_csv(Path(d) / "a.csv", obs)
            want = oracles.write_spot_observations_csv(Path(d) / "b.csv", obs)
            assert got.read_bytes() == want.read_bytes()

    @given(float_tables(6))
    def test_cut_plan(self, table):
        plan = CutPlan(table[:, 2:5], table[:, :2], table[:, 5])
        with tempfile.TemporaryDirectory() as d:
            got = rio.write_cut_plan_csv(Path(d) / "a.csv", plan)
            want = oracles.write_cut_plan_csv(Path(d) / "b.csv", plan)
            assert got.read_bytes() == want.read_bytes()

    @given(float_tables(5), st.booleans())
    def test_spectra(self, table, as_list):
        wl, rows = table[:1].reshape(-1), table[1:]
        labels = ["tumor"] * len(rows)
        if as_list:
            rows = list(rows)
        with tempfile.TemporaryDirectory() as d:
            got = rio.write_spectra_csv(Path(d) / "a", wl, rows,
                                        labels, labels)
            want = oracles.write_spectra_csv(Path(d) / "b", wl, rows,
                                             labels, labels)
            for g, w in zip(got, want):
                assert g.read_bytes() == w.read_bytes()


class TestModels:
    def test_mlp_roundtrip(self, tmp_path):
        m = init_mlp(12, hidden=(8, 4, 2), seed=3)
        m.norm_mean, m.norm_std = 0.25, 1.5
        rio.write_mlp_json(tmp_path / "m.json", m)
        back = readers.read_mlp_json(tmp_path / "m.json")
        assert back.layer_sizes == m.layer_sizes
        for w1, w2 in zip(m.weights, back.weights):
            assert np.array_equal(w1, w2)
        assert back.norm_mean == 0.25

    def test_calibration_roundtrip(self, tmp_path):
        frame = ReferenceFrame([0, 0, 56.3], [1, 0, 0], [0.05, 1, 0])
        calib = LaserCalibration(frame, (1.5, -2.0),
                                 np.array([0.1, 0.0, -1.0]) / np.sqrt(1.01),
                                 residual_rms=0.01, iterations=7)
        path = rio.write_json(tmp_path / "c.json",
                              rio.laser_calibration_to_dict(calib))
        back = readers.laser_calibration_from_dict(readers.read_json(path))
        assert np.allclose(back.v_w, calib.v_w, atol=1e-15)
        assert np.allclose(back.alpha, calib.alpha)
        assert back.iterations == 7


class TestLedger:
    def test_append(self, tmp_path):
        from resectsim.metrics import compare_regions

        sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
        rep = compare_regions("system", sq, sq)
        path = rio.append_region_reports_csv(tmp_path / "l.csv", "t1", [rep])
        rio.append_region_reports_csv(path, "t2", [rep])
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("trial,kind")
        assert len(lines) == 3
