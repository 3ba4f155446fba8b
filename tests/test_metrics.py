import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from resectsim.errors import (
    DegenerateSamples,
    EmptyBoundary,
    EmptyInput,
    EmptyTrueRegion,
    EmptyUnion,
    RasterTooLarge,
)
from resectsim.metrics import (
    BOUNDARY_SPACING,
    MAX_RASTER_CELLS,
    _raster_on,
    compare_regions,
    disc_polygon,
    edge_error,
    overcut_ratio,
    rasterize_pair,
    region_iou,
    sample_polygon_boundary,
    summarize,
    two_sample_t_test,
    undercut_ratio,
)

import oracles

SQUARE = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
FLAT = [(0.0, 0.0), (0.2, 0.0), (0.4, 0.0)]  # collinear: rasterizes to nothing


def square(x0=0.0, y0=0.0, side=1.0):
    return np.array(
        [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)]
    )


class TestEdgeError:
    def test_identical(self):
        s = sample_polygon_boundary(SQUARE, 0.02)
        errs = edge_error(s, s)
        assert errs.shape == (len(s),)
        assert np.all(errs == 0.0)

    def test_shifted_square(self):
        a = sample_polygon_boundary(SQUARE, 0.01)
        b = sample_polygon_boundary(SQUARE + [0.1, 0.0], 0.01)
        errs = edge_error(a, b)
        assert errs.max() <= 0.1 + 1e-9
        assert abs(errs.max() - 0.1) < 0.02
        assert np.all(errs >= 0)

    def test_matches_all_pairs_oracle(self):
        a = sample_polygon_boundary(SQUARE, 0.13)
        b = sample_polygon_boundary(2.0 * SQUARE, 0.17)
        errs = edge_error(a, b)
        for k, pa in enumerate(a):
            best = min(np.linalg.norm(pa - pb) for pb in b)
            assert abs(errs[k] - best) < 1e-12

    def test_too_few(self):
        with pytest.raises(EmptyBoundary):
            edge_error([(0, 0), (1, 1)], [(0, 0), (1, 1), (2, 2)])

    def test_zero_iff_on_samples(self):
        a = np.array([(0, 0), (1, 0), (0, 1)], dtype=float)
        assert np.all(edge_error(a, a[::-1]) == 0.0)
        assert np.all(edge_error(a + 1e-6, a) > 0.0)


class TestAreas:
    def test_iou_identical(self):
        assert region_iou(square(), square()) == 1.0

    def test_iou_disjoint(self):
        assert region_iou(square(), square(x0=5.0)) == 0.0

    def test_iou_half_overlap(self):
        got = region_iou(square(), square(x0=0.5))
        assert abs(got - 1.0 / 3.0) < 0.01

    def test_iou_symmetric(self):
        a, b = square(), square(x0=0.3, y0=0.2)
        assert region_iou(a, b) == region_iou(b, a)

    def test_iou_empty_union(self):
        with pytest.raises(EmptyUnion):
            region_iou(FLAT, FLAT)

    def test_under_over_identical(self):
        assert undercut_ratio(square(), square()) == 0.0
        assert overcut_ratio(square(), square()) == 0.0

    def test_empty_actual(self):
        assert undercut_ratio(square(), FLAT) == 1.0
        assert overcut_ratio(square(), FLAT) == 0.0

    def test_dilated_double_area(self):
        side = np.sqrt(2.0)
        big = square(x0=(1 - side) / 2, y0=(1 - side) / 2, side=side)
        assert undercut_ratio(square(), big) == 0.0
        assert abs(overcut_ratio(square(), big) - 1.0) < 0.02

    def test_empty_true_region(self):
        with pytest.raises(EmptyTrueRegion):
            undercut_ratio(FLAT, square())

    def test_undercut_intersection_identity(self):
        t = disc_polygon((0, 0), 3.0)
        a = disc_polygon((1.0, 0.5), 2.5)
        u = undercut_ratio(t, a)
        iou = region_iou(t, a)
        # |T & A| recovered two ways must agree within raster tolerance
        mt, ma = rasterize_pair(t, a)
        inter_direct = np.sum(mt & ma) / mt.sum()
        assert abs((1.0 - u) - inter_direct) < 1e-12

    def test_raster_convergence(self):
        t = disc_polygon((0, 0), 3.0)
        a = disc_polygon((0.7, 0.0), 3.0)
        coarse = region_iou(t, a, pitch=0.02)
        fine = region_iou(t, a, pitch=0.01)
        assert abs(coarse - fine) / fine < 0.005


@st.composite
def raster_cases(draw):
    """A grid and a polygon over it: a random star (its vertices sometimes
    snapped to pixel centres, so vertices, horizontal edges and crossings
    land exactly on them), the 360-gon disc or a triangle; vertices may
    repeat and the polygon may leave the grid."""
    pitch = draw(st.sampled_from([0.02, 0.1, 0.25, 1.0]))
    nx, ny = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    x0 = draw(st.floats(-5.0, 5.0))
    y0 = draw(st.floats(-5.0, 5.0))
    # the centre may sit off the grid, so the polygon covers part of it
    c = np.array([x0 + draw(st.floats(-0.3, 1.3)) * nx * pitch,
                  y0 + draw(st.floats(-0.3, 1.3)) * ny * pitch])
    size = draw(st.floats(0.05, 0.8)) * max(nx, ny) * pitch
    kind = draw(st.sampled_from(["star", "disc", "triangle"]))
    if kind == "disc":
        return disc_polygon(c, size), x0, y0, nx, ny, pitch
    n = 3 if kind == "triangle" else draw(st.integers(3, 24))
    ang = np.sort(draw(st.lists(st.floats(0.0, 2.0 * np.pi),
                                min_size=n, max_size=n)))
    r = size * np.array(draw(st.lists(st.floats(0.1, 1.0),
                                      min_size=n, max_size=n)))
    verts = c + np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    if draw(st.booleans()):
        # the pixel-centre lattice, computed as _raster_on computes it
        k = np.round((verts - [x0, y0]) / pitch - 0.5)
        verts = np.array([x0, y0]) + (k + 0.5) * pitch
    repeats = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return np.repeat(verts, repeats, axis=0), x0, y0, nx, ny, pitch


class TestRaster:
    @given(raster_cases())
    def test_scanline_equals_per_pixel_oracle(self, case):
        assert np.array_equal(_raster_on(*case), oracles.raster_on(*case))

    def test_disc_and_hull_at_default_pitch(self):
        # the full-size comparison the e2e run makes: the default tumor disc
        # against a 13-vertex hull, on their common 0.02 mm grid
        disc = disc_polygon((6.3, 6.4), 5.0)
        hull = disc_polygon((6.1, 6.5), 4.6)[::28]
        lo = np.minimum(disc.min(axis=0), hull.min(axis=0)) - 0.04
        hi = np.maximum(disc.max(axis=0), hull.max(axis=0)) + 0.04
        nx, ny = (int(v) for v in np.ceil((hi - lo) / 0.02))
        got = rasterize_pair(disc, hull)
        for poly, mask in zip((disc, hull), got):
            assert mask.shape == (ny, nx)
            assert np.array_equal(
                mask, oracles.raster_on(poly, lo[0], lo[1], nx, ny, 0.02))

    def test_over_the_cell_cap_raises_before_allocating(self):
        # 10001 x 10000 cells at 1 mm: just over the cap, which is checked
        # before any mask or outline sample is made
        big = np.array([(0, 0), (9997, 0), (9997, 9996), (0, 9996)], float)
        assert 10001 * 10000 > MAX_RASTER_CELLS
        with pytest.raises(RasterTooLarge, match="10001 x 10000"):
            rasterize_pair(big, big, pitch=1.0)
        with pytest.raises(RasterTooLarge, match="10001 x 10000"):
            compare_regions("system", big, big, pitch=1.0)


class TestBoundarySamples:
    @given(raster_cases(),
           st.sampled_from([BOUNDARY_SPACING, 0.013, 0.13, 1.0, 50.0]))
    def test_array_samples_equal_edge_loop_oracle(self, case, spacing):
        # stars with repeated vertices (zero-length edges), the 360-gon
        # disc and triangles, each edge cut into one or many steps
        polygon = case[0]
        got = sample_polygon_boundary(polygon, spacing)
        want = oracles.sample_polygon_boundary(polygon, spacing)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestWelch:
    def test_identical_lists(self):
        x = [1.0, 2.0, 3.0, 4.0]
        t, dof, p = two_sample_t_test(x, list(x))
        assert t == 0.0
        assert p == 1.0

    def test_separated_means(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1.0, 30)
        y = rng.normal(10.0, 1.0, 30)
        t, dof, p = two_sample_t_test(x, y)
        assert p < 1e-10

    def test_constant_lists(self):
        with pytest.raises(DegenerateSamples):
            two_sample_t_test([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(0.0, 1.0, rng.integers(5, 40))
            y = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0),
                           rng.integers(5, 40))
            t, dof, p = two_sample_t_test(x, y)
            ref = scipy.stats.ttest_ind(x, y, equal_var=False)
            assert abs(t - ref.statistic) < 1e-10
            assert abs(p - ref.pvalue) < 1e-7

    def test_textbook_case(self):
        # classic two-group example; reference value from the Welch formula
        # evaluated with an independent implementation (scipy)
        a = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6]
        b = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1]
        t, dof, p = two_sample_t_test(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert abs(t - ref.statistic) < 1e-12
        assert abs(p - ref.pvalue) < 1e-9


class TestSummarize:
    def test_hand_arithmetic(self):
        mean, std, rmse = summarize([3.0, 4.0])
        assert mean == 3.5
        assert abs(std - np.sqrt(0.5)) < 1e-12
        assert abs(rmse - np.sqrt(12.5)) < 1e-12

    def test_constant(self):
        mean, std, rmse = summarize([2.0, 2.0, 2.0])
        assert (mean, std, rmse) == (2.0, 0.0, 2.0)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            summarize([])

    def test_rmse_at_least_abs_mean(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(1.0, 2.0, 50)
        mean, _, rmse = summarize(vals)
        assert rmse >= abs(mean) - 1e-12


class TestCompareRegions:
    def test_identical_regions(self):
        rep = compare_regions("calibration", square(), square())
        assert rep.iou == 1.0
        assert rep.undercut == 0.0
        assert rep.overcut == 0.0
        assert rep.rmse == 0.0

    def test_shifted(self):
        rep = compare_regions("system", square(), square(x0=0.2))
        assert 0 < rep.iou < 1
        assert rep.undercut > 0
        assert rep.mean <= 0.2 + 1e-9

    def test_empty_union_reported_before_empty_reference(self):
        speck = [(0, 0), (1e-4, 0), (0, 1e-4)]
        with pytest.raises(EmptyUnion):
            compare_regions("system", speck, speck)
        with pytest.raises(EmptyTrueRegion):
            compare_regions("system", speck, square())

    @given(st.integers(0, 2**32 - 1))
    def test_ratios_equal_public_functions(self, seed):
        # star-shaped polygons around nearby centres: overlapping, nested
        # or disjoint, each rasterized once by compare_regions
        rng = np.random.default_rng(seed)

        def star():
            n = int(rng.integers(3, 12))
            ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
            r = rng.uniform(0.2, 1.5, n)
            c = rng.uniform(-1.0, 1.0, 2)
            return c + np.column_stack([r * np.cos(ang), r * np.sin(ang)])

        ref, ach = star(), star()
        rep = compare_regions("system", ref, ach, pitch=0.05)
        assert rep.iou == region_iou(ref, ach, 0.05)
        assert rep.undercut == undercut_ratio(ref, ach, 0.05)
        assert rep.overcut == overcut_ratio(ref, ach, 0.05)
