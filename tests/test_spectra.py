import collections
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import savgol_coeffs, savgol_filter

from resectsim import spectra
from resectsim.errors import (
    AllZero,
    DegenerateClasses,
    EmptyBand,
    EmptyClass,
    EmptyInput,
    ShapeMismatch,
    SingleClassTrainingSet,
    TooFewSubjects,
)
from resectsim.spectra import (
    ADAM_BLOCK,
    PREDICT_BLOCK,
    PreprocessConfig,
    Spectrum,
    ThresholdClassifier,
    TrainConfig,
    band_mean,
    classification_metrics,
    fit_threshold,
    gradient_check,
    init_mlp,
    make_splits,
    mlp_predict,
    mlp_train,
    preprocess,
    savgol_smooth,
    savgol_weights,
    threshold_classify,
)

import oracles

WL = np.arange(350.0, 701.0)
DBL_EPSILON = np.finfo(float).eps


def pre_spectrum(level):
    """Constant preprocessed spectrum with the given band mean."""
    return Spectrum(WL, np.full_like(WL, level), state="preprocessed")


class TestPreprocess:
    def test_constant_normalizes_to_one(self):
        s = Spectrum(WL, np.full_like(WL, 5.0))
        out = preprocess(s, PreprocessConfig(band=(450.0, 750.0)))
        assert out.state == "preprocessed"
        assert out.wavelengths[0] == 450.0
        assert out.wavelengths[-1] == 700.0
        assert np.allclose(out.intensities, 1.0, atol=1e-12)

    def test_linear_ramp_preserved_interior(self):
        # Mirror padding bends the ends; polynomial reproduction holds on
        # interior points for polyorder >= 1.
        s = Spectrum(WL, WL - 300.0)
        cfg = PreprocessConfig(band=(450.0, 750.0), window=11, polyorder=1)
        out = preprocess(s, cfg)
        half = cfg.window // 2
        expect = (s.wavelengths - 300.0) / (700.0 - 300.0)
        expect = expect[(WL >= 450.0) & (WL <= 750.0)]
        assert np.allclose(out.intensities[half:-half], expect[half:-half],
                           atol=1e-10)

    def test_quadratic_order_sensitivity(self):
        x = WL - 525.0
        s = Spectrum(WL, x * x + 10.0)
        interior = slice(5, -5)
        out2 = preprocess(s, PreprocessConfig(band=(450.0, 750.0), polyorder=2))
        raw = (x * x + 10.0)
        keep = (WL >= 450.0) & (WL <= 750.0)
        expect = raw[keep] / raw[keep].max()
        assert np.allclose(out2.intensities[interior], expect[interior], atol=1e-10)
        out1 = preprocess(s, PreprocessConfig(band=(450.0, 750.0), polyorder=1))
        assert np.max(np.abs(out1.intensities[interior] - expect[interior])) > 1e-6

    def test_empty_band(self):
        s = Spectrum(WL, np.ones_like(WL))
        with pytest.raises(EmptyBand):
            preprocess(s, PreprocessConfig(band=(900.0, 950.0)))

    def test_all_zero(self):
        s = Spectrum(WL, np.zeros_like(WL))
        with pytest.raises(AllZero):
            preprocess(s)

    def test_idempotent_on_normalized_constant(self):
        first = preprocess(Spectrum(WL, np.full_like(WL, 2.0)))
        again = preprocess(Spectrum(first.wavelengths, first.intensities))
        assert np.max(np.abs(again.intensities - first.intensities)) < 1e-12

    def test_rejects_preprocessed_input(self):
        with pytest.raises(ValueError):
            preprocess(pre_spectrum(1.0))

    @settings(max_examples=80)
    @given(st.integers(0, 7), st.integers(0, 2**32 - 1),
           st.sampled_from([(11, 3), (5, 2), (21, 0), (3, 1)]),
           st.sampled_from([(450.0, 750.0), (360.0, 400.0), (0.0, 1e4)]))
    def test_rows_match_one_row_oracle(self, n, seed, smoothing, band):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.0, 1.0, (n, len(WL))) * 10.0 ** rng.uniform(
            -300, 300, (n, 1))
        rows[rng.uniform(size=rows.shape) < 0.2] = 0.0
        cfg = PreprocessConfig(band=band, window=smoothing[0],
                               polyorder=smoothing[1])
        got = preprocess(Spectrum(WL, rows), cfg)
        assert got.intensities.flags.c_contiguous
        for row, want in zip(got.intensities, rows):
            want = oracles.preprocess(Spectrum(WL, want), cfg)
            assert np.array_equal(got.wavelengths, want.wavelengths)
            assert row.tobytes() == want.intensities.tobytes()

    def test_any_zero_row_raises(self):
        rows = np.ones((3, len(WL)))
        rows[1] = 0.0
        with pytest.raises(AllZero):
            preprocess(Spectrum(WL, rows))


def scipy_weights(window, polyorder):
    """scipy's smoothing weights in the order ndimage correlates them."""
    return savgol_coeffs(window, polyorder)[::-1]


def symmetric(w):
    """ndimage's test for its symmetric-kernel summation path."""
    return not np.any(np.abs(w - w[::-1]) > DBL_EPSILON)


@st.composite
def smoothing_cases(draw):
    """(window, polyorder, signal): odd windows 3-31, any polyorder below
    the window, lengths from the window to 400, magnitudes 1e-3 to 1e3."""
    window = 2 * draw(st.integers(1, 15)) + 1
    polyorder = draw(st.integers(0, window - 1))
    n = draw(st.integers(window, 400))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return window, polyorder, scale * rng.normal(size=n)


class TestSavgol:
    """scipy.signal.savgol_filter(mode="mirror") is the oracle."""

    def test_weights_match_scipy_and_asymmetric_pairs_raise(self):
        # 138 of these 255 pairs, (5, 4) the first, have asymmetric weights
        for window in range(3, 32, 2):
            for polyorder in range(window):
                ref = scipy_weights(window, polyorder)
                if symmetric(ref):
                    assert np.array_equal(savgol_weights(window, polyorder), ref)
                    PreprocessConfig(window=window, polyorder=polyorder)
                else:
                    with pytest.raises(ValueError, match="not symmetric"):
                        PreprocessConfig(window=window, polyorder=polyorder)

    @settings(max_examples=300)
    @given(smoothing_cases())
    def test_smooth_matches_savgol_filter_bit_for_bit(self, case):
        window, polyorder, x = case
        try:
            PreprocessConfig(window=window, polyorder=polyorder)
        except ValueError:
            assert not symmetric(scipy_weights(window, polyorder))
            return
        assert np.array_equal(savgol_smooth(x, window, polyorder),
                              savgol_filter(x, window, polyorder, mode="mirror"))


class TestThreshold:
    def test_phantom_rule(self):
        clf = ThresholdClassifier(((450.0, 700.0),), 0.50, 0.0, "low")
        assert threshold_classify(clf, pre_spectrum(0.40)) == "tumor"

    def test_inside_band_uncertain(self):
        clf = ThresholdClassifier(((450.0, 700.0),), 0.50, 0.05, "low")
        assert threshold_classify(clf, pre_spectrum(0.50)) == "uncertain"

    def test_healthy_side(self):
        clf = ThresholdClassifier(((450.0, 700.0),), 0.50, 0.0, "low")
        assert threshold_classify(clf, pre_spectrum(1.0)) == "healthy"

    def test_fit_threshold_arithmetic(self):
        tumor = [pre_spectrum(0.2), pre_spectrum(0.4)]
        healthy = [pre_spectrum(0.8), pre_spectrum(1.0)]
        clf = fit_threshold(tumor, healthy, [(450.0, 700.0)])
        assert abs(clf.threshold - 0.6) < 1e-12
        assert abs(clf.half_width - 0.08) < 1e-12
        assert clf.tumor_side == "low"

    def test_identical_classes_degenerate(self):
        with pytest.raises(DegenerateClasses):
            fit_threshold([pre_spectrum(0.5)], [pre_spectrum(0.5)],
                          [(450.0, 700.0)])

    def test_single_spectrum_per_class(self):
        clf = fit_threshold([pre_spectrum(0.2)], [pre_spectrum(0.8)],
                            [(450.0, 700.0)])
        assert threshold_classify(clf, pre_spectrum(0.1)) == "tumor"

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            fit_threshold([], [pre_spectrum(0.8)], [(450.0, 700.0)])

    def test_band_miss(self):
        clf = ThresholdClassifier(((900.0, 950.0),), 0.5, 0.0, "low")
        with pytest.raises(EmptyBand):
            threshold_classify(clf, pre_spectrum(0.4))

    @pytest.mark.parametrize("bands", [((495.0, 570.0),),
                                       ((360.0, 380.0), (600.0, 690.0))])
    def test_batched_band_means_equal_one_row_bit_for_bit(self, bands):
        # without the C-order copy, 2,195 of these 3,000 means differ
        rows = np.random.default_rng(3).uniform(0.0, 1.0, (3000, len(WL)))
        got = band_mean(Spectrum(WL, rows, state="preprocessed"), bands)
        want = [oracles.band_mean(Spectrum(WL, r, state="preprocessed"), bands)
                for r in rows]
        assert got.tobytes() == np.array(want).tobytes()
        one = band_mean(Spectrum(WL, rows[0], state="preprocessed"), bands)
        assert type(one) is float and one == want[0]

    @pytest.mark.parametrize("half_width", [0.0, 0.02])
    @pytest.mark.parametrize("side", ["low", "high"])
    def test_batch_matches_one_row_oracle(self, half_width, side):
        bands = ((495.0, 570.0),)
        rows = np.random.default_rng(4).uniform(0.3, 0.7, (500, len(WL)))
        rows[7] = 0.5  # mean exactly at the threshold
        batch = Spectrum(WL, rows, state="preprocessed")
        means = band_mean(batch, bands)
        rows[8] = rows[9] = 0.0
        rows[8, 145:221] = 1.0  # 495-570 nm
        rows[9, 145:221] = 0.3
        clf = ThresholdClassifier(bands, 0.5, half_width, side)
        got = threshold_classify(clf, Spectrum(WL, rows, state="preprocessed"))
        want = [oracles.threshold_classify(
            clf, Spectrum(WL, r, state="preprocessed")) for r in rows]
        assert got == want
        assert got[7] == "uncertain" and means[7] == 0.5
        assert "uncertain" not in (got[8], got[9])
        assert threshold_classify(clf, Spectrum(WL, rows[7], state="preprocessed")
                                  ) == "uncertain"


def tiny_model(width=10, seed=0):
    return init_mlp(width, hidden=(16, 8, 4), seed=seed)


def separable_data(n, width=10, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.normal(0.0, 0.3, size=(half, width)) + 1.0
    x1 = rng.normal(0.0, 0.3, size=(n - half, width)) - 1.0
    x = np.vstack([x0, x1])
    y = np.array([0] * half + [1] * (n - half))
    return x, y


def forward_calls(monkeypatch) -> list:
    """The row count of every forward pass from now on, in call order."""
    calls = []
    forward = spectra._forward_cached
    monkeypatch.setattr(spectra, "_forward_cached",
                        lambda model, h: calls.append(len(h))
                        or forward(model, h))
    return calls


class TestMlp:
    def test_zero_weights_symmetric(self):
        m = tiny_model()
        for w in m.weights:
            w[:] = 0.0
        probs = oracles.mlp_forward(m, np.zeros(10))
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_shift_invariance(self):
        m = tiny_model(seed=3)
        x = np.random.default_rng(1).normal(size=10)
        p1 = oracles.mlp_forward(m, x)
        m.biases[-1] += 17.3  # shifts both logits equally
        p2 = oracles.mlp_forward(m, x)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        m = tiny_model(seed=5)
        rng = np.random.default_rng(2)
        probs = oracles.mlp_forward(m, rng.normal(size=(50, 10)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs > 0).all()

    def test_shape_mismatch(self):
        for x in (np.zeros(11), np.zeros((3, 11))):
            with pytest.raises(ShapeMismatch):
                mlp_predict(tiny_model(), x)
            with pytest.raises(ShapeMismatch):
                oracles.mlp_forward(tiny_model(), x)

    def test_train_separable(self):
        x, y = separable_data(200)
        model, history = mlp_train(
            x, y, TrainConfig(epochs=30, seed=0), hidden=(16, 8, 4))
        pred = mlp_predict(model, x)
        assert (pred == y).mean() >= 0.99
        assert history[-1] < history[0]
        assert np.all(np.isfinite(history))

    def test_identical_sample_both_classes_plateaus_at_ln2(self):
        x = np.tile(np.ones((1, 10)), (2, 1))
        y = np.array([0, 1])
        model, history = mlp_train(
            x, y, TrainConfig(epochs=150, seed=1), hidden=(16, 8, 4))
        assert abs(history[-1] - np.log(2)) < 0.01

    def test_deterministic_given_seed(self):
        x, y = separable_data(60, seed=4)
        cfg = TrainConfig(epochs=5, seed=9)
        m1, h1 = mlp_train(x, y, cfg, hidden=(16, 8, 4))
        m2, h2 = mlp_train(x, y, cfg, hidden=(16, 8, 4))
        assert h1 == h2
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    @pytest.mark.parametrize("tiny", [0.0, 1e-12])
    def test_tied_rows_are_recomputed_one_at_a_time(self, monkeypatch, tiny):
        # zero top-layer weights: every logit is the top bias, so with a
        # zero bias every row ties exactly and is recomputed on its own; one
        # weight of 1e-12 leaves gaps that are not zero but far inside the
        # bound, and those rows are recomputed too
        m = tiny_model(seed=2)
        m.weights[-1][:] = 0.0
        m.weights[-1][0, 1] = tiny
        x = np.random.default_rng(5).normal(size=(PREDICT_BLOCK + 44, 10))
        calls = forward_calls(monkeypatch)
        got = mlp_predict(m, x)
        assert calls == [PREDICT_BLOCK] + [1] * PREDICT_BLOCK + [44] + [1] * 44
        want = [oracles.mlp_predict(m, row) for row in x]
        assert got.tolist() == want
        assert (tiny > 0) == (want != [0] * len(x))
        calls.clear()
        assert mlp_predict(m, x[7]) == want[7]  # one row: the same path
        assert calls == [1, 1]
        calls.clear()
        m.biases[-1][:] = [0.0, 1.0]  # a gap near 1: nothing to recompute
        assert mlp_predict(m, x).tolist() == [1] * len(x)
        assert calls == [PREDICT_BLOCK, 44]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_rows_are_recomputed(self, monkeypatch):
        m = tiny_model(seed=3)
        x = np.random.default_rng(6).normal(size=(5, 10))
        x[2, 4] = np.nan
        x[3, 0] = np.inf
        calls = forward_calls(monkeypatch)
        got = mlp_predict(m, x)
        assert calls == [5, 1, 1]
        assert got.tolist() == [oracles.mlp_predict(m, row) for row in x]

    @settings(max_examples=40)
    @given(st.integers(1, 12), st.lists(st.integers(1, 24), max_size=3),
           st.integers(0, 2**32 - 1), st.integers(0, 2 * PREDICT_BLOCK + 3),
           st.floats(-3.0, 3.0))
    def test_batch_equals_stacked_one_row_calls(self, width, hidden, seed, n,
                                                log_scale):
        m = init_mlp(width, hidden=tuple(hidden), seed=seed)
        rng = np.random.default_rng(seed)
        m.norm_mean, m.norm_std = rng.normal(), rng.uniform(0.5, 2.0)
        x = rng.normal(size=(n, width)) * 10.0 ** log_scale
        got = mlp_predict(m, x)
        assert got.tolist() == [int(mlp_predict(m, row)) for row in x]
        assert got.tolist() == [int(oracles.mlp_predict(m, row)) for row in x]
        # the bound holds: batched and one-row logits differ by at most 2E
        xn = (x[:PREDICT_BLOCK] - m.norm_mean) / m.norm_std
        acts = spectra._forward_cached(m, xn)
        err = spectra._logit_error(spectra._error_terms(m), acts)
        for i, row in enumerate(xn):
            one = spectra._forward_cached(m, row[None, :])[-1][0]
            assert np.all(np.abs(acts[-1][i] - one) <= 2.0 * err[i])

    def test_single_class_rejected(self):
        x = np.ones((4, 10))
        with pytest.raises(SingleClassTrainingSet):
            mlp_train(x, np.zeros(4, dtype=int))


class TestTrainConfig:
    @pytest.mark.parametrize("batch_size", [-4, 0, 2.5, "16", True, None])
    def test_bad_batch_size_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=batch_size)

    @pytest.mark.parametrize("epochs", [-1, 1.5, "2", False, None])
    def test_bad_epochs_rejected(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=epochs)

    def test_edge_values_accepted(self):
        x, y = separable_data(6)
        model, history = mlp_train(x, y, TrainConfig(epochs=0),
                                   hidden=(16, 8, 4))
        assert history == []
        assert_same_training((model, history), (init_mlp(
            10, hidden=(16, 8, 4)), []))
        assert TrainConfig(batch_size=np.int64(1)).batch_size == 1
        model, history = mlp_train(x, y, TrainConfig(epochs=1, batch_size=1),
                                   hidden=(16, 8, 4))
        assert len(history) == 1 and np.isfinite(history[0])


def assert_same_training(got, want):
    """Equal weight, bias and history bytes from two ``mlp_train`` calls."""
    (m1, h1), (m2, h2) = got, want
    assert np.array(h1).tobytes() == np.array(h2).tobytes()
    for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases,
                    strict=True):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def assert_slices(x, hidden, batch_size) -> list[int]:
    """Slices per weight matrix of the update, checked to cover its rows
    with at least two rows a slice (one for a one-row W)."""
    counts = []
    for w in init_mlp(x.shape[1], hidden=hidden).weights:
        cuts = spectra._row_cuts(w, batch_size)
        assert cuts[0] == 0 and cuts[-1] == len(w)
        assert min(np.diff(cuts)) >= min(2, len(w))
        counts.append(len(cuts) - 1)
    return counts


def forced_schedule(monkeypatch, idle: str) -> collections.Counter:
    """Make the ``idle`` thread ("main" or "helper") sleep before each take
    until the other has emptied the step's deque, so the other takes every
    slice; returns the count of slices each thread took."""
    taken = collections.Counter()
    drain = spectra._adam_drain

    def scheduled(take, *rest):
        who = ("main" if threading.current_thread() is threading.main_thread()
               else "helper")
        jobs = take.__self__  # the step's deque

        def take_when_scheduled():
            while who == idle and jobs:
                time.sleep(1e-4)
            job = take()
            taken[who] += 1
            return job

        return drain(take_when_scheduled, *rest)

    monkeypatch.setattr(spectra, "_adam_drain", scheduled)
    return taken


class TestAdam:
    """The update in row slices, each making its own gradient rows, on two
    threads takes the bits of whole gradient arrays and a whole-array
    update, and flushing subnormal first moments to zero changes no
    weight."""

    @pytest.mark.parametrize("width, hidden, size", [
        (151, 217, ADAM_BLOCK - 1),
        (128, 256, ADAM_BLOCK),
        (99, 331, ADAM_BLOCK + 1),
        (257, 256, 2 * ADAM_BLOCK + 256),
    ])
    def test_slices_match_whole_array_update(self, width, hidden, size):
        rng = np.random.default_rng(width)
        x = rng.normal(size=(40, width))  # batches of 16, 16 and 8
        y = np.arange(40) % 2
        cfg = TrainConfig(epochs=2, seed=4)
        got = mlp_train(x, y, cfg, hidden=(hidden,))
        assert got[0].weights[0].size == size
        assert_same_training(got, oracles.mlp_train(x, y, cfg,
                                                    hidden=(hidden,)))

    def test_run_across_flushes_matches_whole_array_update(self):
        x, y = separable_data(60, seed=4)
        cfg = TrainConfig(epochs=12, batch_size=7, seed=2)  # 108 steps
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the two threads interleave finely
        try:
            got = mlp_train(x, y, cfg, hidden=(300, 120, 4))
        finally:
            sys.setswitchinterval(interval)
        assert_same_training(got, oracles.mlp_train(x, y, cfg,
                                                    hidden=(300, 120, 4)))

    def test_a_row_wider_than_a_slice(self):
        x, y = separable_data(40, width=5, seed=3)
        hidden = (ADAM_BLOCK + 8,)
        cfg = TrainConfig(epochs=2, seed=1)
        got = mlp_train(x, y, cfg, hidden=hidden)
        cuts = spectra._row_cuts(got[0].weights[0], cfg.batch_size)
        assert cuts == [0, 2, 5]  # two slices, each wider than ADAM_BLOCK
        assert_same_training(got, oracles.mlp_train(x, y, cfg, hidden=hidden))

    @pytest.mark.parametrize("block", [ADAM_BLOCK, 300])
    @pytest.mark.parametrize("n, batch_size", [(37, 16), (9, 1), (800, 400)])
    def test_ragged_and_one_row_batches(self, monkeypatch, block, n,
                                        batch_size):
        # both hidden layers' weights slice: at block 300 into slices of
        # 2 to 3 rows; a 400-row batch leaves every weight matrix whole
        monkeypatch.setattr(spectra, "ADAM_BLOCK", block)
        x, y = separable_data(n, width=140, seed=n)
        hidden = (256, 136)
        cfg = TrainConfig(epochs=2, batch_size=batch_size, seed=5)
        assert assert_slices(x, hidden, batch_size) == (
            [1, 1, 1] if batch_size > 384
            else [2, 2, 1] if block == ADAM_BLOCK else [70, 117, 1])
        assert_same_training(mlp_train(x, y, cfg, hidden=hidden),
                             oracles.mlp_train(x, y, cfg, hidden=hidden))

    def test_widths_off_a_multiple_of_8_update_whole(self, monkeypatch):
        # row slices of a gradient 331 wide would differ from it in bits
        monkeypatch.setattr(spectra, "ADAM_BLOCK", 300)
        x, y = separable_data(40, width=400, seed=2)
        hidden = (331, 64)
        cfg = TrainConfig(epochs=2, seed=3)
        assert assert_slices(x, hidden, cfg.batch_size) == [1, 71, 1]
        assert_same_training(mlp_train(x, y, cfg, hidden=hidden),
                             oracles.mlp_train(x, y, cfg, hidden=hidden))

    @pytest.mark.parametrize("idle", ["helper", "main"])
    def test_one_thread_takes_every_slice(self, monkeypatch, idle):
        monkeypatch.setattr(spectra, "ADAM_BLOCK", 300)
        taken = forced_schedule(monkeypatch, idle)
        x, y = separable_data(40, width=140, seed=8)
        cfg = TrainConfig(epochs=2, seed=6)  # batches of 16, 16 and 8
        got = mlp_train(x, y, cfg, hidden=(256, 136))
        busy = "main" if idle == "helper" else "helper"
        assert taken[idle] == 0
        assert taken[busy] == 6 * (70 + 117 + 1 + 3)  # steps * slices
        assert_same_training(got, oracles.mlp_train(x, y, cfg,
                                                    hidden=(256, 136)))

    def test_no_thread_outlives_a_call(self, monkeypatch):
        x, y = separable_data(40, seed=1)
        cfg = TrainConfig(epochs=2, seed=0)
        before = threading.active_count()
        mlp_train(x, y, cfg, hidden=(16, 8, 4))
        assert threading.active_count() == before
        steps = []
        backward = spectra._backward

        def fail_on_step_3(*args):
            steps.append(len(steps) + 1)
            if len(steps) == 3:
                raise RuntimeError("step 3")
            return backward(*args)

        monkeypatch.setattr(spectra, "_backward", fail_on_step_3)
        with pytest.raises(RuntimeError, match="step 3"):
            mlp_train(x, y, cfg, hidden=(16, 8, 4))
        assert steps == [1, 2, 3]
        assert threading.active_count() == before

    def test_a_failed_helper_job_propagates(self, monkeypatch):
        x, y = separable_data(40, seed=1)
        before = threading.active_count()
        drain = spectra._adam_drain
        failed = threading.Event()

        def fail_in_helper(take, *rest):
            if threading.current_thread() is threading.main_thread():
                failed.wait(30.0)  # leave the helper a slice to fail in
                return drain(take, *rest)

            def take_then_fail():
                take()
                failed.set()
                raise RuntimeError("helper job")

            return drain(take_then_fail, *rest)

        monkeypatch.setattr(spectra, "_adam_drain", fail_in_helper)
        with pytest.raises(RuntimeError, match="helper job"):
            mlp_train(x, y, TrainConfig(epochs=2, seed=0), hidden=(16, 8, 4))
        assert failed.is_set()
        assert threading.active_count() == before

    def test_trainer_matches_trainer_without_flush(self, monkeypatch):
        x, y = separable_data(60, seed=4)
        # long enough for the moments of dead units to decay far below the
        # others, short of the subnormal range
        cfg = TrainConfig(epochs=60, seed=9)
        monkeypatch.setattr(spectra, "FLUSH_EVERY", 10**9)
        ref = mlp_train(x, y, cfg, hidden=(16, 8, 4))
        for flush_every in (32, 1, 5):
            monkeypatch.setattr(spectra, "FLUSH_EVERY", flush_every)
            assert_same_training(mlp_train(x, y, cfg, hidden=(16, 8, 4)), ref)

    def test_flushing_subnormal_moments_leaves_weights_unchanged(self):
        cfg = TrainConfig()
        rng = np.random.default_rng(0)
        n = 20_000
        tiny = np.finfo(float).tiny
        # magnitudes from 1e-284 to 1, either sign
        p = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-284.0, 0.0, n)
        m = rng.uniform(-1.0, 1.0, n) * tiny
        m[:8] = np.nextafter(0.0, 1.0) * np.array([1, 2, 3, 4, -1, -2, -3, -4])
        v = rng.uniform(0.0, 1e-3, n) * rng.choice([1.0, 0.0], n)
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        for step in (1, 2, 10, 1000, 9450):
            lr_t = cfg.learning_rate * np.sqrt(1.0 - b2**step) / (1.0 - b1**step)
            eps_t = cfg.adam_eps * np.sqrt(1.0 - b2**step)
            kept, flushed = p.copy(), p.copy()
            oracles.adam_step(kept, np.zeros(n), m.copy(), v.copy(),
                              b1, b2, lr_t, eps_t)
            oracles.adam_step(flushed, np.zeros(n), np.zeros(n), v.copy(),
                              b1, b2, lr_t, eps_t)
            assert kept.tobytes() == flushed.tobytes() == p.tobytes()


class TestGradientCheck:
    def test_fresh_model(self):
        m = tiny_model(seed=2)
        x, y = separable_data(8, seed=2)
        assert gradient_check(m, x, y, n_samples=200, seed=0) < 1e-4

    def test_zero_input_batch(self):
        m = tiny_model(seed=2)
        x = np.zeros((4, 10))
        y = np.array([0, 1, 0, 1])
        assert gradient_check(m, x, y, n_samples=100, seed=0) < 1e-4

    def test_after_training_steps(self):
        x, y = separable_data(32, seed=6)
        model, _ = mlp_train(x, y, TrainConfig(epochs=5, seed=3),
                             hidden=(16, 8, 4))
        assert gradient_check(model, x, y, n_samples=200, seed=1) < 1e-4

    def test_empty_batch(self):
        with pytest.raises(EmptyInput):
            gradient_check(tiny_model(), np.empty((0, 10)), np.empty(0))


class TestSplits:
    def test_six_subjects_15_plans(self):
        subjects = np.repeat([f"m{i}" for i in range(6)], 10)
        plans = make_splits(subjects, ratio=(4, 2))
        assert len(plans) == 15
        combos = {p.test_subjects for p in plans}
        assert len(combos) == 15

    def test_three_subjects_three_plans(self):
        subjects = np.repeat(["a", "b", "c"], 5)
        assert len(make_splits(subjects, ratio=(2, 1))) == 3

    def test_cap_three_times_minimum(self):
        subjects = np.array(["a"] * 5 + ["b"] * 15 + ["c"] * 50)
        plans = make_splits(subjects, ratio=(2, 1), seed=3)
        assert plans[0].cap == 15
        for p in plans:
            for u in ("b", "c"):
                n = sum(
                    subjects[i] == u
                    for i in np.concatenate([p.train_indices, p.test_indices])
                )
                assert n <= 15

    def test_no_subject_leakage(self):
        subjects = np.repeat([f"s{i}" for i in range(6)], 7)
        for p in make_splits(subjects, ratio=(4, 2)):
            train_subj = set(subjects[p.train_indices])
            test_subj = set(subjects[p.test_indices])
            assert not (train_subj & test_subj)

    def test_too_few_subjects(self):
        with pytest.raises(TooFewSubjects):
            make_splits(np.array(["a", "a", "b"]), ratio=(4, 2))


class TestClassificationMetrics:
    def test_published_style_row(self):
        # TP=63 TN=35 FP=16 FN=20
        pred = np.array([1] * 63 + [0] * 35 + [1] * 16 + [0] * 20)
        lab = np.array([1] * 63 + [0] * 35 + [0] * 16 + [1] * 20)
        m = classification_metrics(pred, lab)
        assert (m.tp, m.tn, m.fp, m.fn) == (63, 35, 16, 20)
        assert round(m.accuracy, 2) == 0.73
        assert round(m.precision, 2) == 0.80
        assert round(m.recall, 2) == 0.76
        assert round(m.f1, 2) == 0.78
        assert round(m.specificity, 2) == 0.69

    def test_all_correct(self):
        m = classification_metrics([1, 0, 1], [1, 0, 1])
        assert m.accuracy == m.precision == m.recall == m.f1 == m.specificity == 1.0

    def test_all_predicted_positive(self):
        m = classification_metrics([1, 1, 1, 1], [1, 1, 0, 0])
        assert m.specificity == 0.0
        assert m.recall == 1.0

    def test_self_consistency(self):
        rng = np.random.default_rng(8)
        pred = rng.integers(0, 2, 100)
        lab = rng.integers(0, 2, 100)
        m = classification_metrics(pred, lab)
        total = m.tp + m.tn + m.fp + m.fn
        assert total == 100
        assert abs(m.accuracy - (m.tp + m.tn) / total) < 1e-12

    def test_empty(self):
        with pytest.raises(EmptyInput):
            classification_metrics([], [])
