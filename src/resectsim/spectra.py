"""Point-spectrum processing and the two tumor classifiers.

A spectrum is a wavelength-indexed intensity vector. The shipped pipeline is:
crop to the fluorescence band of interest, normalize by the band maximum,
smooth with a Savitzky-Golay filter, then classify either with a band-mean
threshold rule (with a confidence band) or with a small fully-connected
network trained from scratch here.

Subject-wise data splitting lives here too, because classifier evaluation is
only meaningful when no subject contributes to both train and test sets.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZero,
    DegenerateClasses,
    EmptyBand,
    EmptyClass,
    EmptyInput,
    ShapeMismatch,
    SingleClassTrainingSet,
    TooFewSubjects,
)

HEALTHY = "healthy"
TUMOR = "tumor"
UNCERTAIN = "uncertain"
CONFIDENCE_FRACTION = 0.10  # fit_threshold's half-width over the band-mean range


@dataclass(frozen=True)
class Spectrum:
    """Intensity vs wavelength (nm), plus a preprocessing state flag."""

    wavelengths: np.ndarray
    intensities: np.ndarray
    state: str = "raw"

    def __post_init__(self):
        wl = np.asarray(self.wavelengths, dtype=float).reshape(-1)
        it = np.asarray(self.intensities, dtype=float).reshape(-1)
        if wl.shape != it.shape:
            raise ValueError("wavelengths and intensities must have equal length")
        if len(wl) and np.any(np.diff(wl) <= 0):
            raise ValueError("wavelengths must be strictly increasing")
        if np.any(it < 0):
            raise ValueError("intensities must be non-negative")
        object.__setattr__(self, "wavelengths", wl)
        object.__setattr__(self, "intensities", it)


@dataclass(frozen=True)
class PreprocessConfig:
    """Band crop limits (nm), plus Savitzky-Golay window and polynomial order.

    A (window, polyorder) pair whose weights ``savgol_weights`` refuses
    raises ValueError here.
    """

    band: tuple[float, float] = (450.0, 750.0)
    window: int = 11
    polyorder: int = 3

    def __post_init__(self):
        if self.window % 2 == 0 or not (self.window > self.polyorder >= 0):
            raise ValueError("window must be odd and exceed polyorder >= 0")
        savgol_weights(self.window, self.polyorder)


@functools.cache
def savgol_weights(window: int, polyorder: int) -> np.ndarray:
    """Savitzky-Golay smoothing weights, in correlation order (read-only).

    The minimum-norm ``lstsq`` solution of the reversed Vandermonde system,
    with singular values below ``eps * max(shape)`` of the largest dropped,
    as ``scipy.signal.savgol_coeffs`` computes it. Raises ValueError when
    the weights are not symmetric within DBL_EPSILON: the summation order
    ``savgol_smooth`` reproduces holds only for symmetric weights.
    """
    h = window // 2
    t = np.arange(h, -h - 1, -1, dtype=float)
    a = t ** np.arange(polyorder + 1, dtype=float).reshape(-1, 1)
    e0 = np.zeros(polyorder + 1)
    e0[0] = 1.0
    eps = np.finfo(float).eps
    w = np.linalg.lstsq(a, e0, rcond=eps * max(a.shape))[0][::-1].copy()
    if np.any(np.abs(w - w[::-1]) > eps):
        raise ValueError(f"Savitzky-Golay weights for window {window}, "
                         f"polyorder {polyorder} are not symmetric")
    w.setflags(write=False)
    return w


def savgol_smooth(x: np.ndarray, window: int, polyorder: int) -> np.ndarray:
    """Savitzky-Golay smoothing of a 1-D signal with mirror padding.

    Needs ``len(x) >= window``; see ``preprocess`` for the summation order.
    """
    w = savgol_weights(window, polyorder)
    h = window // 2
    n = len(x)
    xp = np.pad(x, h, mode="reflect")
    out = xp[h:h + n] * w[h]
    for j in range(h, 0, -1):
        out += (xp[h - j:h - j + n] + xp[h + j:h + j + n]) * w[h - j]
    return out


def preprocess(s: Spectrum, cfg: PreprocessConfig = PreprocessConfig()) -> Spectrum:
    """Crop to the configured band, divide by the band maximum, then smooth.

    Smoothing is the Savitzky-Golay least-squares polynomial filter
    (Savitzky & Golay, Anal. Chem. 36, 1627, 1964) with mirror padding at
    the band edges (sample ``-k`` reads sample ``k``), so the already-narrow
    band does not shrink. It reproduces the bits of
    ``scipy.signal.savgol_filter(x, window, polyorder, mode="mirror")`` by
    repeating ``scipy.ndimage``'s symmetric-kernel order: with ``w`` the
    weights, ``h`` the half window and ``xp`` the padded signal,
    ``out = xp[h:h+n] * w[h]``, then for ``j = h`` down to 1,
    ``out += (xp[h-j:h-j+n] + xp[h+j:h+j+n]) * w[h-j]``. Tiny smoothing
    undershoots are clipped at zero.
    """
    if s.state != "raw":
        raise ValueError("preprocess expects a raw spectrum")
    lo, hi = cfg.band
    keep = (s.wavelengths >= lo) & (s.wavelengths <= hi)
    if not np.any(keep):
        raise EmptyBand(f"band [{lo}, {hi}] nm misses the wavelength grid")
    wl = s.wavelengths[keep]
    it = s.intensities[keep]
    m = float(it.max())
    if m == 0.0:
        raise AllZero("spectrum is identically zero in the band")
    it = it / m
    if len(it) < cfg.window:
        raise ValueError("band too narrow for the smoothing window")
    it = savgol_smooth(it, cfg.window, cfg.polyorder)
    it = np.clip(it, 0.0, None)
    return Spectrum(wl, it, state="preprocessed")


@dataclass(frozen=True)
class ThresholdClassifier:
    """Band-mean rule with a symmetric confidence band around the threshold.

    ``tumor_side`` records which side of the threshold the tumor class sits
    on. Means falling inside [threshold - half_width, threshold + half_width]
    are reported as uncertain rather than forced to a label.
    """

    bands: tuple[tuple[float, float], ...]
    threshold: float
    half_width: float
    tumor_side: str  # "low" | "high"

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be >= 0")
        if self.tumor_side not in ("low", "high"):
            raise ValueError("tumor_side must be 'low' or 'high'")


def band_mean(s: Spectrum, bands) -> float:
    """Mean intensity over the union of the given wavelength bands."""
    sel = np.zeros(len(s.wavelengths), dtype=bool)
    for lo, hi in bands:
        sel |= (s.wavelengths >= lo) & (s.wavelengths <= hi)
    if not np.any(sel):
        raise EmptyBand("no wavelength falls inside the classifier bands")
    return float(s.intensities[sel].mean())


def threshold_classify(clf: ThresholdClassifier, s: Spectrum) -> str:
    """Classify one preprocessed spectrum as tumor, healthy, or uncertain."""
    if s.state != "preprocessed":
        raise ValueError("threshold_classify expects a preprocessed spectrum")
    m = band_mean(s, clf.bands)
    if abs(m - clf.threshold) <= clf.half_width:
        return UNCERTAIN
    below = m < clf.threshold
    if (below and clf.tumor_side == "low") or (not below and clf.tumor_side == "high"):
        return TUMOR
    return HEALTHY


def fit_threshold(tumor_spectra, healthy_spectra, bands) -> ThresholdClassifier:
    """Fit the threshold rule from labeled preprocessed spectra.

    Threshold is the midpoint of the two class-mean band-means; the
    confidence half-width is ``CONFIDENCE_FRACTION`` (0.10) of the min-max
    range of all band-means.
    """
    if not tumor_spectra or not healthy_spectra:
        raise EmptyClass("need at least one spectrum per class")
    tm = np.array([band_mean(s, bands) for s in tumor_spectra])
    hm = np.array([band_mean(s, bands) for s in healthy_spectra])
    mu_t, mu_h = float(tm.mean()), float(hm.mean())
    if mu_t == mu_h:
        raise DegenerateClasses("class band-means coincide")
    all_means = np.concatenate([tm, hm])
    half = CONFIDENCE_FRACTION * float(all_means.max() - all_means.min())
    side = "low" if mu_t < mu_h else "high"
    return ThresholdClassifier(tuple(tuple(b) for b in bands),
                               (mu_t + mu_h) / 2.0, half, side)


# ---------------------------------------------------------------------------
# Fully-connected classifier (from scratch, numpy only)
# ---------------------------------------------------------------------------

HIDDEN_SIZES = (1024, 512, 256)


@dataclass
class MlpModel:
    """Weights/biases per layer plus the training normalization statistics.

    Normalization is a scalar (mean, std) computed over the training matrix
    only; it is stored so deployment applies the identical transform.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    norm_mean: float = 0.0
    norm_std: float = 1.0
    seed: int = 0

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


def init_mlp(input_width: int, hidden=HIDDEN_SIZES, seed: int = 0) -> MlpModel:
    """Fan-in scaled uniform initialization of a two-logit MLP, per seed."""
    rng = np.random.default_rng(seed)
    sizes = [input_width, *hidden, 2]
    ws, bs = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        ws.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        bs.append(np.zeros(fan_out))
    return MlpModel(ws, bs, seed=seed)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _forward_cached(model: MlpModel, x: np.ndarray):
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w + b
        if i < last:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return acts  # acts[-1] are logits


def mlp_forward(model: MlpModel, x) -> np.ndarray:
    """Class probabilities for one normalized vector or a batch of them."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != model.weights[0].shape[0]:
        raise ShapeMismatch(
            f"input width {arr.shape[1]} != model width {model.weights[0].shape[0]}"
        )
    logits = _forward_cached(model, arr)[-1]
    probs = np.exp(_log_softmax(logits))
    return probs[0] if single else probs


def nll_loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log likelihood of the true labels."""
    logp = _log_softmax(_forward_cached(model, x)[-1])
    return float(-logp[np.arange(len(y)), y].mean())


def nll_loss_and_gradients(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Mean NLL plus its analytic gradients, from one forward pass."""
    acts = _forward_cached(model, x)
    logp = _log_softmax(acts[-1])
    n = len(y)
    loss = float(-logp[np.arange(n), y].mean())
    delta = np.exp(logp)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    gw = [None] * len(model.weights)
    gb = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        gw[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (acts[i] > 0)
    return loss, gw, gb


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 16
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0


# A first moment whose gradient stays zero decays by b1 into the subnormal
# range and stays there (b1 times a few ulps rounds back to itself), where each
# product or quotient is about 30 times slower. Every FLUSH_EVERY steps such
# moments are zeroed; with the default TrainConfig their step is under half an
# ulp of any weight above 1e-284, so no weight changes.
FLUSH_EVERY = 32


def mlp_train(x: np.ndarray, y: np.ndarray,
              cfg: TrainConfig = TrainConfig(),
              hidden=HIDDEN_SIZES) -> tuple[MlpModel, list[float]]:
    """Train on preprocessed spectra with Adam; deterministic per seed.

    ``x`` is the raw (unnormalized) training matrix; scalar mean/std are
    computed here, applied, and stored in the returned model. The history is
    the mean NLL per epoch (running mean over that epoch's batches).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.ndim != 2 or len(x) != len(y):
        raise ShapeMismatch("x must be (n, d) with matching labels")
    if len(np.unique(y)) < 2:
        raise SingleClassTrainingSet("training split must contain both classes")

    mean = float(x.mean())
    std = float(x.std())
    if std == 0.0:
        std = 1.0
    xn = (x - mean) / std

    model = init_mlp(x.shape[1], hidden=hidden, seed=cfg.seed)
    model.norm_mean, model.norm_std = mean, std

    params = model.weights + model.biases
    moments1 = [np.zeros_like(p) for p in params]
    moments2 = [np.zeros_like(p) for p in params]
    scratch = [np.empty_like(p) for p in params]

    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    rng = np.random.default_rng(cfg.seed + 1)
    history = []
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(xn))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, gw, gb = nll_loss_and_gradients(model, xn[idx], y[idx])
            losses.append(loss)
            step += 1
            # bias-corrected step folded into the learning rate
            lr_t = cfg.learning_rate * np.sqrt(1.0 - b2**step) / (1.0 - b1**step)
            eps_t = cfg.adam_eps * np.sqrt(1.0 - b2**step)
            for p, g, m, v, s in zip(params, gw + gb, moments1, moments2,
                                     scratch):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * np.square(g, out=g)
                np.sqrt(v, out=s)
                s += eps_t
                np.divide(m, s, out=s)
                s *= lr_t
                p -= s
            if step % FLUSH_EVERY == 0:
                for m in moments1:
                    m[np.abs(m) < np.finfo(float).tiny] = 0.0
        history.append(float(np.mean(losses)))
    return model, history


def mlp_predict(model: MlpModel, x) -> np.ndarray:
    """Normalize with the stored stats and return argmax labels."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    probs = mlp_forward(model, (arr - model.norm_mean) / model.norm_std)
    labels = probs.argmax(axis=1)
    return labels[0] if single else labels


def _relu_pattern(model: MlpModel, x: np.ndarray):
    acts = _forward_cached(model, x)
    return [a > 0 for a in acts[1:-1]]


def gradient_check(model: MlpModel, x: np.ndarray, y: np.ndarray,
                   n_samples: int = 200, seed: int = 0) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Samples ``n_samples`` scalar parameters uniformly across all weight
    matrices and bias vectors. Parameters whose +-h perturbation flips a
    ReLU activation are skipped: the finite difference is not a valid
    derivative estimate across a kink.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(x) == 0:
        raise EmptyInput("gradient check needs a nonempty batch")
    _, gw, gb = nll_loss_and_gradients(model, x, y)
    pairs = list(zip(model.weights, gw)) + list(zip(model.biases, gb))
    sizes = [a.size for a, _ in pairs]
    h = 1e-5  # central-difference step
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(n_samples, total), replace=False)

    worst = 0.0
    for flat_idx in picks:
        offset = int(flat_idx)
        for (a, g), size in zip(pairs, sizes):
            if offset >= size:
                offset -= size
                continue
            ij = np.unravel_index(offset, a.shape)
            orig = a[ij]
            a[ij] = orig + h
            f_plus = nll_loss(model, x, y)
            pat_plus = _relu_pattern(model, x)
            a[ij] = orig - h
            f_minus = nll_loss(model, x, y)
            pat_minus = _relu_pattern(model, x)
            a[ij] = orig
            if any(
                not np.array_equal(p, q) for p, q in zip(pat_plus, pat_minus)
            ):
                break
            numeric = (f_plus - f_minus) / (2 * h)
            analytic = g[ij]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / denom)
            break
    return worst


# ---------------------------------------------------------------------------
# Subject-wise splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitPlan:
    """One train/test partition at the subject level with per-subject caps."""

    train_subjects: tuple
    test_subjects: tuple
    train_indices: np.ndarray
    test_indices: np.ndarray
    cap: int

    def __post_init__(self):
        if set(self.train_subjects) & set(self.test_subjects):
            raise ValueError("train and test subjects overlap")


def make_splits(subjects, ratio=(4, 2), seed: int = 0) -> list[SplitPlan]:
    """Enumerate every train/test subject combination at the given ratio.

    ``subjects`` is the per-sample subject id array. Each subject contributes
    at most 3 times the global minimum per-subject count;
    oversized subjects are subsampled deterministically from ``seed``.
    """
    subjects = np.asarray(subjects)
    uniq = sorted(set(subjects.tolist()))
    n_train, n_test = ratio
    if len(uniq) < n_train + n_test:
        raise TooFewSubjects(
            f"{len(uniq)} subjects cannot satisfy a {n_train}:{n_test} split"
        )

    by_subject = {u: np.flatnonzero(subjects == u) for u in uniq}
    cap = 3 * min(len(v) for v in by_subject.values())
    rng = np.random.default_rng(seed)
    capped = {}
    for u in uniq:
        idx = by_subject[u]
        if len(idx) > cap:
            idx = np.sort(rng.choice(idx, size=cap, replace=False))
        capped[u] = idx

    plans = []
    for test_combo in itertools.combinations(uniq, n_test):
        test_set = set(test_combo)
        train_combo = tuple(u for u in uniq if u not in test_set)
        train_idx = np.concatenate([capped[u] for u in train_combo])
        test_idx = np.concatenate([capped[u] for u in test_combo])
        plans.append(SplitPlan(train_combo, tuple(test_combo),
                               train_idx, test_idx, cap))
    return plans


@dataclass(frozen=True)
class ClassificationMetrics:
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    specificity: float

    def as_dict(self):
        return {
            "tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn,
            "accuracy": self.accuracy, "precision": self.precision,
            "recall": self.recall, "f1": self.f1,
            "specificity": self.specificity,
        }


def classification_metrics(predictions, labels) -> ClassificationMetrics:
    """Binary metrics with tumor (1) as the positive class.

    Ratios with a zero denominator are reported as 0.0.
    """
    pred = np.asarray(predictions, dtype=int)
    lab = np.asarray(labels, dtype=int)
    if len(pred) == 0 or len(pred) != len(lab):
        raise EmptyInput("predictions and labels must be nonempty, equal length")
    tp = int(np.sum((pred == 1) & (lab == 1)))
    tn = int(np.sum((pred == 0) & (lab == 0)))
    fp = int(np.sum((pred == 1) & (lab == 0)))
    fn = int(np.sum((pred == 0) & (lab == 1)))

    def ratio(num, den):
        return num / den if den else 0.0

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    return ClassificationMetrics(
        tp, tn, fp, fn,
        accuracy=ratio(tp + tn, len(pred)),
        precision=precision,
        recall=recall,
        f1=ratio(2 * precision * recall, precision + recall),
        specificity=ratio(tn, tn + fp),
    )
