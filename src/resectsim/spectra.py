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

import collections
import functools
import itertools
from dataclasses import asdict, dataclass
from numbers import Integral

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
    """Intensity vs wavelength (nm), plus a preprocessing state flag.

    ``intensities`` is one spectrum, (w,), or n spectra on the same grid as
    the rows of an (n, w) array; every function here takes either form.
    """

    wavelengths: np.ndarray
    intensities: np.ndarray
    state: str = "raw"

    def __post_init__(self):
        wl = np.asarray(self.wavelengths, dtype=float).reshape(-1)
        it = np.asarray(self.intensities, dtype=float)
        it = it if it.ndim == 2 else it.reshape(-1)
        if it.shape[-1] != len(wl):
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
    e0 = np.eye(polyorder + 1)[0]
    eps = np.finfo(float).eps
    w = np.linalg.lstsq(a, e0, rcond=eps * max(a.shape))[0][::-1].copy()
    if np.any(np.abs(w - w[::-1]) > eps):
        raise ValueError(f"Savitzky-Golay weights for window {window}, "
                         f"polyorder {polyorder} are not symmetric")
    w.setflags(write=False)
    return w


def savgol_smooth(x: np.ndarray, window: int, polyorder: int) -> np.ndarray:
    """Savitzky-Golay smoothing along the last axis, with mirror padding.

    Needs ``x.shape[-1] >= window``; see ``preprocess`` for the summation
    order, which each row keeps.
    """
    w = savgol_weights(window, polyorder)
    h = window // 2
    n = x.shape[-1]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(h, h)], mode="reflect")
    out = xp[..., h:h + n] * w[h]
    for j in range(h, 0, -1):
        out += (xp[..., h - j:h - j + n] + xp[..., h + j:h + j + n]) * w[h - j]
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
    undershoots are clipped at zero. Each row of an (n, w) batch goes
    through the same elementwise steps as a one-row call, so its bits are
    the same.
    """
    if s.state != "raw":
        raise ValueError("preprocess expects a raw spectrum")
    lo, hi = cfg.band
    keep = (s.wavelengths >= lo) & (s.wavelengths <= hi)
    if not np.any(keep):
        raise EmptyBand(f"band [{lo}, {hi}] nm misses the wavelength grid")
    wl = s.wavelengths[keep]
    it = np.ascontiguousarray(s.intensities[..., keep])
    m = it.max(axis=-1, keepdims=True)
    if np.any(m == 0.0):
        raise AllZero("spectrum is identically zero in the band")
    it = it / m
    if len(wl) < cfg.window:
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


def band_mean(s: Spectrum, bands):
    """Mean intensity over the union of the given wavelength bands: a float
    for one spectrum, an (n,) array for n.

    The selected columns are copied to C order first: ``x[:, mask]`` is an
    F-ordered copy, whose row means sum in another order than the 1-D mean.
    """
    sel = np.zeros(len(s.wavelengths), dtype=bool)
    for lo, hi in bands:
        sel |= (s.wavelengths >= lo) & (s.wavelengths <= hi)
    if not np.any(sel):
        raise EmptyBand("no wavelength falls inside the classifier bands")
    means = np.ascontiguousarray(s.intensities[..., sel]).mean(axis=-1)
    return float(means) if means.ndim == 0 else means


def threshold_classify(clf: ThresholdClassifier, s: Spectrum):
    """Classify a preprocessed spectrum as tumor, healthy, or uncertain: one
    verdict for one spectrum, a list of n for n."""
    if s.state != "preprocessed":
        raise ValueError("threshold_classify expects a preprocessed spectrum")
    m = np.asarray(band_mean(s, clf.bands))
    below = m < clf.threshold
    tumor = below if clf.tumor_side == "low" else ~below
    verdicts = np.where(np.abs(m - clf.threshold) <= clf.half_width,
                        UNCERTAIN, np.where(tumor, TUMOR, HEALTHY))
    return verdicts.tolist()


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
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = acts[-1] @ w + b
        acts.append(np.maximum(h, 0.0) if i < len(model.weights) - 1 else h)
    return acts  # acts[-1] are logits


def _loss_and_kinks(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Mean NLL of the true labels, and which hidden units' ReLU is on."""
    acts = _forward_cached(model, x)
    logp = _log_softmax(acts[-1])
    loss = float(-logp[np.arange(len(y)), y].mean())
    return loss, [a > 0 for a in acts[1:-1]]


def nll_loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log likelihood of the true labels."""
    return _loss_and_kinks(model, x, y)[0]


def _backward(model: MlpModel, x: np.ndarray, y: np.ndarray, release) -> float:
    """Mean NLL; the backward pass hands ``release(i, a, d)`` each layer's
    input ``a`` and delta ``d`` (gradients ``a.T @ d`` and ``d.sum(axis=0)``),
    top layer first, once ``d @ W_i.T`` has read ``W_i`` for the last time."""
    acts = _forward_cached(model, x)
    logp = _log_softmax(acts[-1])
    n = len(y)
    loss = float(-logp[np.arange(n), y].mean())
    delta = np.exp(logp)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    for i in range(len(model.weights) - 1, -1, -1):
        below = (delta @ model.weights[i].T) * (acts[i] > 0) if i else None
        release(i, acts[i], delta)
        delta = below
    return loss


def nll_loss_and_gradients(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """Mean NLL plus its analytic gradients, from one forward pass."""
    gw, gb = [None] * len(model.weights), [None] * len(model.biases)

    def keep(i, a, d):
        gw[i], gb[i] = a.T @ d, d.sum(axis=0)

    return _backward(model, x, y, keep), gw, gb


@dataclass(frozen=True)
class TrainConfig:
    """Adam settings; ValueError unless batch_size >= 1 and epochs >= 0."""

    epochs: int = 150
    batch_size: int = 16
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("epochs", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral) or v < low:
                raise ValueError(f"{name} must be an int >= {low}, not {v!r}")


# A first moment whose gradient stays zero decays by b1 into the subnormal
# range and stays there (b1 times a few ulps rounds back to itself), where each
# product or quotient is about 30 times slower. Every FLUSH_EVERY steps such
# moments are zeroed; with the default TrainConfig their step is under half an
# ulp of any weight above 1e-284, so no weight changes.
FLUSH_EVERY = 32
# elements per slice of a layer's update, about: whole rows of W, whose
# gradient the taking thread makes in its scratch and uses while in cache
ADAM_BLOCK = 32768


def _row_cuts(w: np.ndarray, batch: int) -> list[int]:
    """Row bounds of W's update slices: balanced, never one row of several
    (numpy takes one row as a vector, summed in another order), and one
    slice unless W's width is a multiple of 8 and the batch at most 384.
    Only then do row slices of ``a.T @ delta`` keep the whole product's bits
    in OpenBLAS's SkylakeX kernels, whose last ``width % 8`` columns and
    blocked deeper sums depend on the row count."""
    n = 1 if w.shape[1] % 8 or batch > 384 else -(-w.size // ADAM_BLOCK)
    n = max(1, min(n, len(w) // 2))
    return [len(w) * j // n for j in range(n + 1)]


def _adam_drain(take, scratch, b1, b2, lr_t, eps_t):
    """Adam-update the slices (a, d, p, m, v) that ``take`` hands out, in
    place, until it raises IndexError; the gradient, ``a.T @ d`` or with
    ``a`` None ``d.sum(axis=0)``, goes in row 0 of ``scratch``."""
    while True:
        try:
            a, d, p, m, v = take()
        except IndexError:
            return
        g, s = scratch[:, :len(p)]
        if a is None:
            np.sum(d, axis=0, out=g)
        else:  # copy=False: raise rather than fill a copy
            np.matmul(a.T, d, out=g.reshape(-1, d.shape[1], copy=False))
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=s)
        v *= b2
        v += np.multiply(np.square(g, out=g), 1.0 - b2, out=s)
        np.sqrt(v, out=s)
        s += eps_t
        np.divide(m, s, out=s)
        s *= lr_t
        p -= s


def mlp_train(x: np.ndarray, y: np.ndarray,
              cfg: TrainConfig = TrainConfig(),
              hidden=HIDDEN_SIZES) -> tuple[MlpModel, list[float]]:
    """Train on preprocessed spectra with Adam; deterministic per seed.

    ``x`` is the raw (unnormalized) training matrix; scalar mean/std are
    computed here, applied, and stored in the returned model. The history is
    the mean NLL per epoch (running mean over that epoch's batches).

    No whole gradient array is built. The backward pass releases each layer
    once ``delta @ W.T`` has read W: its update goes onto a deque as slices
    of rows of W (``_row_cuts``) and one of the bias, which a helper thread
    takes from one end while this thread goes down the backward pass, then
    this thread from the other. The taking thread makes a slice's gradient
    rows ``a[:, rows].T @ delta`` in its scratch and feeds them to the Adam
    arithmetic: each element gets the whole-array gradient's and update's
    bits, whoever takes its slice, and when. The subnormal flush runs here
    once every slice of the step is done.
    """
    from concurrent.futures import ThreadPoolExecutor  # loaded on use: 7 ms

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    if x.ndim != 2 or len(x) != len(y):
        raise ShapeMismatch("x must be (n, d) with matching labels")
    if len(np.unique(y)) < 2:
        raise SingleClassTrainingSet("training split must contain both classes")

    mean = float(x.mean())
    std = float(x.std()) or 1.0
    xn = (x - mean) / std

    model = init_mlp(x.shape[1], hidden=hidden, seed=cfg.seed)
    model.norm_mean, model.norm_std = mean, std

    w, b = model.weights, model.biases
    mw, vw, mb, vb = ([np.zeros_like(p) for p in ps] for ps in (w, w, b, b))
    # per layer, its update's slices: (rows of W or None for b, p, m, v)
    layers = [[(slice(r0, r1), *(q[i][r0:r1].reshape(-1, copy=False)
                                 for q in (w, mw, vw))) for r0, r1 in
               itertools.pairwise(_row_cuts(w[i], cfg.batch_size))]
              + [(None, b[i], mb[i], vb[i])] for i in range(len(w))]
    # per thread (the helper's first), the gradient and update rows
    size = max(len(job[1]) for jobs in layers for job in jobs)
    scratch = np.empty((2, 2, size))

    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    rng = np.random.default_rng(cfg.seed + 1)
    history = []
    step = 0
    with ThreadPoolExecutor(1) as helper:
        for _ in range(cfg.epochs):
            order = rng.permutation(len(xn))
            losses = []
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                step += 1
                # bias-corrected step folded into the learning rate
                root = np.sqrt(1.0 - b2**step)
                adam = (b1, b2, cfg.learning_rate * root / (1.0 - b1**step),
                        cfg.adam_eps * root)
                jobs, helping = collections.deque(), []

                def release(i, a, d):
                    jobs.extend((a[:, rows] if rows else None, d, p, m, v)
                                for rows, p, m, v in layers[i])
                    helping.append(helper.submit(
                        _adam_drain, jobs.popleft, scratch[0], *adam))

                losses.append(_backward(model, xn[idx], y[idx], release))
                _adam_drain(jobs.pop, scratch[1], *adam)
                for done in helping:
                    done.result()
                if step % FLUSH_EVERY == 0:
                    for m in mw + mb:
                        m[np.abs(m) < np.finfo(float).tiny] = 0.0
            history.append(float(np.mean(losses)))
    return model, history


PREDICT_BLOCK = 256  # rows per batched forward pass: bounds its memory
TIE_MARGIN = 2.0**-30  # a logit gap past which probabilities cannot tie


def _verdicts(logits: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(logits)).argmax(axis=1)


def _error_terms(model: MlpModel) -> list[tuple[float, float, float]]:
    """Per layer: gamma_k, the largest column sum of |W| and
    gamma_k max|b| + k subnormals (see ``mlp_predict``)."""
    u, eta = np.finfo(float).eps / 2, np.finfo(float).smallest_subnormal
    terms = []
    for w, b in zip(model.weights, model.biases):
        k = len(w) + 1
        g = k * u / (1.0 - k * u)
        terms.append((g, np.abs(w).sum(axis=0).max(initial=0.0),
                      g * np.abs(b).max(initial=0.0) + k * eta))
    return terms


def _logit_error(terms, acts) -> np.ndarray:
    """E_L of ``mlp_predict`` per row, from one computed forward pass."""
    e = np.zeros(len(acts[0]))
    for h, (g, col, bias) in zip(acts, terms):
        e = (g * np.abs(h).max(axis=1, initial=0.0)
             + (1.0 + 2.0 * g) * e) * col + bias
    return e


def mlp_predict(model: MlpModel, x) -> np.ndarray:
    """Normalize with the stored stats and return argmax labels: one for a
    1-D ``x``, one per row of an (n, w) ``x``, each exactly what a one-row
    call returns.

    Rows run ``PREDICT_BLOCK`` at a time. A batched product sums in another
    order than a one-row one, so any row whose label that difference could
    flip is run again alone. The bound, with u = 2^-53 and E_0 = 0: a
    k-term dot product computed in any order is off by at most
    gamma_k |x|.|y|, gamma_k = ku / (1 - ku) (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., section 3.5), plus k subnormals for
    underflow.
    Layer i sums k_i = rows of W_i + 1 terms for h W + b. If E_{i-1} bounds
    both passes' error in h against exact arithmetic (ReLU is 1-Lipschitz),
    either pass's |h| is at most |h_hat| + 2 E_{i-1}, so
    E_i = gamma_{k_i} ((|h_hat| + 2 E_{i-1}) |W_i| + |b_i|) + E_{i-1} |W_i|
    bounds both at layer i; as v |W| <= max(v) c_i, c_i the largest column
    sum of |W_i|, one number a row is carried. The passes' logit gaps then
    differ by at most 4 E_L. Past ``TIE_MARGIN`` a gap fixes the label: the
    two probabilities differ by a relative 2^-31 or more, far above the
    few-ulp error of ``exp``, so they cannot round to a tie. A row is kept
    when |gap| > 8 E_L + ``TIE_MARGIN``; the factor 2 covers the rounding of
    the bound's own non-negative sums and of the gap, relative errors near
    L gamma_k (about 5e-13 at these widths). Every other row, and every row
    with a non-finite logit, is run alone.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    xn = (np.atleast_2d(arr) - model.norm_mean) / model.norm_std
    if xn.shape[1] != model.weights[0].shape[0]:
        raise ShapeMismatch(
            f"input width {xn.shape[1]} != model width {model.weights[0].shape[0]}"
        )
    terms = _error_terms(model)
    labels = np.empty(len(xn), dtype=np.intp)
    for start in range(0, len(xn), PREDICT_BLOCK):
        block = xn[start:start + PREDICT_BLOCK]
        acts = _forward_cached(model, block)
        logits = acts[-1]
        labels[start:start + len(block)] = _verdicts(logits)
        sure = np.abs(logits[:, 1] - logits[:, 0]) > (
            8.0 * _logit_error(terms, acts) + TIE_MARGIN)
        for i in np.flatnonzero(~(sure & np.isfinite(logits).all(axis=1))):
            labels[start + i] = _verdicts(
                _forward_cached(model, block[i:i + 1])[-1])[0]
    return labels[0] if single else labels


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
    params, grads = model.weights + model.biases, gw + gb
    starts = np.cumsum([0] + [a.size for a in params])
    total = int(starts[-1])
    h = 1e-5  # central-difference step
    rng = np.random.default_rng(seed)
    worst = 0.0
    for flat in rng.choice(total, size=min(n_samples, total), replace=False):
        k = int(np.searchsorted(starts, flat, side="right")) - 1
        a, g = params[k], grads[k]
        ij = np.unravel_index(int(flat - starts[k]), a.shape)
        orig = a[ij]
        a[ij] = orig + h
        f_plus, kinks_plus = _loss_and_kinks(model, x, y)
        a[ij] = orig - h
        f_minus, kinks_minus = _loss_and_kinks(model, x, y)
        a[ij] = orig
        if all(np.array_equal(p, q) for p, q in zip(kinks_plus, kinks_minus)):
            numeric = (f_plus - f_minus) / (2 * h)
            denom = max(abs(numeric), abs(g[ij]), 1e-8)
            worst = max(worst, abs(numeric - g[ij]) / denom)
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
    capped = {u: idx if len(idx) <= cap
              else np.sort(rng.choice(idx, size=cap, replace=False))
              for u, idx in by_subject.items()}

    plans = []
    for test_combo in itertools.combinations(uniq, n_test):
        train_combo = tuple(u for u in uniq if u not in test_combo)
        plans.append(SplitPlan(
            train_combo, test_combo,
            np.concatenate([capped[u] for u in train_combo]),
            np.concatenate([capped[u] for u in test_combo]), cap))
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
        return asdict(self)


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
        tp, tn, fp, fn, accuracy=ratio(tp + tn, len(pred)),
        precision=precision, recall=recall,
        f1=ratio(2 * precision * recall, precision + recall),
        specificity=ratio(tn, tn + fp))
