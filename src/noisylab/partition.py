"""Loss-based sample partitioning.

Per-sample losses (min-max normalized to [0, 1]) are modeled by a
two-component 1-D Gaussian mixture fit with EM. The posterior of the
small-mean component is the per-sample clean probability; thresholding
it splits the dataset, and a sliding window of threshold indicators
keeps only samples that stay on the clean side for `window` consecutive
epochs — the support set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

VARIANCE_FLOOR = 1e-6
_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class Gmm1d:
    """Two univariate Gaussian components; `small_idx` tags the lesser mean."""

    means: np.ndarray  # (2,)
    variances: np.ndarray  # (2,)
    weights: np.ndarray  # (2,)
    small_idx: int
    degenerate: bool = False
    log_likelihood_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.degenerate:
            return
        # written as negations so that NaN parameters fail the checks too
        if not abs(self.weights.sum() - 1.0) <= 1e-9:
            raise ParameterError(f"mixture weights {self.weights} do not sum to 1")
        if not (self.variances >= VARIANCE_FLOOR - 1e-15).all():
            raise ParameterError(
                f"variances {self.variances} fall below the floor {VARIANCE_FLOOR}")


def _component_log_densities(x: np.ndarray, means, variances) -> np.ndarray:
    # (n, 2) log N(x | mean_c, var_c)
    diff = x[:, None] - means[None, :]
    return -0.5 * (_LOG_2PI + np.log(variances)[None, :] + diff ** 2 / variances[None, :])


def _log_likelihood(x, means, variances, weights) -> float:
    logp = _component_log_densities(x, means, variances) + np.log(weights)[None, :]
    m = logp.max(axis=1, keepdims=True)
    return float((m[:, 0] + np.log(np.exp(logp - m).sum(axis=1))).sum())


def fit_gmm_1d(losses, max_iters: int = 100, tol: float = 1e-6) -> Gmm1d:
    """EM fit from a deterministic start.

    Component means are initialized at the 10th/90th percentiles with
    equal weights and the pooled variance. All-equal inputs yield a
    degenerate model whose posterior is 0.5 everywhere.
    """
    x = np.asarray(losses, dtype=np.float64)
    if x.ndim != 1 or len(x) < 2:
        raise ParameterError("need at least two loss values")
    if x.max() - x.min() < 1e-12:
        m = float(x.mean())
        return Gmm1d(np.array([m, m]), np.full(2, VARIANCE_FLOOR), np.array([0.5, 0.5]),
                     small_idx=0, degenerate=True)

    means = np.percentile(x, [10.0, 90.0]).astype(np.float64)
    variances = np.full(2, max(float(x.var()), VARIANCE_FLOOR))
    weights = np.array([0.5, 0.5])

    history = [_log_likelihood(x, means, variances, weights)]
    for _ in range(max_iters):
        # E step: responsibilities of each component
        logp = _component_log_densities(x, means, variances) + np.log(weights)[None, :]
        m = logp.max(axis=1, keepdims=True)
        p = np.exp(logp - m)
        resp = p / p.sum(axis=1, keepdims=True)

        # M step
        counts = resp.sum(axis=0)
        counts = np.maximum(counts, 1e-300)
        means = (resp * x[:, None]).sum(axis=0) / counts
        diff = x[:, None] - means[None, :]
        variances = np.maximum((resp * diff ** 2).sum(axis=0) / counts, VARIANCE_FLOOR)
        weights = counts / len(x)

        history.append(_log_likelihood(x, means, variances, weights))
        if abs(history[-1] - history[-2]) < tol:
            break

    small_idx = int(np.argmin(means))  # tie resolves to the first component
    return Gmm1d(means, variances, weights, small_idx, degenerate=False,
                 log_likelihood_history=history)


def clean_probability(gmm: Gmm1d, loss):
    """Posterior of the small-mean component at the given loss value(s)."""
    scalar = np.isscalar(loss)
    x = np.atleast_1d(np.asarray(loss, dtype=np.float64))
    if gmm.degenerate:
        out = np.full(len(x), 0.5)
        return float(out[0]) if scalar else out
    logp = _component_log_densities(x, gmm.means, gmm.variances) + np.log(gmm.weights)[None, :]
    m = logp.max(axis=1, keepdims=True)
    p = np.exp(logp - m)
    out = p[:, gmm.small_idx] / p.sum(axis=1)
    return float(out[0]) if scalar else out


def normalize_losses(losses: np.ndarray) -> np.ndarray:
    """Min-max normalize an epoch's loss vector to [0, 1]."""
    x = np.asarray(losses, dtype=np.float64)
    span = x.max() - x.min()
    if span < 1e-12:
        return np.zeros_like(x)
    return (x - x.min()) / span


@dataclass
class LossRecord:
    """Per-sample view of the selection state."""

    sample_id: int
    loss: float
    clean_prob: float
    window: tuple[int, ...]


class SelectionState:
    """Per-sample clean-probability bookkeeping with a ring-buffer window."""

    def __init__(self, n_samples: int, window: int):
        if window < 1:
            raise ParameterError("window length must be >= 1")
        self.window = window
        self.n_samples = n_samples
        self._buffer = np.zeros((n_samples, window), dtype=np.int8)
        self._pos = 0
        self._count = 0
        self.losses = np.zeros(n_samples)
        self.clean_probs = np.zeros(n_samples)

    def record(self, i: int) -> LossRecord:
        # window entries in chronological order, oldest first
        k = min(self._count, self.window)
        idx = [(self._pos - k + j) % self.window for j in range(k)]
        return LossRecord(i, float(self.losses[i]), float(self.clean_probs[i]),
                          tuple(int(v) for v in self._buffer[i, idx]))

    def push_indicators(self, indicators: np.ndarray) -> None:
        self._buffer[:, self._pos] = indicators.astype(np.int8)
        self._pos = (self._pos + 1) % self.window
        self._count = min(self._count + 1, self.window)

    @property
    def window_full(self) -> bool:
        return self._count >= self.window


def partition_epoch(state: SelectionState, losses: np.ndarray, gmm: Gmm1d,
                    tau_clean: float):
    """Split samples by clean probability and push window indicators.

    Returns (labeled ids, unlabeled ids, clean probabilities). The
    threshold is boundary-inclusive: w == tau_clean lands on the labeled
    side.
    """
    if not (0.0 < tau_clean < 1.0):
        raise ParameterError(f"tau_clean must lie in (0, 1), got {tau_clean}")
    losses = np.asarray(losses, dtype=np.float64)
    if len(losses) != state.n_samples:
        raise ParameterError("loss vector length does not match the state")
    w = clean_probability(gmm, losses)
    member = w >= tau_clean
    state.losses = losses
    state.clean_probs = w
    state.push_indicators(member)
    ids = np.arange(state.n_samples)
    return ids[member], ids[~member], w


def support_set(state: SelectionState) -> np.ndarray:
    """Ids whose last `window` indicators are all 1; empty until the window fills."""
    if not state.window_full:
        return np.empty(0, dtype=int)
    mask = state._buffer.all(axis=1)
    return np.arange(state.n_samples)[mask]
