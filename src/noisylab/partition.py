"""Loss-based sample partitioning.

Per-sample losses (min-max normalized to [0, 1]) are modeled by a
two-component 1-D Gaussian mixture fit with EM. The posterior of the
small-mean component is the per-sample clean probability; thresholding
it splits the dataset, and a per-sample count of consecutive clean
epochs keeps only samples that stayed on the clean side for the last
`window` epochs — the support set.
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
    log_likelihood_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        # written as negations so that NaN parameters fail the checks too
        if not abs(self.weights.sum() - 1.0) <= 1e-9:
            raise ParameterError(f"mixture weights {self.weights} do not sum to 1")
        if not (self.variances >= VARIANCE_FLOOR - 1e-15).all():
            raise ParameterError(
                f"variances {self.variances} fall below the floor {VARIANCE_FLOOR}")


def _e_step(x: np.ndarray, means, variances, weights):
    """(n, 2) component responsibilities and the total log-likelihood of x."""
    diff = x[:, None] - means[None, :]
    logp = (-0.5 * (_LOG_2PI + np.log(variances)[None, :] + diff ** 2 / variances[None, :])
            + np.log(weights)[None, :])
    m = logp.max(axis=1, keepdims=True)
    p = np.exp(logp - m)
    total = p.sum(axis=1, keepdims=True)
    return p / total, float((m[:, 0] + np.log(total[:, 0])).sum())


def fit_gmm_1d(losses, max_iters: int = 100, tol: float = 1e-6) -> Gmm1d:
    """EM fit from a deterministic start.

    Component means are initialized at the 10th/90th percentiles with
    equal weights and the pooled variance. All-equal inputs yield two
    identical components at the variance floor, whose posterior is 0.5
    everywhere.
    """
    x = np.asarray(losses, dtype=np.float64)
    if x.ndim != 1 or len(x) < 2:
        raise ParameterError("need at least two loss values")
    if x.max() - x.min() < 1e-12:
        m = float(x.mean())
        return Gmm1d(np.array([m, m]), np.full(2, VARIANCE_FLOOR), np.array([0.5, 0.5]),
                     small_idx=0)

    means = np.percentile(x, [10.0, 90.0]).astype(np.float64)
    variances = np.full(2, max(float(x.var()), VARIANCE_FLOOR))
    weights = np.array([0.5, 0.5])

    resp, ll = _e_step(x, means, variances, weights)
    history = [ll]
    for _ in range(max_iters):
        # M step, then the E step of the new parameters, which also scores them
        counts = resp.sum(axis=0)
        counts = np.maximum(counts, 1e-300)
        means = (resp * x[:, None]).sum(axis=0) / counts
        diff = x[:, None] - means[None, :]
        variances = np.maximum((resp * diff ** 2).sum(axis=0) / counts, VARIANCE_FLOOR)
        weights = counts / len(x)

        resp, ll = _e_step(x, means, variances, weights)
        history.append(ll)
        if abs(history[-1] - history[-2]) < tol:
            break

    small_idx = int(np.argmin(means))  # tie resolves to the first component
    return Gmm1d(means, variances, weights, small_idx, log_likelihood_history=history)


def clean_probability(gmm: Gmm1d, loss) -> np.ndarray:
    """Posterior of the small-mean component at the given loss values (1-D array)."""
    x = np.atleast_1d(np.asarray(loss, dtype=np.float64))
    return _e_step(x, gmm.means, gmm.variances, gmm.weights)[0][:, gmm.small_idx]


def normalize_losses(losses: np.ndarray) -> np.ndarray:
    """Min-max normalize an epoch's loss vector to [0, 1]."""
    x = np.asarray(losses, dtype=np.float64)
    span = x.max() - x.min()
    if span < 1e-12:
        return np.zeros_like(x)
    return (x - x.min()) / span


class SelectionState:
    """Per-sample count of consecutive epochs on the clean side."""

    def __init__(self, n_samples: int, window: int):
        if window < 1:
            raise ParameterError("window length must be >= 1")
        self.window = window
        self.n_samples = n_samples
        self.streak = np.zeros(n_samples, dtype=np.int64)

    def push_indicators(self, indicators: np.ndarray) -> None:
        self.streak = np.where(np.asarray(indicators, dtype=bool), self.streak + 1, 0)


def partition_epoch(state: SelectionState, losses: np.ndarray, gmm: Gmm1d,
                    tau_clean: float):
    """Split samples by clean probability and push the clean indicators.

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
    state.push_indicators(member)
    ids = np.arange(state.n_samples)
    return ids[member], ids[~member], w


def support_set(state: SelectionState) -> np.ndarray:
    """Ids clean in each of the last `window` epochs; empty until `window` epochs passed."""
    return np.flatnonzero(state.streak >= state.window)
