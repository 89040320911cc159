"""Loss-based sample partitioning.

Per-sample losses (min-max normalized to [0, 1]) are modeled by a
two-component 1-D Gaussian mixture fit with EM. Responsibilities are
held as a (2, n) array, one row per component, so no step reduces over
the 2-wide axis: the M step takes each row's count with numpy's pairwise
`.sum(axis=1)` and its weighted sums as one GEMV (`resp @ x`) and one
row-wise `einsum`. The posterior of the small-mean component (row
`small_idx`) is the per-sample clean probability; thresholding
it splits the dataset, and a per-sample count of consecutive clean
epochs keeps only samples that stayed on the clean side for the last
`window` epochs — the support set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

VARIANCE_FLOOR = 1e-6
#: EM iterations after the start E step at most; a fit that runs them all is capped
EM_MAX_ITERS = 100
_LOG_2PI = np.log(2.0 * np.pi)
#: the start means' quantiles, divided as np.percentile divides [10, 90]
_START_QUANTILES = np.array([10.0, 90.0]) / 100


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


def _e_step(sq_diff: np.ndarray, variances, weights):
    """(2, n) component responsibilities and the total log-likelihood.

    sq_diff holds (x - mean)² per component, a (2, n) array: the M step
    computes it for the variances, and the E step reuses it, writing the
    log-densities and then the responsibilities over it.
    """
    logp = np.multiply(sq_diff, (-0.5 / variances)[:, None], out=sq_diff)
    logp += (np.log(weights) - 0.5 * (_LOG_2PI + np.log(variances)))[:, None]
    # two components: exact max and sum without a reduction over the 2-wide axis
    m = np.maximum(logp[0], logp[1])
    logp -= m
    p = np.exp(logp, out=logp)
    total = p[0] + p[1]
    p /= total
    return p, float((m + np.log(total)).sum())


def _sq_diff(x: np.ndarray, means) -> np.ndarray:
    """(x - mean)² per component, a (2, n) array."""
    diff = x[None, :] - means[:, None]
    return np.square(diff, out=diff)


def _start_means(x: np.ndarray) -> np.ndarray:
    """np.percentile(x, [10, 90]) bit for bit, from one partition of x.

    numpy's linear rule in its own float order: the virtual index
    (n - 1) * q, its floor and fraction t, then a + (b - a) * t, or
    b - (b - a) * (1 - t) where t >= 0.5. np.percentile itself names its
    indices with np.unique, which loads numpy.ma.
    """
    virtual = (len(x) - 1) * _START_QUANTILES
    below = np.floor(virtual)
    t = virtual - below
    lo = below.astype(np.intp)  # 0.9 * (n - 1) < n - 1, so lo + 1 is an index
    ordered = np.partition(x, np.concatenate([lo, lo + 1]))
    a, b = ordered[lo], ordered[lo + 1]
    d = b - a
    return np.where(t >= 0.5, b - d * (1 - t), a + d * t)


def fit_gmm_1d(losses, max_iters: int = EM_MAX_ITERS, tol: float = 1e-6) -> Gmm1d:
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

    means = _start_means(x)
    variances = np.full(2, max(float(x.var()), VARIANCE_FLOOR))
    weights = np.array([0.5, 0.5])

    resp, ll = _e_step(_sq_diff(x, means), variances, weights)
    history = [ll]
    for _ in range(max_iters):
        # M step, then the E step of the new parameters, which also scores them
        counts = np.maximum(resp.sum(axis=1), 1e-300)
        means = (resp @ x) / counts
        sq_diff = _sq_diff(x, means)
        variances = np.einsum("ij,ij->i", resp, sq_diff) / counts
        variances = np.maximum(variances, VARIANCE_FLOOR)
        weights = counts / len(x)

        resp, ll = _e_step(sq_diff, variances, weights)
        history.append(ll)
        if abs(history[-1] - history[-2]) < tol:
            break

    small_idx = int(np.argmin(means))  # tie resolves to the first component
    return Gmm1d(means, variances, weights, small_idx, log_likelihood_history=history)


def clean_probability(gmm: Gmm1d, loss) -> np.ndarray:
    """Posterior of the small-mean component at the given loss values (1-D array)."""
    x = np.atleast_1d(np.asarray(loss, dtype=np.float64))
    return _e_step(_sq_diff(x, gmm.means), gmm.variances, gmm.weights)[0][gmm.small_idx]


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
        self.window = window
        self.n_samples = n_samples
        self.streak = np.zeros(n_samples, dtype=np.int64)

    def push_indicators(self, indicators: np.ndarray) -> None:
        self.streak = np.where(np.asarray(indicators, dtype=bool), self.streak + 1, 0)


def partition_epoch(state: SelectionState, losses: np.ndarray, gmm: Gmm1d,
                    tau_clean: float):
    """Split samples by clean probability and push the clean indicators.

    Returns (labeled mask, clean probabilities). The threshold is
    boundary-inclusive: w == tau_clean lands on the labeled side.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if len(losses) != state.n_samples:
        raise ParameterError("loss vector length does not match the state")
    w = clean_probability(gmm, losses)
    labeled = w >= tau_clean
    state.push_indicators(labeled)
    return labeled, w


def support_mask(state: SelectionState) -> np.ndarray:
    """True where a sample was clean in each of the last `window` epochs; all
    False until `window` epochs have passed."""
    return state.streak >= state.window
