"""The (n, 2) EM fit that `noisylab.partition` replaced, kept as an oracle.

Responsibilities are an (n, 2) array, one column per component: the
log-sum-exp takes `max(axis=1)`, the M step sums columns with
`sum(axis=0)`. `partition.fit_gmm_1d` holds them as (2, n) and must give
equal results, bit for bit.
"""

import numpy as np

from noisylab.partition import VARIANCE_FLOOR, Gmm1d

LOG_2PI = np.log(2.0 * np.pi)


def e_step(x, means, variances, weights):
    """(n, 2) component responsibilities and the total log-likelihood of x."""
    diff = x[:, None] - means[None, :]
    logp = (-0.5 * (LOG_2PI + np.log(variances)[None, :] + diff ** 2 / variances[None, :])
            + np.log(weights)[None, :])
    m = logp.max(axis=1, keepdims=True)
    p = np.exp(logp - m)
    total = p.sum(axis=1, keepdims=True)
    return p / total, float((m[:, 0] + np.log(total[:, 0])).sum())


def fit_gmm_1d(losses, max_iters=100, tol=1e-6):
    x = np.asarray(losses, dtype=np.float64)
    if x.max() - x.min() < 1e-12:
        m = float(x.mean())
        return Gmm1d(np.array([m, m]), np.full(2, VARIANCE_FLOOR), np.array([0.5, 0.5]),
                     small_idx=0)
    means = np.percentile(x, [10.0, 90.0]).astype(np.float64)
    variances = np.full(2, max(float(x.var()), VARIANCE_FLOOR))
    weights = np.array([0.5, 0.5])
    resp, ll = e_step(x, means, variances, weights)
    history = [ll]
    for _ in range(max_iters):
        counts = resp.sum(axis=0)
        counts = np.maximum(counts, 1e-300)
        means = (resp * x[:, None]).sum(axis=0) / counts
        diff = x[:, None] - means[None, :]
        variances = np.maximum((resp * diff ** 2).sum(axis=0) / counts, VARIANCE_FLOOR)
        weights = counts / len(x)
        resp, ll = e_step(x, means, variances, weights)
        history.append(ll)
        if abs(history[-1] - history[-2]) < tol:
            break
    return Gmm1d(means, variances, weights, int(np.argmin(means)),
                 log_likelihood_history=history)


def clean_probability(gmm, loss):
    x = np.atleast_1d(np.asarray(loss, dtype=np.float64))
    return e_step(x, gmm.means, gmm.variances, gmm.weights)[0][:, gmm.small_idx]
