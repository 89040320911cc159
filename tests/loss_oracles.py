"""Value-only loss oracles, written independently of `noisylab.nn`.

They recompute the semi-supervised and contrastive loss values from
already-computed predictions or projections, with no gradient path, so
tests can compare them against the terms the training path uses.
"""

import numpy as np

from noisylab.errors import ParameterError, ShapeError
from noisylab.nn import CE_EPS


def soft_ce_values(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    return -(targets * np.log(np.maximum(probs, CE_EPS))).sum(axis=1)


def ssl_loss(labeled_probs, labeled_targets, unlabeled_probs, unlabeled_targets,
             lambda_u: float, lambda_reg: float):
    """Semi-supervised objective from already-computed predictions.

    Labeled term: mean soft cross entropy. Unlabeled term: mean squared
    error between predictions and pseudo-targets (averaged over classes).
    Regularizer: KL from the uniform prior to the batch-mean prediction
    over all rows. Returns (total, l_x, l_u, l_reg).
    """
    labeled_probs = np.atleast_2d(labeled_probs)
    if len(labeled_probs) == 0:
        raise ParameterError("labeled part must be nonempty")
    k = labeled_probs.shape[1]
    l_x = float(soft_ce_values(labeled_probs, labeled_targets).mean())

    has_u = unlabeled_probs is not None and len(unlabeled_probs) > 0
    if has_u:
        l_u = float(((unlabeled_probs - unlabeled_targets) ** 2).sum(axis=1).mean() / k)
        all_probs = np.vstack([labeled_probs, unlabeled_probs])
    else:
        l_u = 0.0
        all_probs = labeled_probs

    prior = 1.0 / k
    pbar = all_probs.mean(axis=0)
    l_reg = float((prior * np.log(prior / pbar)).sum())

    total = l_x + lambda_u * l_u + lambda_reg * l_reg
    return total, l_x, l_u, l_reg


def contrastive_loss(projections: np.ndarray, temperature: float) -> float:
    """NT-Xent over unit-norm projections ordered as adjacent view pairs."""
    if temperature <= 0:
        raise ParameterError("contrastive temperature must be positive")
    z = np.atleast_2d(projections)
    m = len(z)
    if m % 2 != 0 or m < 2:
        raise ShapeError("projection batch must hold adjacent view pairs")
    sims = (z @ z.T) / temperature
    np.fill_diagonal(sims, -np.inf)
    row_max = sims.max(axis=1)
    log_denom = row_max + np.log(np.exp(sims - row_max[:, None]).sum(axis=1))
    pos = np.arange(m) ^ 1
    return float((-sims[np.arange(m), pos] + log_denom).mean())
