"""Evaluation metrics: accuracy, selection quality, and OOD detection.

OOD scores follow the convention "higher = more in-distribution"; the
harness feeds negated energies. AUROC uses the Mann-Whitney rank
statistic with ties counted one half. FPR95 uses step thresholds at the
observed scores, no interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax matches; ties break to the lowest class index.

    `predictions` is either a (n, K) score matrix or an already-argmaxed
    integer vector.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    pred_labels = predictions.argmax(axis=1) if predictions.ndim == 2 else predictions
    if len(pred_labels) != len(labels):
        raise ShapeError("predictions and labels differ in length")
    if len(labels) == 0:
        raise ParameterError("cannot score an empty prediction set")
    return float((pred_labels == labels).mean())


@dataclass
class SelectionMetrics:
    precision: float | None  # None when nothing was selected
    recall: float
    f1: float
    n_selected: int
    n_clean: int


def selection_metrics(selected: np.ndarray, clean: np.ndarray) -> SelectionMetrics:
    """Quality of a selected subset against the hidden clean mask.

    Positive class: the sample's given label is correct. Precision is
    undefined (None) for an empty selection; recall is then zero.
    """
    selected = np.asarray(selected, dtype=bool)
    clean = np.asarray(clean, dtype=bool)
    if selected.shape != clean.shape:
        raise ShapeError("selection and clean masks differ in shape")
    n_sel = int(selected.sum())
    n_clean = int(clean.sum())
    tp = int((selected & clean).sum())
    precision = tp / n_sel if n_sel else None
    recall = tp / n_clean if n_clean else 0.0
    if precision is None or precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return SelectionMetrics(precision, recall, f1, n_sel, n_clean)


def _score_pair(id_scores, ood_scores):
    """Both score vectors as float64, checked nonempty and finite."""
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if len(id_scores) == 0 or len(ood_scores) == 0:
        raise ParameterError("both score sets must be nonempty")
    if not (np.isfinite(id_scores).all() and np.isfinite(ood_scores).all()):
        raise ParameterError("scores must be finite")
    return id_scores, ood_scores


def auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """P(id score > ood score) + 0.5 P(equal), via average ranks."""
    id_scores, ood_scores = _score_pair(id_scores, ood_scores)
    n_pos, n_neg = len(id_scores), len(ood_scores)
    # a run of equal scores at sorted positions first..last (0-based) shares
    # the average rank (first + last) / 2 + 1
    _, inverse, counts = np.unique(np.concatenate([id_scores, ood_scores]),
                                   return_inverse=True, return_counts=True)
    last = np.cumsum(counts) - 1
    ranks = (0.5 * (2 * last - counts + 1) + 1.0)[inverse]
    rank_sum = ranks[:n_pos].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def fpr_at_95_tpr(id_scores: np.ndarray, ood_scores: np.ndarray,
                  tpr_target: float = 0.95) -> float:
    """False-positive rate at the first threshold reaching the TPR target.

    Thresholds step through the observed scores from high to low with the
    rule "positive iff score >= threshold" (ID positive); the highest
    threshold whose TPR reaches the target is used.
    """
    id_scores, ood_scores = _score_pair(id_scores, ood_scores)
    thresholds = np.unique(np.concatenate([id_scores, ood_scores]))
    # TPR only grows as the threshold falls: take the highest one reaching the target
    n_id_at_or_above = len(id_scores) - np.searchsorted(np.sort(id_scores), thresholds)
    reached = np.flatnonzero(n_id_at_or_above / len(id_scores) >= tpr_target)
    if len(reached) == 0:
        return 1.0  # every sample below every threshold: classify all positive
    return float((ood_scores >= thresholds[reached[-1]]).mean())
