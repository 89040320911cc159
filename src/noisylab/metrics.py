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
    """Fraction of rows of an (n, K) score matrix whose argmax is the label.

    Ties break to the lowest class index.
    """
    pred_labels = np.asarray(predictions).argmax(axis=1)
    labels = np.asarray(labels)
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
    return SelectionMetrics(precision, recall, f1)


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
    """P(id score > ood score) + 0.5 P(equal), via average ranks.

    One argsort of all scores marks the sorted places of the ID scores; the
    rank sum is then exact integer arithmetic over the runs of equal scores,
    with about two score-sized arrays held at a time.
    """
    id_scores, ood_scores = _score_pair(id_scores, ood_scores)
    n_pos, n_neg = len(id_scores), len(ood_scores)
    scores = np.concatenate([id_scores, ood_scores])
    is_id = np.argsort(scores) < n_pos
    scores.sort()  # argsort's order of values: equal scores are interchangeable
    starts = np.flatnonzero(np.r_[True, scores[1:] != scores[:-1]])  # each run's first place
    del scores
    n_id = np.add.reduceat(is_id, starts, dtype=np.int64)  # the ID scores of each run
    # a run at sorted places s..e-1 (0-based; e is the next run's s) shares the
    # average rank (s + e + 1) / 2, so twice the ID rank sum is an exact integer
    twice_rank_sum = n_id @ starts + n_id[:-1] @ starts[1:] + n_id[-1] * len(is_id) + n_pos
    u = twice_rank_sum / 2 - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def fpr_at_95_tpr(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """False-positive rate at the first threshold reaching 95% TPR.

    Thresholds step through the observed scores from high to low with the
    rule "positive iff score >= threshold" (ID positive); the highest
    threshold whose TPR reaches 0.95 is used. That is the k-th largest ID
    score, k the least count with k / n >= 0.95, found by one partition.
    """
    id_scores, ood_scores = _score_pair(id_scores, ood_scores)
    n = len(id_scores)
    k = -(-19 * n // 20)  # ceil(19 n / 20) in integers, at least 1
    threshold = np.partition(id_scores, n - k)[n - k]
    return float((ood_scores >= threshold).mean())
