"""Accuracy, selection quality, AUROC, and FPR95."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylab import metrics
from noisylab.errors import ParameterError, ShapeError

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def score_pairs(draw):
    """ID and OOD scores of 1-40 entries each from one alphabet of 2-40 values:
    either split between the sets, every score distinct, or drawn with
    replacement, which forces ties within and across the sets."""
    alphabet = draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40, unique=True))
    if draw(st.booleans()):
        split = draw(st.integers(1, len(alphabet) - 1))
        return np.array(alphabet[:split]), np.array(alphabet[split:])
    side = st.lists(st.sampled_from(alphabet), min_size=1, max_size=40)
    return np.array(draw(side)), np.array(draw(side))


class TestAccuracy:
    def test_all_correct(self):
        preds = np.eye(4)
        assert metrics.accuracy(preds, np.arange(4)) == 1.0

    def test_all_wrong(self):
        preds = np.eye(4)
        assert metrics.accuracy(preds, (np.arange(4) + 1) % 4) == 0.0

    def test_matches_brute_force_count(self):
        rng = np.random.default_rng(0)
        preds = rng.normal(size=(500, 7))
        labels = rng.integers(0, 7, size=500)
        correct = sum(1 for i in range(500) if int(np.argmax(preds[i])) == labels[i])
        assert metrics.accuracy(preds, labels) == correct / 500

    def test_tie_breaks_to_lowest_index(self):
        preds = np.array([[1.0, 1.0, 0.0]])
        assert metrics.accuracy(preds, np.array([0])) == 1.0
        assert metrics.accuracy(preds, np.array([1])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.accuracy(np.eye(3), np.zeros(2, dtype=int))


class TestSelectionMetrics:
    def test_exact_clean_set_is_perfect(self):
        clean = np.array([True, False, True, True])
        m = metrics.selection_metrics(clean.copy(), clean)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_empty_selection_flags_precision(self):
        clean = np.array([True, False])
        m = metrics.selection_metrics(np.zeros(2, dtype=bool), clean)
        assert m.precision is None
        assert m.recall == 0.0 and m.f1 == 0.0

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            selected = rng.random(200) < 0.3
            clean = rng.random(200) < 0.6
            m = metrics.selection_metrics(selected, clean)
            tp = sum(1 for i in range(200) if selected[i] and clean[i])
            fp = sum(1 for i in range(200) if selected[i] and not clean[i])
            fn = sum(1 for i in range(200) if not selected[i] and clean[i])
            if tp + fp:
                assert np.isclose(m.precision, tp / (tp + fp))
            if tp + fn:
                assert np.isclose(m.recall, tp / (tp + fn))
            if m.precision and m.precision + m.recall > 0:
                assert np.isclose(m.f1, 2 * m.precision * m.recall / (m.precision + m.recall))


def brute_force_auroc(id_scores, ood_scores):
    wins = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))


def unique_rank_auroc(id_scores, ood_scores):
    """The rank sum as `metrics.auroc` took it before: average ranks from
    `np.unique`'s inverse and counts, over the concatenated scores."""
    n_pos, n_neg = len(id_scores), len(ood_scores)
    _, inverse, counts = np.unique(np.concatenate([id_scores, ood_scores]),
                                   return_inverse=True, return_counts=True)
    last = np.cumsum(counts) - 1
    ranks = (0.5 * (2 * last - counts + 1) + 1.0)[inverse]
    u = ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def unique_threshold_fpr(id_scores, ood_scores):
    """FPR95 as `metrics.fpr_at_95_tpr` took it before: every unique observed
    score as a threshold, the ID counts at or above each by `searchsorted`, and
    the TPR test in floating point."""
    thresholds = np.unique(np.concatenate([id_scores, ood_scores]))
    n_id_at_or_above = len(id_scores) - np.searchsorted(np.sort(id_scores), thresholds)
    reached = np.flatnonzero(n_id_at_or_above / len(id_scores) >= 0.95)
    return float((ood_scores >= thresholds[reached[-1]]).mean())


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAuroc:
    def test_perfect_separation(self):
        assert metrics.auroc(np.array([2.0, 3.0]), np.array([0.0, 1.0])) == 1.0

    def test_identical_multisets_give_half(self):
        s = np.array([0.1, 0.5, 0.5, 0.9])
        assert metrics.auroc(s, s.copy()) == 0.5

    @PROPERTY
    @given(score_pairs())
    def test_matches_pairwise_oracle_on_random_sets(self, scores):
        a, b = scores
        assert abs(metrics.auroc(a, b) - brute_force_auroc(a, b)) < 1e-12

    @pytest.mark.parametrize("case", ["continuous", "tie-heavy", "signed-zeros", "one-element"])
    def test_equals_unique_rank_formula_bitwise(self, case):
        # ranks are half-integers and every sum of them is exact, so the value is the same
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n_pos, n_neg = rng.integers(1, 400, size=2)
            if case == "continuous":
                a, b = rng.normal(size=n_pos), rng.normal(0.5, 1.0, size=n_neg)
            elif case == "tie-heavy":
                a, b = (rng.integers(0, 5, size=n).astype(float) for n in (n_pos, n_neg))
            elif case == "signed-zeros":
                a, b = (np.where(rng.random(n) < 0.5, -1.0, 1.0) * rng.integers(0, 2, size=n)
                        for n in (n_pos, n_neg))
            else:
                a, b = rng.normal(size=1), rng.normal(size=1 + seed % 2 * n_neg)
            assert metrics.auroc(a, b) == unique_rank_auroc(a, b), seed
        assert metrics.auroc(np.array([1.0]), np.array([1.0])) == 0.5

    def test_peak_memory_at_most_half_the_unique_rank_formula(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=200_000), rng.normal(size=1_000)
        # the np.unique formula peaked at 14.0 MiB here
        assert _peak_bytes(metrics.auroc, a, b) <= 0.5 * _peak_bytes(unique_rank_auroc, a, b)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=30), rng.normal(size=40)
        base = metrics.auroc(a, b)
        for f in (np.exp, np.tanh, lambda x: 3 * x + 7, lambda x: x ** 3):
            assert np.isclose(metrics.auroc(f(a), f(b)), base, atol=1e-12)

    def test_negation_flips(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=25), rng.normal(size=25)
        assert np.isclose(metrics.auroc(-a, -b), 1.0 - metrics.auroc(a, b), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            metrics.auroc(np.array([]), np.array([1.0]))


class TestFpr95:
    def test_perfect_separation_gives_zero(self):
        id_s = np.linspace(1.0, 2.0, 100)
        ood_s = np.linspace(-1.0, 0.0, 100)
        assert metrics.fpr_at_95_tpr(id_s, ood_s) == 0.0

    def test_identical_distributions_give_about_ninety_five(self):
        s = np.linspace(0.0, 1.0, 100)
        out = metrics.fpr_at_95_tpr(s, s.copy())
        assert abs(out - 0.95) <= 0.02

    @PROPERTY
    @given(score_pairs())
    def test_matches_threshold_scan_oracle(self, scores):
        id_s, ood_s = scores
        got = metrics.fpr_at_95_tpr(id_s, ood_s)
        # oracle: scan all observed thresholds, keep the largest with
        # TPR >= 0.95, report its FPR
        best_t = None
        for t in np.concatenate([id_s, ood_s]):
            if (id_s >= t).mean() >= 0.95 and (best_t is None or t > best_t):
                best_t = t
        assert got == (ood_s >= best_t).mean()

    @pytest.mark.parametrize("scale", [-1.0, 0.0, 1e-9, 0.5, 0.95, 1.0, 1.5, 1 / 3, 0.7])
    def test_equals_unique_threshold_formula_bitwise(self, scale):
        # every score times `scale`: -1 reverses the order, 0 ties every score
        # (signed zeros included), 1e-9 rounds neighbours together, the rest keep it.
        # Random ID sizes, then the sizes at which 95% of n is a whole count (k / n
        # is exactly 0.95), among them ood-eval's 20,000 test rows
        sizes = [None] * 300 + [20, 40, 60, 100, 380, 1000, 4000, 20_000]
        for seed, size in enumerate(sizes):
            rng = np.random.default_rng(seed)
            n_pos, n_neg = rng.integers(1, 300, size=2)
            n_pos = size or n_pos
            if seed % 3 == 0:
                a, b = rng.normal(size=n_pos), rng.normal(0.5, 1.0, size=n_neg)
            elif seed % 3 == 1:  # ties within and across the sets
                a, b = (rng.integers(0, 6, size=n).astype(float) for n in (n_pos, n_neg))
            else:  # every OOD score above every ID score, or the reverse
                a, b = rng.normal(size=n_pos), rng.normal(size=n_neg) + rng.choice([-9.0, 9.0])
            a, b = a * scale, b * scale
            assert metrics.fpr_at_95_tpr(a, b) == unique_threshold_fpr(a, b), (seed, n_pos)

    def test_peak_memory_at_most_half_the_unique_threshold_formula(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=200_000), rng.normal(size=1_000)
        # the np.unique formula peaked at 5.8 MiB here
        assert (_peak_bytes(metrics.fpr_at_95_tpr, a, b)
                <= 0.5 * _peak_bytes(unique_threshold_fpr, a, b))

    def test_nonincreasing_as_distributions_separate(self):
        rng = np.random.default_rng(6)
        id_s = rng.normal(0.0, 1.0, size=200)
        ood_s = rng.normal(0.0, 1.0, size=200)
        values = [metrics.fpr_at_95_tpr(id_s, ood_s - shift) for shift in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))
