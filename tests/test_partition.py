"""GMM fitting, clean probabilities, and windowed support selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gmm_oracle
from noisylab import partition
from noisylab.errors import ParameterError


def planted_mixture(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    comp = rng.random(n) < 0.5
    x = np.where(comp, rng.normal(0.1, 0.03, n), rng.normal(0.8, 0.05, n))
    return x


def split_ids(labeled):
    """The labeled and unlabeled ids of a labeled mask."""
    return np.flatnonzero(labeled), np.flatnonzero(~labeled)


def support_ids(state):
    return np.flatnonzero(partition.support_mask(state))


def mixture_log_likelihood(x, means, variances, weights):
    """Value-only oracle: sum of log(w0 N(x | m0, v0) + w1 N(x | m1, v1))."""
    per_comp = [np.log(w) - 0.5 * np.log(2.0 * np.pi * v) - (x - m) ** 2 / (2.0 * v)
                for m, v, w in zip(means, variances, weights)]
    return float(np.logaddexp(*per_comp).sum())


class TestFitGmm:
    def test_recovers_planted_means(self):
        gmm = partition.fit_gmm_1d(planted_mixture())
        means = np.sort(gmm.means)
        assert abs(means[0] - 0.1) <= 0.03
        assert abs(means[1] - 0.8) <= 0.03
        assert gmm.means[gmm.small_idx] == means[0]

    def test_two_point_data_hits_variance_floor(self):
        x = np.array([0.0, 1.0] * 50)
        gmm = partition.fit_gmm_1d(x, max_iters=300)
        means = np.sort(gmm.means)
        assert abs(means[0]) < 1e-3 and abs(means[1] - 1.0) < 1e-3
        assert (gmm.variances <= partition.VARIANCE_FLOOR + 1e-12).all()

    def test_log_likelihood_monotone_nondecreasing(self):
        for seed in range(10):
            gmm = partition.fit_gmm_1d(planted_mixture(500, seed))
            ll = gmm.log_likelihood_history
            assert all(b - a >= -1e-10 for a, b in zip(ll, ll[1:]))

    def test_last_history_entry_scores_returned_parameters(self):
        # small caps stop the loop while the likelihood still moves by far more
        # than tol, so an entry one M step behind would not match
        for seed, max_iters in [(0, 1), (1, 2), (2, 5), (3, 100), (4, 100)]:
            rng = np.random.default_rng(seed)
            x = np.concatenate([rng.normal(0.3, 0.1, 300), rng.normal(0.6, 0.2, 200)])
            gmm = partition.fit_gmm_1d(x, max_iters=max_iters)
            history = gmm.log_likelihood_history
            assert 2 <= len(history) <= max_iters + 1
            oracle = mixture_log_likelihood(x, gmm.means, gmm.variances, gmm.weights)
            assert abs(history[-1] - oracle) <= 1e-11 * abs(oracle)
            if max_iters < 100:
                assert abs(history[-1] - history[-2]) > 1e-3

    def test_matches_n2_oracle_to_rounding(self):
        # the (2, n) fit sums rows pairwise where the (n, 2) one sums columns
        # left to right: parameters within 1e-12 relative, posteriors within
        # 1e-12 of their largest (a posterior of 1e-140 carries the rounding of
        # its exponent), the same component and the same iteration count, for
        # sizes from 2 to 3000
        rng = np.random.default_rng(17)
        sizes = [2, 3, 7, 8, 9, 16, 17] + [int(v) for v in rng.integers(10, 3000, 193)]
        for case, n in enumerate(sizes):
            kind = case % 4
            if kind == 0:
                x = rng.random(n)
            elif kind == 1:
                x = np.where(rng.random(n) < 0.6, rng.normal(0.1, 0.05, n),
                             rng.normal(0.7, 0.1, n))
            elif kind == 2:
                x = rng.beta(0.5, 2.0, n)
            else:
                x = np.round(rng.random(n), 1)  # one decimal: heavy ties
            max_iters = (1, 2, 5, 100)[(case // 4) % 4]
            got = partition.fit_gmm_1d(x, max_iters=max_iters)
            want = gmm_oracle.fit_gmm_1d(x, max_iters=max_iters)
            label = (case, n, max_iters)
            for name in ("means", "variances", "weights"):
                assert np.allclose(getattr(got, name), getattr(want, name),
                                   rtol=1e-12, atol=0.0), (label, name)
            assert got.small_idx == want.small_idx, label
            assert len(got.log_likelihood_history) == len(want.log_likelihood_history), label
            grid = np.linspace(-0.1, 1.1, 301)
            for values in (x, grid):
                want_p = gmm_oracle.clean_probability(want, values)
                assert np.allclose(partition.clean_probability(got, values), want_p,
                                   rtol=0.0, atol=1e-12 * np.abs(want_p).max()), label

    def test_all_equal_losses_degenerate(self):
        gmm = partition.fit_gmm_1d(np.full(20, 0.3))
        assert gmm.means[0] == gmm.means[1]
        assert np.array_equal(gmm.variances, np.full(2, partition.VARIANCE_FLOOR))
        assert np.array_equal(gmm.weights, [0.5, 0.5])
        assert (partition.clean_probability(gmm, np.linspace(0, 1, 7)) == 0.5).all()

    def test_too_few_values_rejected(self):
        with pytest.raises(ParameterError):
            partition.fit_gmm_1d([0.5])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            partition.Gmm1d(np.array([0.1, 0.8]), np.array([0.01, 0.01]),
                            np.array([0.5, 0.6]), small_idx=0)
        with pytest.raises(ParameterError):
            partition.Gmm1d(np.array([0.1, 0.8]), np.array([0.01, np.nan]),
                            np.array([0.5, 0.5]), small_idx=0)


class TestCleanProbability:
    def test_identical_components_give_half(self):
        gmm = partition.Gmm1d(np.array([0.4, 0.4]), np.array([0.01, 0.01]),
                              np.array([0.5, 0.5]), small_idx=0)
        for loss in (0.0, 0.25, 0.4, 0.9):
            assert np.isclose(partition.clean_probability(gmm, loss), 0.5)

    def test_far_separated_component_gets_near_one(self):
        # other component 20 sigma away from the small mean
        sigma = 0.02
        gmm = partition.Gmm1d(np.array([0.1, 0.1 + 20 * sigma]),
                              np.array([sigma ** 2, sigma ** 2]),
                              np.array([0.5, 0.5]), small_idx=0)
        w = partition.clean_probability(gmm, 0.1)
        # density-ratio oracle at the small mean
        log_ratio = 0.0 - (-0.5 * (20.0) ** 2)
        oracle = 1.0 / (1.0 + np.exp(-log_ratio))
        assert w > 0.999
        assert np.isclose(w, oracle, rtol=1e-12)

    def test_monotone_nonincreasing_when_small_variance_smaller(self):
        gmm = partition.Gmm1d(np.array([0.1, 0.8]), np.array([0.03 ** 2, 0.08 ** 2]),
                              np.array([0.4, 0.6]), small_idx=0)
        grid = np.linspace(0.0, 1.0, 2001)
        w = partition.clean_probability(gmm, grid)
        assert (np.diff(w) <= 1e-12).all()

    def test_monotone_on_fitted_planted_mixture(self):
        gmm = partition.fit_gmm_1d(planted_mixture())
        grid = np.linspace(0.0, 1.0, 2001)
        w = partition.clean_probability(gmm, grid)
        assert (np.diff(w) <= 1e-12).all()


class TestPartitionEpoch:
    def _state_and_gmm(self, n=10, window=3):
        state = partition.SelectionState(n, window)
        gmm = partition.Gmm1d(np.array([0.1, 0.8]), np.array([0.01, 0.01]),
                              np.array([0.5, 0.5]), small_idx=0)
        return state, gmm

    def test_boundary_value_is_labeled(self):
        state, gmm = self._state_and_gmm(n=1)
        # find the loss whose posterior equals exactly tau by symmetry:
        # with equal weights/variances, w = 0.5 at the midpoint 0.45
        mask, w = partition.partition_epoch(state, np.array([0.45]), gmm, 0.5)
        labeled, unlabeled = split_ids(mask)
        assert np.isclose(w[0], 0.5)
        assert list(labeled) == [0] and len(unlabeled) == 0

    def test_all_low_probability_goes_unlabeled(self):
        state, gmm = self._state_and_gmm(n=5)
        losses = np.full(5, 0.8)  # at the noisy mean, w near 0
        mask, w = partition.partition_epoch(state, losses, gmm, 0.5)
        labeled, unlabeled = split_ids(mask)
        assert len(labeled) == 0
        assert len(unlabeled) == 5

    def test_partition_matches_brute_force_filter(self):
        rng = np.random.default_rng(8)
        state, gmm = self._state_and_gmm(n=200)
        losses = rng.random(200)
        mask, w = partition.partition_epoch(state, losses, gmm, 0.5)
        labeled, unlabeled = split_ids(mask)
        expect_labeled = [i for i in range(200) if w[i] >= 0.5]
        expect_unlabeled = [i for i in range(200) if w[i] < 0.5]
        assert list(labeled) == expect_labeled
        assert list(unlabeled) == expect_unlabeled

    def test_disjoint_cover_every_epoch(self):
        rng = np.random.default_rng(9)
        state, gmm = self._state_and_gmm(n=50)
        for _ in range(7):
            labeled, unlabeled = split_ids(
                partition.partition_epoch(state, rng.random(50), gmm, 0.5)[0])
            assert set(labeled) & set(unlabeled) == set()
            assert len(labeled) + len(unlabeled) == 50


class TestSupportSet:
    def _push(self, state, cols):
        for col in cols:
            state.push_indicators(np.asarray(col))

    def test_full_window_selects(self):
        state = partition.SelectionState(1, 3)
        self._push(state, [[1], [1], [1]])
        assert list(support_ids(state)) == [0]

    def test_one_miss_deselects(self):
        state = partition.SelectionState(1, 3)
        self._push(state, [[1], [1], [0]])
        assert len(support_ids(state)) == 0

    def test_empty_before_window_fills(self):
        state = partition.SelectionState(4, 3)
        self._push(state, [[1, 1, 1, 1], [1, 1, 1, 1]])
        assert len(support_ids(state)) == 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(1, 60), st.integers(1, 12), st.data())
    def test_matches_brute_force_window_scan(self, v, n, epochs, data):
        # every prefix of the history, including those shorter than the window
        # the fill makes most histories mostly clean or mostly noisy, so that long
        # streaks and streaks broken by one epoch both occur at every window
        history = data.draw(hnp.arrays(bool, (epochs, n), elements=st.booleans(),
                                       fill=st.booleans()))
        state = partition.SelectionState(n, v)
        assert len(support_ids(state)) == 0
        for e in range(1, epochs + 1):
            state.push_indicators(history[e - 1])
            expected = [i for i in range(n) if e >= v and history[e - v:e, i].all()]
            assert list(support_ids(state)) == expected, (v, e)

    def test_support_subset_of_current_labeled(self):
        rng = np.random.default_rng(13)
        state = partition.SelectionState(100, 3)
        gmm = partition.Gmm1d(np.array([0.1, 0.8]), np.array([0.01, 0.01]),
                              np.array([0.5, 0.5]), small_idx=0)
        for _ in range(5):
            labeled, _ = split_ids(partition.partition_epoch(state, rng.random(100), gmm, 0.5)[0])
        assert set(support_ids(state)) <= set(labeled)


class TestNormalizeLosses:
    def test_maps_to_unit_interval(self):
        x = np.array([2.0, 4.0, 3.0])
        out = partition.normalize_losses(x)
        assert np.allclose(out, [0.0, 1.0, 0.5])

    def test_constant_vector_goes_to_zero(self):
        assert np.allclose(partition.normalize_losses(np.full(5, 3.3)), 0.0)


def test_determinism_identical_inputs_identical_partitions():
    def run():
        x = planted_mixture(400, seed=5)
        gmm = partition.fit_gmm_1d(x)
        state = partition.SelectionState(400, 3)
        out = []
        rng = np.random.default_rng(2)
        for _ in range(4):
            mask, w = partition.partition_epoch(state, rng.random(400), gmm, 0.5)
            out.append((np.flatnonzero(mask), w.copy()))
        return out, support_ids(state)

    a, sup_a = run()
    b, sup_b = run()
    assert np.array_equal(sup_a, sup_b)
    for (la, wa), (lb, wb) in zip(a, b):
        assert np.array_equal(la, lb)
        assert np.array_equal(wa, wb)
