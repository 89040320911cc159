"""Envelope, centroids, candidate samplers, filtering, and the energy BCE loss."""

import tracemalloc

import numpy as np
import pytest

import geometry_oracle
import loss_oracles
from noisylab import geometry, nn
from noisylab.errors import EmptySupportError
from gradcheck import REL_TOL, finite_difference_grads, max_relative_error


class TestEnvelope:
    def test_direct_extrema(self):
        feats = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 0.0]])
        env = geometry.estimate_envelope(feats)
        assert np.allclose(env.low, [0.0, -1.0])
        assert np.allclose(env.high, [2.0, 1.0])

    def test_single_point_degenerate_box(self):
        p = np.array([[3.0, -2.0, 0.5]])
        env = geometry.estimate_envelope(p)
        assert np.allclose(env.low, p[0]) and np.allclose(env.high, p[0])

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(1000, 6))
        env = geometry.estimate_envelope(feats)
        for j in range(6):
            lo = min(feats[i, j] for i in range(1000))
            hi = max(feats[i, j] for i in range(1000))
            assert env.low[j] == lo and env.high[j] == hi

    def test_tightness_extrema_attained(self):
        rng = np.random.default_rng(14)
        feats = rng.normal(size=(64, 3))
        env = geometry.estimate_envelope(feats)
        for j in range(3):
            assert (feats[:, j] == env.low[j]).any()
            assert (feats[:, j] == env.high[j]).any()

    def test_empty_raises_skip_signal(self):
        with pytest.raises(EmptySupportError):
            geometry.estimate_envelope(np.empty((0, 4)))

    def test_log_volume_floors_zero_edges(self):
        env = geometry.Envelope(np.array([0.0, 1.0]), np.array([2.0, 1.0]))
        expected = np.log(2.0) + np.log(1e-12)
        assert np.isclose(env.log_volume(), expected)


class TestCentroids:
    def test_mean_of_three_points(self):
        feats = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 0.0]])
        cents = geometry.class_centroids(feats, np.zeros(3, dtype=int))
        assert np.array_equal(cents.class_ids, [0])
        assert np.allclose(cents.centers[0], [1.0, 0.0])

    def test_singleton_class(self):
        feats = np.array([[5.0, 5.0], [0.0, 0.0]])
        labels = np.array([1, 2])  # class 0 absent
        cents = geometry.class_centroids(feats, labels)
        assert np.array_equal(cents.class_ids, [1, 2])
        assert cents.class_ids.dtype == np.unique(labels).dtype
        assert np.allclose(cents.centers[0], [5.0, 5.0])

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(17)
        feats = rng.normal(size=(300, 4))
        labels = rng.integers(0, 5, size=300)
        cents = geometry.class_centroids(feats, labels)
        assert np.array_equal(cents.class_ids, np.unique(labels))
        assert cents.class_ids.dtype == np.unique(labels).dtype
        for c, center in zip(cents.class_ids, cents.centers):
            rows = [feats[i] for i in range(300) if labels[i] == c]
            oracle = sum(rows) / len(rows)
            assert np.allclose(center, oracle)


class TestSamplers:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        feats = np.vstack([rng.normal(0.0, 0.3, size=(40, 3)),
                           rng.normal(2.0, 0.3, size=(40, 3))])
        labels = np.repeat([0, 1], 40)
        env = geometry.estimate_envelope(feats)
        cents = geometry.class_centroids(feats, labels)
        return env, cents, feats, labels, rng

    def test_degenerate_box_collapses_to_point(self):
        p = np.array([1.5, -0.5])
        env = geometry.Envelope(p.copy(), p.copy())
        cents = geometry.CentroidSet(np.array([0]), p[None, :])
        cand = geometry.sample_candidates(env, cents, p[None, :], np.array([0]), 50,
                                          "uniform", np.random.default_rng(0))
        assert np.allclose(cand, p)

    def test_uniform_law_of_large_numbers(self):
        env = geometry.Envelope(np.zeros(2), np.ones(2))
        cents = geometry.CentroidSet(np.array([0]), np.full((1, 2), 0.5))
        cand = geometry.sample_candidates(env, cents, np.full((1, 2), 0.5), np.array([0]),
                                          100_000, "uniform", np.random.default_rng(3))
        assert np.allclose(cand.mean(axis=0), 0.5, atol=0.01)

    def test_perturbation_zero_noise_returns_support_points(self, monkeypatch):
        env, cents, feats, labels, rng = self._setup()
        monkeypatch.setattr(geometry, "PERTURBATION_SCALE", 0.0)
        cand = geometry.sample_candidates(env, cents, feats, labels, 200, "perturbation",
                                          np.random.default_rng(5))
        support_rows = {tuple(r) for r in feats}
        assert all(tuple(r) in support_rows for r in cand)

    @pytest.mark.parametrize("strategy", geometry.SAMPLERS)
    def test_all_clipped_into_envelope(self, strategy):
        env, cents, feats, labels, _ = self._setup()
        cand = geometry.sample_candidates(env, cents, feats, labels, 500, strategy,
                                          np.random.default_rng(9))
        assert len(cand) == 500
        assert ((cand >= env.low) & (cand <= env.high)).all()

    @pytest.mark.parametrize("strategy", geometry.SAMPLERS)
    def test_same_bytes_as_stacked_copy_oracle(self, strategy):
        # (classes, width, candidates): fewer candidates than classes leaves a
        # class without draws, and under three gives hybrid no thirds
        for seed in range(4):
            for k, d, n in ((2, 3, 500), (4, 8, 1001), (5, 2, 7), (3, 16, 2), (1, 4, 64)):
                rng = np.random.default_rng((seed, k, d))
                labels = np.repeat(np.arange(k), rng.integers(1, 40, size=k))
                feats = rng.normal(size=(len(labels), d)) + labels[:, None]
                env = geometry.estimate_envelope(feats)
                cents = geometry.class_centroids(feats, labels)
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = geometry.sample_candidates(env, cents, feats, labels, n, strategy, got_rng)
                want = geometry_oracle.sample_candidates(env, cents, feats, labels, n, strategy,
                                                         want_rng)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, k, d)
                assert got_rng.random() == want_rng.random()  # the same draws were taken

    @staticmethod
    def _peak_over_output(strategy):
        """The sampler's tracemalloc peak over its 10k x 8 output, output included."""
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(4), 250)
        feats = rng.normal(size=(1000, 8)) + labels[:, None]
        env, cents = geometry.estimate_envelope(feats), geometry.class_centroids(feats, labels)
        tracemalloc.start()
        try:
            cand = geometry.sample_candidates(env, cents, feats, labels, 10_000, strategy, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / cand.nbytes

    def test_gaussian_peak_memory_near_its_output(self):
        # stacked per-class draws and a clipped copy peaked at 3.2 times the output
        assert self._peak_over_output("gaussian") < 1.5

    def test_perturbation_peak_memory_near_its_output(self):
        # a drawn noise array and the gathered support rows peaked at 2.13 times the output
        assert self._peak_over_output("perturbation") < 1.5


class TestFilter:
    def test_accepts_point_beyond_radius(self):
        cents = geometry.CentroidSet(np.array([0, 1]),
                                     np.array([[0.0, 0.0], [3.0, 0.0]]))
        batch = geometry.filter_outliers(np.array([[1.0, 0.0]]), cents, 0.5)
        assert batch.n_accepted == 1

    def test_rejects_centroid_itself(self):
        cents = geometry.CentroidSet(np.array([0]), np.array([[0.7, -0.1]]))
        batch = geometry.filter_outliers(np.array([[0.7, -0.1]]), cents, 0.0)
        assert batch.n_accepted == 0  # strict inequality: d_min = 0 is rejected

    def test_disk_acceptance_rate_matches_area(self):
        # uniform candidates on the unit square, one centroid at the center:
        # acceptance probability is 1 - pi * tau^2
        rng = np.random.default_rng(11)
        cand = rng.uniform(0.0, 1.0, size=(100_000, 2))
        cents = geometry.CentroidSet(np.array([0]), np.array([[0.5, 0.5]]))
        batch = geometry.filter_outliers(cand, cents, 0.3)
        assert abs(batch.n_accepted / batch.n_candidates - (1.0 - np.pi * 0.09)) <= 0.01

    def test_rejection_soundness_brute_force(self):
        rng = np.random.default_rng(12)
        cents = geometry.CentroidSet(np.arange(3), rng.normal(size=(3, 4)))
        cand = rng.normal(size=(500, 4))
        tau = 1.2
        batch = geometry.filter_outliers(cand, cents, tau)
        for v in batch.features:
            d = min(np.linalg.norm(v - c) for c in cents.centers)
            assert d > tau
        # complement check: none of the rejected points pass
        kept = {tuple(r) for r in batch.features}
        for z in cand:
            d = min(np.linalg.norm(z - c) for c in cents.centers)
            assert (d > tau) == (tuple(z) in kept)

    def test_min_distances_match_broadcast_formula(self):
        # the (n, K, d) broadcast the kernel replaced, to rounding (its row
        # sums add in another order); d on both sides of numpy's 8-element
        # summation block
        rng = np.random.default_rng(14)
        for k in (1, 2, 4, 7):
            for d in (2, 5, 8, 9, 16, 33):
                cents = geometry.CentroidSet(np.arange(k), rng.normal(size=(k, d)))
                cand = rng.normal(size=(300, d)) * rng.uniform(0.1, 10.0)
                diffs = cand[:, None, :] - cents.centers[None, :, :]
                expected = np.sqrt((diffs ** 2).sum(axis=2)).min(axis=1)
                got = geometry.min_centroid_distances(cand, cents)
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0, err_msg=f"{k}, {d}")

    @staticmethod
    def _fixtures(rows):
        """(centroids, candidates) for k centroids in d dimensions, the
        distance tests' inputs at this row count."""
        rng = np.random.default_rng(rows)
        for k in (1, 2, 4, 7):
            for d in (2, 5, 8, 9, 16, 33):
                cents = geometry.CentroidSet(np.arange(k), rng.normal(size=(k, d)))
                yield cents, rng.normal(size=(rows, d)) * rng.uniform(0.1, 10.0)

    # the block edges of `nn.in_row_blocks` (one block up to 640 rows, two up to
    # 1280), then inputs of 2 to 16 blocks
    @pytest.mark.parametrize("rows", [1, 639, 640, 641, 1279, 1280, 1281, 2000, 4097, 10_000])
    def test_min_distances_match_per_centroid_oracle(self, rows):
        for cents, cand in self._fixtures(rows):
            expected = geometry_oracle.min_centroid_distances(cand, cents.centers)
            got = geometry.min_centroid_distances(cand, cents)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0,
                                       err_msg=f"{cents.centers.shape}")

    @pytest.mark.parametrize("rows", [639, 640, 641, 1279, 1280, 1281, 10_000])
    def test_blocked_distances_equal_one_pass_bit_for_bit(self, rows):
        # a row's einsum sum does not depend on the rows beside it, so the
        # blocks give one unblocked pass's bits; the filter's accept counts
        # are the oracle's at radii that no distance sits on
        for cents, cand in self._fixtures(rows):
            one_pass = np.sqrt(geometry._min_squared_distances(cand, cents.centers))
            got = geometry.min_centroid_distances(cand, cents)
            assert got.tobytes() == one_pass.tobytes(), cents.centers.shape
            oracle = geometry_oracle.min_centroid_distances(cand, cents.centers)
            for radius in (0.5, 2.0, 8.0):
                batch = geometry.filter_outliers(cand, cents, radius)
                assert batch.n_accepted == int((oracle > radius).sum()), (cents.centers.shape,
                                                                         radius)

    # radius 5 keeps about half of the candidates, 1e9 none
    @pytest.mark.parametrize("radius", [5.0, 1e9])
    def test_filter_peak_memory_is_the_accepted_rows(self, radius):
        rng = np.random.default_rng(0)
        cand = rng.normal(scale=2.0, size=(10_000, 8))
        cents = geometry.CentroidSet(np.arange(4), rng.normal(size=(4, 8)))
        tracemalloc.start()
        try:
            batch = geometry.filter_outliers(cand, cents, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a fresh (n, d) array per centroid alone is cand.nbytes
        assert peak < batch.features.nbytes + 0.4 * cand.nbytes, (peak, batch.n_accepted)

    def test_empty_acceptance_allowed(self):
        cents = geometry.CentroidSet(np.array([0]), np.zeros((1, 2)))
        batch = geometry.filter_outliers(np.zeros((5, 2)), cents, 1.0)
        assert batch.n_accepted == 0 and len(batch.features) == 0


class TestMeanCentroidDistance:
    def test_two_centroids(self):
        cents = geometry.CentroidSet(np.array([0, 1]), np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.isclose(geometry.mean_centroid_distance(cents), 5.0)

    def test_single_centroid_undefined(self):
        cents = geometry.CentroidSet(np.array([0]), np.zeros((1, 2)))
        assert geometry.mean_centroid_distance(cents) is None


def _energy_term(net, clean, outliers, temperature=1.0):
    """The energy term's value as the training step takes it: `nn.energy_bce_term`
    on the head's logits, clean features pushed low and outliers high."""
    return nn.energy_bce_term(nn.head_forward(net, np.vstack([clean, outliers])), len(clean),
                              temperature)[0]


class TestEnergyBce:
    def test_zero_energy_gives_two_log_two(self):
        # identity head on 1-D features with one zero logit
        layers = [
            nn.DenseLayer(np.eye(1), np.zeros(1), "identity"),
            nn.DenseLayer(np.eye(1), np.zeros(1), "identity"),
            nn.DenseLayer(np.eye(1), np.zeros(1), "identity"),
        ]
        net = nn.DenseNet(layers, 1, 2)
        # K = 1: energy(logit 0) = -log exp(0) = 0 for clean and outlier
        value = _energy_term(net, np.zeros((1, 1)), np.zeros((1, 1)))
        assert np.isclose(value, 2.0 * np.log(2.0))
        assert np.isclose(value, 1.386294, atol=1e-6)

    def test_perfect_separation_limit(self):
        # head bias drives energies to -40 on clean, +40 on outliers
        layers = [
            nn.DenseLayer(np.eye(1), np.zeros(1), "identity"),
            nn.DenseLayer(np.array([[-80.0]]), np.array([40.0]), "identity"),
            nn.DenseLayer(np.eye(1), np.zeros(1), "identity"),
        ]
        net = nn.DenseNet(layers, 1, 2)
        # clean feature 0 -> logit 40 -> E = -40; outlier 1 -> logit -40 -> E = +40
        value = _energy_term(net, np.zeros((1, 1)), np.ones((1, 1)))
        assert value < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        net = nn.build_network(3, 4, hidden=(5,), projection_dim=2, rng=rng)
        clean = rng.normal(size=(6, net.feature_dim))
        outliers = rng.normal(size=(4, net.feature_dim))
        _, bundle = loss_oracles.energy_bce_head_only(net, clean, outliers, 1.0)
        fd = finite_difference_grads(
            net, lambda: loss_oracles.energy_bce_head_only(net, clean, outliers, 1.0)[0])
        assert max_relative_error(bundle, fd) <= REL_TOL

    def test_empty_outlier_batch_keeps_clean_term_only(self):
        rng = np.random.default_rng(2)
        net = nn.build_network(2, 3, hidden=(4,), projection_dim=2, rng=rng)
        support = rng.normal(size=(5, net.input_dim))
        # the training step on support rows and no outliers: only the clean part counts
        _, terms, _ = nn.total_loss_and_grads(net, nn.TotalLossBatch(
            labeled_inputs=support[:2], labeled_targets=np.full((2, 3), 1 / 3),
            support_inputs=support, outlier_features=np.empty((0, net.feature_dim))))
        e = nn.energies(nn.predict_logits(net, support))
        oracle = float(np.minimum(np.logaddexp(0.0, e), nn.ENERGY_BCE_CAP).mean())
        assert np.isclose(terms["energy"], oracle)


def test_energy_separation_after_training_frozen_features():
    """Optimizing the energy BCE alone separates clean and outlier energies.

    Two fixed feature clusters with fixed between-cluster outliers; only
    the classifier head trains. Mean clean energy must sit more than two
    units below mean outlier energy.
    """
    rng = np.random.default_rng(77)
    clean = np.vstack([rng.normal(-2.0, 0.2, size=(40, 2)),
                       rng.normal(2.0, 0.2, size=(40, 2))])
    outliers = rng.normal(0.0, 0.2, size=(40, 2))
    net = nn.build_network(2, 2, hidden=(2,), projection_dim=2, rng=rng)
    state = None
    for _ in range(500):
        _, bundle = loss_oracles.energy_bce_head_only(net, clean, outliers, 1.0)
        state = nn.sgd_step(net, bundle, lr=0.5, momentum=0.9, state=state)
    e_clean = nn.energies(nn.head_forward(net, clean)).mean()
    e_out = nn.energies(nn.head_forward(net, outliers)).mean()
    assert e_clean + 2.0 < e_out
