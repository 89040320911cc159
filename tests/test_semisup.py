"""Label refinement, sharpening, MixUp, augmentations, and the loss values of
the semi-supervised and contrastive terms against value-only oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from noisylab import nn, semisup
from noisylab.errors import ShapeError
from gradcheck import forward_with_projection
from loss_oracles import contrastive_loss, soft_ce_values, ssl_loss

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def entropy(p):
    p = np.where(p > 0, p, 1.0)
    return float(-(p * np.log(p)).sum())


@st.composite
def prob_rows(draw, n=None, k=None):
    """(n, k) rows of nonnegative floats that sum to 1, zeros and tiny entries included."""
    n = draw(st.integers(1, 8)) if n is None else n
    k = draw(st.integers(2, 8)) if k is None else k
    raw = draw(hnp.arrays(np.float64, (n, k), elements=st.floats(0.0, 1.0)))
    raw[:, draw(st.integers(0, k - 1))] += draw(st.floats(1e-3, 1.0))  # no all-zero row
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def prediction_lists(draw):
    """1-8 prediction arrays of one (n, k) shape, as the nets and views give them."""
    n, k = draw(st.integers(1, 32)), draw(st.integers(2, 8))
    return draw(st.lists(prob_rows(n, k), min_size=1, max_size=8))


def stacked_mean(predictions):
    """The averaging `semisup` used before it added the arrays in place."""
    return np.mean(predictions, axis=0)


class TestSharpen:
    def test_uniform_is_fixed_point(self):
        p = np.full((1, 5), 0.2)
        for t in (0.1, 0.5, 1.0):
            assert np.allclose(semisup.sharpen(p, t), p)

    def test_point_eight_point_two_at_half(self):
        out = semisup.sharpen(np.array([[0.8, 0.2]]), 0.5)[0]
        oracle = np.array([0.64, 0.04]) / 0.68
        assert np.allclose(out, oracle)
        assert np.allclose(out, [0.9412, 0.0588], atol=1e-4)

    @PROPERTY
    @given(prob_rows())
    def test_temperature_one_is_identity(self, p):
        # exact up to the renormalization of rows that sum to 1 within rounding
        assert np.allclose(semisup.sharpen(p, 1.0), p, rtol=1e-12, atol=0.0)

    @PROPERTY
    @given(prob_rows(), st.floats(0.1, 4.0))
    def test_rows_sum_to_one_and_argmax_kept(self, p, t):
        out = semisup.sharpen(p, t)
        assert np.all(out >= 0.0)
        assert np.allclose(out.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        rows = np.arange(len(p))
        assert np.all(out[rows, p.argmax(axis=1)] == out.max(axis=1))

    @PROPERTY
    @given(prob_rows(n=1), st.floats(0.1, 1.0))
    def test_entropy_never_increases_below_one(self, p, t):
        for temperature in (t, 0.25, 0.5, 0.9, 1.0):
            assert entropy(semisup.sharpen(p, temperature)[0]) <= entropy(p[0]) + 1e-12


class TestRefineLabels:
    def test_full_trust_keeps_onehot(self):
        preds = [np.array([[0.3, 0.7]]), np.array([[0.6, 0.4]])]
        out = semisup.refine_labels(np.array([0]), np.array([1.0]), preds, 2,
                                    temperature=1e-3)
        assert np.allclose(out, [[1.0, 0.0]])

    def test_zero_trust_gives_sharpened_mean_prediction(self):
        preds = [np.array([[0.3, 0.7]]), np.array([[0.5, 0.5]])]
        out = semisup.refine_labels(np.array([0]), np.array([0.0]), preds, 2,
                                    temperature=0.5)
        assert np.allclose(out, semisup.sharpen(np.array([[0.4, 0.6]]), 0.5))

    def test_agreement_fixed_point(self):
        preds = [np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]])]
        out = semisup.refine_labels(np.array([1]), np.array([0.5]), preds, 2,
                                    temperature=0.5)
        assert np.allclose(out, [[0.0, 1.0]])

    @PROPERTY
    @given(prediction_lists(), st.data(), st.floats(0.1, 2.0))
    def test_equals_mean_formula_bit_for_bit(self, preds, data, t):
        n, k = preds[0].shape
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        w = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
        w_col = w[:, None]
        blended = w_col * semisup.onehot(labels, k) + (1.0 - w_col) * stacked_mean(preds)
        assert np.array_equal(semisup.refine_labels(labels, w, preds, k, t),
                              semisup.sharpen(blended, t))

    def test_targets_stay_probability_vectors(self):
        rng = np.random.default_rng(5)
        preds = [rng.dirichlet(np.ones(4), size=16) for _ in range(4)]
        out = semisup.refine_labels(rng.integers(0, 4, 16), rng.random(16), preds, 4, 0.5)
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)


class TestGuessLabels:
    def test_uniform_prediction_stays_uniform(self):
        preds = [np.full((3, 4), 0.25)] * 4
        assert np.allclose(semisup.guess_labels(preds, 0.5), 0.25)

    @PROPERTY
    @given(prediction_lists(), st.floats(0.1, 2.0))
    def test_equals_mean_formula_bit_for_bit(self, preds, t):
        assert np.array_equal(semisup.guess_labels(preds, t),
                              semisup.sharpen(stacked_mean(preds), t))

    def test_identity_temperature_returns_average(self):
        preds = [np.array([[0.9, 0.1]]), np.array([[0.5, 0.5]])]
        assert np.allclose(semisup.guess_labels(preds, 1.0), [[0.7, 0.3]])


class TestMixup:
    def test_lambda_one_returns_batch_a(self):
        xa, ta = np.ones((3, 2)), np.eye(3)
        xb, tb = np.zeros((3, 2)), np.roll(np.eye(3), 1, axis=0)
        mx, mt = semisup.apply_mixup(xa, ta, xb, tb, 1.0)
        assert np.array_equal(mx, xa) and np.array_equal(mt, ta)

    def test_lambda_folded_above_half(self):
        class FixedBeta:
            def beta(self, a, b):
                return 0.3

        mx, mt, lam = semisup.mixup(np.ones((2, 2)), np.eye(2), np.zeros((2, 2)),
                                    np.eye(2)[::-1], alpha=4.0, rng=FixedBeta())
        assert lam == 0.7
        assert np.allclose(mx, 0.7)

    @PROPERTY
    @given(st.floats(0.05, 20.0), st.integers(0, 2 ** 32 - 1))
    def test_lambda_always_at_least_half(self, alpha, seed):
        _, _, lam = semisup.mixup(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
                                  np.zeros((1, 1)), alpha, np.random.default_rng(seed))
        assert 0.5 <= lam <= 1.0

    @PROPERTY
    @given(st.data(), st.floats(0.05, 20.0), st.integers(0, 2 ** 32 - 1))
    def test_outputs_are_convex_combinations(self, data, alpha, seed):
        n, d = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 5))
        finite = st.floats(-1e6, 1e6)
        xa = data.draw(hnp.arrays(np.float64, (n, d), elements=finite))
        xb = data.draw(hnp.arrays(np.float64, (n, d), elements=finite))
        ta = data.draw(prob_rows(n=n))
        tb = data.draw(prob_rows(n=n, k=ta.shape[1]))
        mx, mt, lam = semisup.mixup(xa, ta, xb, tb, alpha, np.random.default_rng(seed))
        assert 0.5 <= lam <= 1.0
        assert np.array_equal(mx, lam * xa + (1.0 - lam) * xb)
        assert np.array_equal(mt, lam * ta + (1.0 - lam) * tb)
        for mixed, a, b in ((mx, xa, xb), (mt, ta, tb)):
            slack = 4 * np.spacing(np.maximum(np.abs(a), np.abs(b)))
            assert np.all(mixed >= np.minimum(a, b) - slack)
            assert np.all(mixed <= np.maximum(a, b) + slack)

    @PROPERTY
    @given(st.data(), st.floats(0.5, 1.0))
    def test_target_mixing_preserves_probability_vectors(self, data, lam):
        ta = data.draw(prob_rows())
        tb = data.draw(prob_rows(n=len(ta), k=ta.shape[1]))
        _, mt = semisup.apply_mixup(np.zeros((len(ta), 2)), ta, np.zeros((len(ta), 2)), tb, lam)
        assert np.all(mt >= 0)
        assert np.allclose(mt.sum(axis=1), 1.0, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            semisup.apply_mixup(np.zeros((2, 2)), np.eye(2), np.zeros((3, 2)),
                                np.eye(3), 0.8)


def tiny_net(k=3, seed=14):
    return nn.build_network(3, k, hidden=(4,), projection_dim=3,
                            rng=np.random.default_rng(seed))


class TestSslLoss:
    def test_perfect_predictions_vanish(self):
        k = 4
        targets = np.eye(k)
        assert nn.soft_ce_term(targets, targets)[0] == 0.0
        assert nn.mse_term(targets, targets)[0] == 0.0
        # batch mean is exactly uniform
        assert abs(nn.prior_kl_term(np.vstack([targets, targets]))[0]) < 1e-12
        total, _, _, _ = ssl_loss(targets, targets, targets, targets,
                                  lambda_u=30.0, lambda_reg=1.0)
        assert abs(total) < 1e-12

    def test_uniform_mean_prediction_zeroes_regularizer(self):
        # all cyclic shifts of one random row average to the uniform vector
        rng = np.random.default_rng(6)
        row = rng.dirichlet(np.ones(3))
        probs = np.stack([np.roll(row, s) for s in range(3)])
        assert np.allclose(probs.mean(axis=0), 1.0 / 3.0)
        assert abs(nn.prior_kl_term(probs)[0]) < 1e-12

    def test_matches_per_term_summation_oracle(self):
        rng = np.random.default_rng(7)
        k = 5
        lp = rng.dirichlet(np.ones(k), size=9)
        lt = rng.dirichlet(np.ones(k), size=9)
        up = rng.dirichlet(np.ones(k), size=6)
        ut = rng.dirichlet(np.ones(k), size=6)
        lam_u, lam_r = 7.0, 0.8
        total, l_x, l_u, l_reg = ssl_loss(lp, lt, up, ut, lam_u, lam_r)
        ce = sum(-sum(lt[i, j] * np.log(lp[i, j]) for j in range(k)) for i in range(9)) / 9
        mse = sum(sum((up[i, j] - ut[i, j]) ** 2 for j in range(k)) for i in range(6)) / (6 * k)
        pbar = np.vstack([lp, up]).mean(axis=0)
        kl = sum((1 / k) * np.log((1 / k) / pbar[j]) for j in range(k))
        for oracle, term in ((l_x, nn.soft_ce_term(lp, lt)[0]), (l_u, nn.mse_term(up, ut)[0]),
                             (l_reg, nn.prior_kl_term(np.vstack([lp, up]))[0])):
            assert np.isclose(oracle, term)
        assert np.isclose(l_x, ce)
        assert np.isclose(l_u, mse)
        assert np.isclose(l_reg, kl)
        assert np.isclose(total, ce + lam_u * mse + lam_r * kl)

    def test_empty_unlabeled_part_omits_term(self):
        rng = np.random.default_rng(15)
        net = tiny_net()
        batch = nn.TotalLossBatch(labeled_inputs=rng.normal(size=(4, 3)),
                                  labeled_targets=rng.dirichlet(np.ones(3), size=4),
                                  unlabeled_inputs=np.empty((0, 3)), lambda_u=30.0)
        value, terms, _ = nn.total_loss_and_grads(net, batch)
        assert terms["unlabeled"] == 0.0
        assert value == terms["labeled"]

    def test_term_isolation_weights_zero(self):
        rng = np.random.default_rng(8)
        lp = rng.dirichlet(np.ones(3), size=4)
        lt = rng.dirichlet(np.ones(3), size=4)
        up = rng.dirichlet(np.ones(3), size=4)
        total, l_x, _, _ = ssl_loss(lp, lt, up, up, 0.0, 0.0)
        assert np.isclose(total, l_x)
        assert np.isclose(total, soft_ce_values(lp, lt).mean())
        assert np.isclose(total, nn.soft_ce_term(lp, lt)[0])

    def test_empty_labeled_rejected(self):
        batch = nn.TotalLossBatch(labeled_inputs=np.empty((0, 3)),
                                  labeled_targets=np.empty((0, 3)))
        with pytest.raises(ShapeError):
            nn.total_loss_and_grads(tiny_net(), batch)


def ntxent(z, temperature):
    return nn.ntxent_term(np.asarray(z, dtype=np.float64), temperature)[0]


class TestContrastive:
    def test_equal_similarities_closed_form(self):
        # orthonormal-ish: every pairwise similarity equal -> log(2 Nb - 1)
        for n_pairs in (2, 3, 5):
            m = 2 * n_pairs
            z = np.eye(m)  # all off-diagonal sims equal (zero)
            assert np.isclose(ntxent(z, temperature=0.5), np.log(m - 1))
        assert np.isclose(ntxent(np.eye(4), 0.5), np.log(3.0))
        assert np.isclose(np.log(3.0), 1.098612, atol=1e-6)

    def test_single_pair_is_zero(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert ntxent(z, 0.5) == 0.0

    def test_direct_summation_oracle(self):
        # positive pairs at similarity 1, all negatives at -1
        a = np.array([1.0, 0.0])
        b = np.array([-1.0, 0.0])
        z = np.vstack([a, a, b, b])
        delta = 0.5
        val = ntxent(z, delta)
        # every anchor: positive sim 1, two negatives sim -1
        oracle = -(1 / delta) + np.log(np.exp(1 / delta) + 2 * np.exp(-1 / delta))
        assert np.isclose(val, oracle)

    def test_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n_pairs = int(rng.integers(1, 6))
            raw = rng.normal(size=(2 * n_pairs, 3))
            z = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            assert ntxent(z, 0.5) >= 0.0

    def test_matches_gradient_path_value(self):
        rng = np.random.default_rng(10)
        net = nn.build_network(3, 2, hidden=(4,), projection_dim=3, rng=rng)
        views = rng.normal(size=(6, 3))
        cache = forward_with_projection(net, views, want_logits=False)
        value, _ = nn.ntxent_term(cache.projection, 0.5)
        assert np.isclose(value, contrastive_loss(cache.projection, 0.5))

    def test_odd_batch_rejected(self):
        with pytest.raises(ShapeError):
            ntxent(np.eye(3), 0.5)


class TestTotalLoss:
    def test_matches_nn_total_decomposition(self):
        # replay oracle: the nn-side composite equals the recomputed sum of
        # its logged per-term values
        rng = np.random.default_rng(11)
        net = nn.build_network(3, 4, hidden=(5,), projection_dim=3, rng=rng)
        batch = nn.TotalLossBatch(
            labeled_inputs=rng.normal(size=(6, 3)),
            labeled_targets=rng.dirichlet(np.ones(4), size=6),
            unlabeled_inputs=rng.normal(size=(4, 3)),
            unlabeled_targets=rng.dirichlet(np.ones(4), size=4),
            contrast_views=rng.normal(size=(8, 3)),
            support_inputs=rng.normal(size=(3, 3)),
            outlier_features=rng.normal(size=(3, net.feature_dim)),
            lambda_u=5.0, lambda_reg=0.7, lambda_cl=1.3, lambda_energy=0.2,
        )
        value, terms, _ = nn.total_loss_and_grads(net, batch)
        recomposed = (terms["labeled"] + 5.0 * terms["unlabeled"] + 0.7 * terms["prior"]
                      + 1.3 * terms["contrastive"] + 0.2 * terms["energy"])
        assert np.isclose(value, recomposed)
        # and the ssl pieces agree with the value-level oracle
        cache = nn.forward_batch(net, np.vstack([batch.labeled_inputs, batch.unlabeled_inputs]))
        probs = nn.softmax(cache.logits)
        _, l_x, l_u, l_reg = ssl_loss(probs[:6], batch.labeled_targets,
                                      probs[6:], batch.unlabeled_targets, 5.0, 0.7)
        assert np.isclose(terms["labeled"], l_x)
        assert np.isclose(terms["unlabeled"], l_u)
        assert np.isclose(terms["prior"], l_reg)
        c_cache = forward_with_projection(net, batch.contrast_views, want_logits=False)
        assert np.isclose(terms["contrastive"], contrastive_loss(c_cache.projection, 0.5))


class TestAugment:
    def test_weak_jitter_scale(self):
        rng = np.random.default_rng(12)
        x = np.zeros((4000, 3))
        std = np.array([1.0, 2.0, 4.0])
        out = semisup.weak_augment(x, std, rng, jitter=0.05)
        assert np.allclose(out.std(axis=0), 0.05 * std, rtol=0.1)

    def test_strong_augment_drops_dimensions(self):
        rng = np.random.default_rng(13)
        x = np.ones((2000, 4))
        out = semisup.strong_augment(x, np.full(4, 0.01), rng, dropout=0.1)
        zero_frac = (out == 0.0).mean()
        assert abs(zero_frac - 0.1) < 0.02
