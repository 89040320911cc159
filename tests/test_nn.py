"""Forward passes, pointwise losses, energy score, and the optimizer."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import loss_oracles
from gradcheck import forward_with_projection
from noisylab import harness, nn
from noisylab.errors import ShapeError

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def identity_net(dim=2):
    layers = [
        nn.DenseLayer(np.eye(dim), np.zeros(dim), "identity"),
        nn.DenseLayer(np.eye(dim), np.zeros(dim), "identity"),
        nn.DenseLayer(np.eye(dim), np.zeros(dim), "identity"),
    ]
    return nn.DenseNet(layers, extractor_end=1, classifier_end=2)


class TestForward:
    def test_identity_net_passes_input_through(self):
        net = identity_net()
        cache = nn.forward_batch(net, np.array([1.0, 2.0]), want_logits=False)
        assert np.allclose(cache.features[0], [1.0, 2.0])

    def test_single_relu_layer_clamps(self):
        layers = [
            nn.DenseLayer(np.eye(2), np.array([-3.0, 0.0]), "relu"),
            nn.DenseLayer(np.eye(2), np.zeros(2), "identity"),
            nn.DenseLayer(np.eye(2), np.zeros(2), "identity"),
        ]
        net = nn.DenseNet(layers, 1, 2)
        cache = nn.forward_batch(net, np.array([1.0, 2.0]), want_logits=False)
        assert np.allclose(cache.features[0], [0.0, 2.0])

    def test_seeded_net_matches_manual_matmul(self):
        rng = np.random.default_rng(7)
        net = nn.build_network(2, 3, hidden=(4,), projection_dim=2, rng=rng)
        x = np.array([0.3, -1.1])
        # straight-line oracle: explicit per-element affine + relu, then head
        h = np.zeros(4)
        l0 = net.layers[0]
        for i in range(4):
            acc = l0.bias[i]
            for j in range(2):
                acc += l0.weights[i, j] * x[j]
            h[i] = max(acc, 0.0)
        l1 = net.layers[1]
        logits = np.array([l1.bias[i] + sum(l1.weights[i, j] * h[j] for j in range(4))
                           for i in range(3)])
        cache = nn.forward_batch(net, x)
        assert np.allclose(cache.features[0], h, atol=1e-12)
        assert np.allclose(cache.logits[0], logits, atol=1e-12)

    def test_cacheless_logits_equal_forward_batch_logits(self):
        rng = np.random.default_rng(8)
        nets = [identity_net()]
        for _ in range(40):
            hidden = tuple(int(h) for h in rng.integers(1, 70, size=int(rng.integers(1, 4))))
            nets.append(nn.build_network(int(rng.integers(2, 10)), int(rng.integers(2, 6)),
                                         hidden=hidden, rng=rng))
        for net in nets:
            x = rng.normal(size=(int(rng.integers(1, 300)), net.input_dim))
            before = x.copy()
            cache = nn.forward_batch(net, x)
            assert np.array_equal(nn.predict_logits(net, x), cache.logits)
            assert np.array_equal(nn.predict_features(net, x), cache.features)
            assert np.array_equal(x, before)
        with pytest.raises(ShapeError):
            nn.predict_logits(identity_net(), np.zeros(3))

    def test_dimension_mismatch_raises(self):
        net = identity_net()
        with pytest.raises(ShapeError):
            nn.forward_batch(net, np.array([1.0, 2.0, 3.0]), want_logits=False)

    def test_inconsistent_layer_widths_rejected(self):
        layers = [
            nn.DenseLayer(np.zeros((3, 2)), np.zeros(3), "relu"),
            nn.DenseLayer(np.zeros((2, 4)), np.zeros(2), "identity"),
            nn.DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity"),
        ]
        with pytest.raises(ShapeError):
            nn.DenseNet(layers, 1, 2)


class TestInRowBlocks:
    @pytest.mark.parametrize("n", [1, 639, 640, 641, 1281, 20_000])
    def test_blocks_of_at_most_score_block_rows(self, n):
        calls = []

        def record(rows, doubled):
            calls.append(rows)
            assert np.array_equal(doubled, 2 * rows)  # the arrays are split alike
            return rows

        rows = np.arange(n)
        out = nn.in_row_blocks(record, rows, 2 * rows)
        sizes = [len(c) for c in calls]
        assert max(sizes) <= nn.SCORE_BLOCK_ROWS
        assert len(calls) == -(-n // nn.SCORE_BLOCK_ROWS)  # one call up to 640 rows
        assert max(sizes) - min(sizes) <= 1
        assert np.array_equal(np.concatenate(calls), rows)  # every row once, in order
        assert np.array_equal(out, rows)


class TestProjection:
    def test_three_four_five_triangle(self):
        layers = [
            nn.DenseLayer(np.eye(2), np.zeros(2), "identity"),
            nn.DenseLayer(np.eye(2), np.zeros(2), "identity"),
            nn.DenseLayer(np.eye(2), np.array([3.0, 4.0]), "identity"),
        ]
        net = nn.DenseNet(layers, 1, 2)
        cache = forward_with_projection(net, np.zeros(2), want_logits=False)
        assert np.allclose(cache.projection[0], [0.6, 0.8])

    def test_zero_norm_falls_back_to_first_basis_vector(self):
        z, degenerate, norms = nn.normalize_rows(np.zeros((1, 4)))
        assert degenerate[0] and norms[0] == 1.0
        assert np.allclose(z[0], [1.0, 0.0, 0.0, 0.0])

    def test_seeded_projection_matches_normalize_oracle(self):
        rng = np.random.default_rng(11)
        net = nn.build_network(3, 2, hidden=(5,), projection_dim=3, rng=rng)
        x = rng.normal(size=3)
        cache = forward_with_projection(net, x, want_logits=False)
        raw = net.layers[-1].weights @ cache.features[0] + net.layers[-1].bias
        assert np.allclose(cache.projection[0], raw / np.linalg.norm(raw))
        assert abs(np.linalg.norm(cache.projection[0]) - 1.0) < 1e-9


class TestSoftmax:
    def test_two_zeros(self):
        assert np.allclose(nn.softmax(np.zeros(2)), [0.5, 0.5])

    def test_constant_logits_give_uniform(self):
        for k in (2, 5, 13):
            assert np.allclose(nn.softmax(np.full(k, 3.7)), np.full(k, 1.0 / k))

    def test_large_logits_do_not_overflow(self):
        p = nn.softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(p).all()
        assert p[0] > 1.0 - 1e-12

    def test_normalization_up_to_1e4(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            logits = rng.uniform(-1e4, 1e4, size=rng.integers(2, 12))
            assert abs(nn.softmax(logits).sum() - 1.0) <= 1e-9


def gce(probs, y, q=0.7):
    return nn.gce_losses(np.atleast_2d(probs), np.array([y]), q)[0]


class TestGce:
    def test_perfect_prediction(self):
        assert gce(np.array([0.0, 1.0]), 1, q=0.7) == 0.0

    def test_worst_prediction_endpoint(self):
        assert np.isclose(gce(np.array([1.0, 0.0]), 1, q=0.7), 1.0 / 0.7)

    def test_half_prediction(self):
        expected = (1.0 - 0.5 ** 0.7) / 0.7
        assert np.isclose(gce(np.array([0.5, 0.5]), 0, q=0.7), expected)
        assert np.isclose(expected, 0.549183, atol=1e-6)

    def test_strictly_decreasing_in_p(self):
        for q in (0.1, 0.5, 0.7, 1.0):
            ps = np.linspace(1e-3, 1.0 - 1e-3, 500)
            vals = nn.gce_losses(np.stack([1.0 - ps, ps], axis=1), np.ones(500, dtype=int), q)
            assert np.all(vals[:-1] > vals[1:])

    def test_term_value_is_batch_mean(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(3), size=5)
        y = rng.integers(0, 3, size=5)
        value, dlogits = nn.gce_term(probs, y, 0.7)
        assert np.isclose(value, nn.gce_losses(probs, y, 0.7).mean())
        assert dlogits.shape == probs.shape
        assert np.allclose(dlogits.sum(axis=1), 0.0)  # softmax gradients sum to zero


class TestCrossEntropy:
    def test_perfect(self):
        assert nn.soft_cross_entropy(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0

    def test_uniform_ten_classes(self):
        probs = np.full(10, 0.1)
        assert np.isclose(nn.soft_cross_entropy(probs, np.eye(10)[3]), np.log(10.0))

    def test_soft_target_equal_to_prediction_gives_entropy(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(6))
        entropy = -(p * np.log(p)).sum()
        assert np.isclose(nn.soft_cross_entropy(p, p), entropy, atol=1e-10)


class TestEnergy:
    def test_uniform_logits(self):
        assert abs(nn.energies(np.zeros(10), 1.0) + np.log(10.0)) < 1e-12

    def test_shift_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            logits = rng.normal(scale=5.0, size=rng.integers(2, 9))
            c = rng.normal(scale=10.0)
            assert abs(nn.energies(logits + c) - (nn.energies(logits) - c)) <= 1e-9

    def test_no_overflow(self):
        assert np.isfinite(nn.energies(np.array([1000.0, 0.0]), 1.0))

    def test_direct_sum_oracle(self):
        val = nn.energies(np.array([1.0, 2.0, 3.0]), 1.0)
        oracle = -np.log(np.exp(1.0) + np.exp(2.0) + np.exp(3.0))
        assert np.isclose(val, oracle, atol=1e-12)
        assert np.isclose(val, -3.407606, atol=1e-6)

    def test_rows_scored_independently(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        assert np.allclose(nn.energies(logits), [nn.energies(logits[0]), -np.log(3.0)])

    @staticmethod
    def _bce_logits():
        rng = np.random.default_rng(11)
        logits = rng.normal(scale=4.0, size=(64, 8))
        logits[0] += 600.0
        logits[1] -= 600.0
        logits[2, 5] = 1e4
        logits[3, 2] = -1e4
        logits[4] = [30.0, -30.0] * 4
        return logits

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("temperature", [0.1, 0.5, 1.0, 2.5])
    def test_bce_term_matches_energies_and_softmax_bit_for_bit(self, sign, temperature):
        # one exp for the energy and its gradient gives the same bits as
        # energies() plus a separate softmax; the large rows reach the clamp.
        # sign +1 pushes every row down, -1 every row up
        logits = self._bce_logits()
        self._assert_bce_term_bits(logits, len(logits) if sign > 0 else 0, temperature)

    @pytest.mark.parametrize("temperature", [0.1, 0.5, 1.0, 2.5])
    def test_split_bce_term_matches_energies_and_softmax_bit_for_bit(self, temperature):
        # 23 rows pushed down, 41 up, both parts in one energy pass
        self._assert_bce_term_bits(self._bce_logits(), 23, temperature)

    @staticmethod
    def _assert_bce_term_bits(logits, n_down, temperature):
        value, dlogits = nn.energy_bce_term(logits, n_down, temperature)
        want_value, want_dlogits = loss_oracles.energy_bce_term(logits, n_down, temperature)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert dlogits.tobytes() == want_dlogits.tobytes()


class TestSigmoid:
    @PROPERTY
    @given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.one_of(
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 1e308, -1e308]),
        st.floats(-800.0, 800.0))))
    @example(np.array([np.nan, -np.nan, 0.0, -0.0]))
    def test_equal_to_masked_branches(self, x):
        # one exp(-|x|) for both branches keeps the bits of separate exps
        assert nn._sigmoid(x).tobytes() == loss_oracles.sigmoid(x).tobytes()


# entries that tie, signed zeros and -inf, among ordinary values
ROW_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, -np.inf, 1.0, -1.0]),
                        st.floats(-50.0, 50.0))


# `nn`'s kernels with the row maximum taken by `max`: its row sums are GEMVs
# with a ones vector, its NT-Xent similarities one GEMM


def _ones_sums(a):
    return a @ np.ones(a.shape[-1])


def softmax_by_max(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / _ones_sums(e)[..., None]


def energies_by_max(logits, temperature):
    """-T * logsumexp(logits / T) along the last axis, shifted by `max`."""
    shifted = logits / temperature
    m = shifted.max(axis=-1, keepdims=True)
    return -temperature * (m[..., 0] + np.log(_ones_sums(np.exp(shifted - m))))


def ntxent_by_max(z, temperature):
    m = len(z)
    sims = z @ (z.T / temperature)
    np.fill_diagonal(sims, -np.inf)
    pos = np.arange(m) ^ 1
    row_max = sims.max(axis=1, keepdims=True)
    e = np.exp(sims - row_max)
    denom = e.sum(axis=1)
    value = float(np.add.reduce(-sims[np.arange(m), pos] + (np.log(denom) + row_max[:, 0])) / m)
    s = (1.0 / (m * denom))[:, None]
    dz = (e @ z) * s + e.T @ (z * s) - (2.0 / m) * z[pos]
    return value, dz / temperature


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRowMax:
    """The argmax-gathered row maximum against `max(axis=-1, keepdims=True)`."""

    @PROPERTY
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                      elements=ROW_ENTRIES))
    @example(np.array([[0.0, -0.0], [-0.0, 0.0], [-np.inf, -0.0]]))
    def test_callers_keep_the_bits_of_max(self, logits):
        m = nn._row_max(logits)
        assert m.shape == logits.max(axis=-1, keepdims=True).shape
        assert np.array_equal(m, logits.max(axis=-1, keepdims=True))
        with np.errstate(invalid="ignore"):  # a row of only -inf gives nan on both sides
            assert same_bits(nn.softmax(logits), softmax_by_max(logits))
            for temperature in (1.0, 0.5):
                assert same_bits(nn.energies(logits, temperature),
                                 energies_by_max(logits, temperature))

    @PROPERTY
    @given(st.integers(1, 5).flatmap(lambda pairs: hnp.arrays(
        np.float64, st.tuples(st.just(2 * pairs), st.integers(1, 4)),
        elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]))))
    def test_ntxent_keeps_the_bits_of_max(self, z):
        # small exact entries: many tied similarities, zero rows and signed zeros
        value, dz = nn.ntxent_term(z, 0.5)
        want_value, want_dz = ntxent_by_max(z, 0.5)
        assert same_bits(value, want_value) and same_bits(dz, want_dz)

    def test_a_signed_zero_tie_gives_the_first_zero(self):
        m = nn._row_max(np.array([[0.0, -0.0], [-0.0, 0.0]]))
        assert np.signbit(m[:, 0]).tolist() == [False, True]


class TestBackwardTrivial:
    def test_zero_weight_net_uniform_targets_gives_zero_gradient(self):
        layers = [
            nn.DenseLayer(np.zeros((3, 2)), np.zeros(3), "relu"),
            nn.DenseLayer(np.zeros((4, 3)), np.zeros(4), "identity"),
            nn.DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity"),
        ]
        net = nn.DenseNet(layers, 1, 2)
        x = np.array([[1.0, -2.0], [-1.0, 2.0]])
        targets = np.full((2, 4), 0.25)
        cache = nn.forward_batch(net, x)
        _, dlogits = nn.soft_ce_term(nn.softmax(cache.logits), targets)
        grad = np.zeros_like(net.params)
        nn.backprop_logits(net, cache, dlogits, grad)
        assert np.allclose(grad, 0.0)

    def test_one_parameter_quadratic_surrogate(self):
        # single 1x1 identity layer, L = (w*x - t)^2 evaluated through the
        # backprop plumbing with dL/dlogit = 2 (logit - t)
        w, x, t = 1.7, 1.0, 0.4
        layers = [
            nn.DenseLayer(np.array([[1.0]]), np.zeros(1), "identity"),
            nn.DenseLayer(np.array([[w]]), np.zeros(1), "identity"),
            nn.DenseLayer(np.array([[1.0]]), np.zeros(1), "identity"),
        ]
        net = nn.DenseNet(layers, 1, 2)
        cache = nn.forward_batch(net, np.array([[x]]))
        dlogits = 2.0 * (cache.logits - t)
        grad = np.zeros_like(net.params)
        nn.backprop_logits(net, cache, dlogits, grad)
        d_weights, _ = loss_oracles.layer_views(net, grad)
        assert np.isclose(d_weights[1][0, 0], 2.0 * (w * x - t) * x)


class TestSgd:
    def test_plain_step(self):
        net = identity_net()
        g = np.zeros_like(net.params)
        d_weights, _ = loss_oracles.layer_views(net, g)
        d_weights[0][0, 0] = 2.0
        nn.sgd_step(net, g, lr=0.1)
        assert np.isclose(net.layers[0].weights[0, 0], 1.0 - 0.2)

    def test_zero_gradient_leaves_parameters(self):
        net = identity_net()
        before = [l.weights.copy() for l in net.layers]
        nn.sgd_step(net, np.zeros_like(net.params), lr=0.5)
        assert all(np.array_equal(a, l.weights) for a, l in zip(before, net.layers))

    def test_momentum_matches_hand_recurrence(self):
        net = identity_net(1)
        lr, mom = 0.1, 0.9
        g1, g2 = 1.0, -0.5
        w0 = net.layers[0].weights[0, 0]
        state = None
        for gval in (g1, g2):
            g = np.zeros_like(net.params)
            d_weights, _ = loss_oracles.layer_views(net, g)
            d_weights[0][0, 0] = gval
            state = nn.sgd_step(net, g, lr=lr, momentum=mom, state=state)
        v1 = g1
        w1 = w0 - lr * v1
        v2 = mom * v1 + g2
        w2 = w1 - lr * v2
        assert np.isclose(net.layers[0].weights[0, 0], w2)

    @pytest.mark.parametrize("seed", range(10))
    def test_vector_step_matches_per_layer_oracle(self, seed):
        rng = np.random.default_rng((seed, 17))
        net = random_net(rng)
        oracle_net = copy.deepcopy(net)
        state = oracle_state = None
        for _ in range(20):
            d_weights = [rng.normal(size=l.weights.shape) for l in net.layers]
            d_bias = [rng.normal(size=l.bias.shape) for l in net.layers]
            grads = np.concatenate([a.ravel() for pair in zip(d_weights, d_bias) for a in pair])
            state = nn.sgd_step(net, grads, 0.05, weight_decay=5e-4, momentum=0.9, state=state)
            oracle_state = loss_oracles.sgd_step(oracle_net, grads, 0.05, weight_decay=5e-4,
                                                 momentum=0.9, state=oracle_state)
        for got, want in zip(layer_arrays(net) + [state],
                             layer_arrays(oracle_net) + [oracle_state]):
            assert same_bits(got, want)


def random_net(rng):
    """A net of random widths, 1-wide layers included, with 1-2 layer extractor and heads."""
    widths = [int(w) for w in rng.integers(1, 5, size=int(rng.integers(2, 4)))]
    layers = [nn.DenseLayer(rng.normal(size=(b, a)), rng.normal(size=b), "relu")
              for a, b in zip(widths, widths[1:])]
    classifier_end = None
    for out in rng.integers(1, 4, size=2):
        if rng.random() < 0.5:
            h = int(rng.integers(1, 4))
            layers.append(nn.DenseLayer(rng.normal(size=(h, widths[-1])), rng.normal(size=h)))
            layers.append(nn.DenseLayer(rng.normal(size=(out, h)), rng.normal(size=out),
                                        "identity"))
        else:
            layers.append(nn.DenseLayer(rng.normal(size=(out, widths[-1])),
                                        rng.normal(size=out), "identity"))
        classifier_end = classifier_end or len(layers)
    return nn.DenseNet(layers, len(widths) - 1, classifier_end)


def layer_arrays(net):
    return [a for l in net.layers for a in (l.weights, l.bias)]


class TestParameterVector:
    def assert_views_of(self, arrays, flat):
        assert flat.dtype == np.float64 and flat.flags.c_contiguous
        assert flat.size == sum(a.size for a in arrays)
        assert all(np.shares_memory(a, flat) for a in arrays)
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), flat)

    def test_built_loaded_and_copied_nets_are_views_of_params(self, tmp_path):
        net = nn.build_network(3, 2, hidden=(5, 1), projection_dim=4,
                               rng=np.random.default_rng(0))
        harness.save_model(net, tmp_path / "net.npz")
        loaded = harness.load_model(tmp_path / "net.npz")
        for n in (net, loaded, copy.deepcopy(net)):
            self.assert_views_of(layer_arrays(n), n.params)
            assert np.array_equal(n.params, net.params)
        assert not np.shares_memory(copy.deepcopy(net).params, net.params)

    def test_construction_copies_and_leaves_the_given_layers(self):
        layers = [nn.DenseLayer(np.eye(2), np.zeros(2), "identity") for _ in range(3)]
        given_arrays = [a for l in layers for a in (l.weights, l.bias)]
        net = nn.DenseNet(layers, 1, 2)
        assert all(l is not g for l, g in zip(net.layers, layers))
        assert [a for l in layers for a in (l.weights, l.bias)] == given_arrays
        assert not any(np.shares_memory(a, net.params) for a in given_arrays)

    def test_a_gradient_is_a_fresh_vector_laid_out_as_params(self):
        rng = np.random.default_rng(1)
        net = nn.build_network(3, 2, hidden=(4, 1), projection_dim=2, rng=rng)
        x = rng.normal(size=(6, 3))
        batch = nn.TotalLossBatch(labeled_inputs=x, labeled_targets=np.full((6, 2), 0.5),
                                  unlabeled_inputs=x[:2], unlabeled_targets=np.full((2, 2), 0.5),
                                  contrast_views=rng.normal(size=(4, 3)), support_inputs=x[:3],
                                  outlier_features=rng.normal(size=(2, 1)), lambda_u=1.0,
                                  lambda_reg=1.0, lambda_cl=1.0, lambda_energy=0.1)
        y = np.array([0, 1, 0, 1, 1, 0])
        for loss_and_grad in (lambda: nn.gce_loss_and_grads(net, x, y)[1],
                              lambda: nn.total_loss_and_grads(net, batch)[2]):
            grad, again = loss_and_grad(), loss_and_grad()
            assert type(grad) is np.ndarray and grad.dtype == np.float64
            assert grad.flags.c_contiguous and grad.shape == net.params.shape
            assert grad.any() and np.array_equal(grad, again)
            assert not np.shares_memory(grad, net.params) and not np.shares_memory(grad, again)
