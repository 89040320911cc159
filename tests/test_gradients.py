"""Analytic gradients vs the finite-difference oracle.

Every loss must agree with finite differences (central, extrapolated) to
1e-4 relative error over 100 seeded random configurations.
"""

import numpy as np
import pytest

import loss_oracles
from noisylab import nn
from gradcheck import (REL_TOL, finite_difference_grads, forward_with_projection,
                       logit_term_loss, max_relative_error, sample_config)

ALL_KINDS = ["ce", "gce", "mse", "prior_kl", "contrastive", "energy_bce", "total"]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradient_fidelity(kind, gradient_suite):
    worst, _ = gradient_suite(kind)
    assert worst <= REL_TOL, f"{kind}: worst relative error {worst:.3e}"


@pytest.mark.parametrize("seed", [735, 1314])
def test_curved_configs_pass_the_extrapolated_reference(seed):
    # a plain central difference at FD_STEP errs here by 1.54e-4 and 1.01e-4 relative
    net, _, loss_fn = sample_config("contrastive", seed)
    grad = loss_fn()[1]
    fd = finite_difference_grads(net, lambda: loss_fn()[0])
    assert max_relative_error(grad, fd) <= REL_TOL


def test_energy_bce_head_only_gradients():
    # clean samples given as fixed features: extractor gradients must be zero
    rng = np.random.default_rng(42)
    net = nn.build_network(3, 3, hidden=(4,), projection_dim=2, rng=rng)
    clean = rng.normal(size=(4, net.feature_dim))
    outliers = rng.normal(size=(3, net.feature_dim))
    _, grad = loss_oracles.energy_bce_head_only(net, clean, outliers, 1.0)
    d_weights, d_bias = loss_oracles.layer_views(net, grad)
    for i in range(net.extractor_end):
        assert np.allclose(d_weights[i], 0.0)
        assert np.allclose(d_bias[i], 0.0)
    fd = finite_difference_grads(
        net, lambda: loss_oracles.energy_bce_head_only(net, clean, outliers, 1.0)[0])
    assert max_relative_error(grad, fd) <= REL_TOL


def test_total_term_weights_zero_reduce_to_labeled_ce():
    net, inputs, _ = sample_config("total", seed=7)
    total = inputs["total"]
    total.lambda_u = 0.0
    total.lambda_reg = 0.0
    total.lambda_cl = 0.0
    total.lambda_energy = 0.0
    value, terms, _ = nn.total_loss_and_grads(net, total)
    ce_value, _ = logit_term_loss(
        net, total.labeled_inputs, lambda p: nn.soft_ce_term(p, total.labeled_targets))
    assert np.isclose(value, terms["labeled"])
    assert np.isclose(value, ce_value)


def _random_step(rng, case):
    """A random net and a training batch for one `total_loss_and_grads` case.

    Nets have 1-2 extractor layers and 1-2 layer heads; batches are drawn
    with every part present and every weight positive, then the case
    removes a part or zeroes a weight.
    """
    in_dim, k, proj = (int(rng.integers(2, 6)), int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    widths = [in_dim] + [int(rng.integers(3, 9)) for _ in range(int(rng.integers(1, 3)))]
    d = widths[-1]
    layers = [nn.DenseLayer(rng.normal(size=(b, a)), rng.normal(size=b), "relu")
              for a, b in zip(widths, widths[1:])]
    classifier_end = None
    for out in (k, proj):
        if rng.random() < 0.5:
            h = int(rng.integers(2, 6))
            layers.append(nn.DenseLayer(rng.normal(size=(h, d)), rng.normal(size=h), "relu"))
            layers.append(nn.DenseLayer(rng.normal(size=(out, h)), rng.normal(size=out),
                                        "identity"))
        else:
            layers.append(nn.DenseLayer(rng.normal(size=(out, d)), rng.normal(size=out),
                                        "identity"))
        classifier_end = classifier_end or len(layers)
    net = nn.DenseNet(layers, len(widths) - 1, classifier_end)
    n_l, n_u, pairs = (int(rng.integers(2, 20)), int(rng.integers(1, 20)),
                       int(rng.integers(1, 10)))
    batch = nn.TotalLossBatch(
        labeled_inputs=rng.normal(size=(n_l, in_dim)),
        labeled_targets=rng.dirichlet(np.ones(k), size=n_l),
        unlabeled_inputs=rng.normal(size=(n_u, in_dim)),
        unlabeled_targets=rng.dirichlet(np.ones(k), size=n_u),
        contrast_views=rng.normal(size=(2 * pairs, in_dim)),
        support_inputs=rng.normal(size=(int(rng.integers(1, 20)), in_dim)),
        outlier_features=rng.normal(size=(int(rng.integers(1, 20)), d)),
        lambda_u=float(rng.uniform(0.5, 50.0)), lambda_reg=float(rng.uniform(0.2, 2.0)),
        lambda_cl=float(rng.uniform(0.2, 2.0)), lambda_energy=float(rng.uniform(0.05, 0.5)),
        temperature=float(rng.uniform(0.5, 2.0)),
        contrast_temperature=float(rng.uniform(0.1, 1.0)))
    if case in ("lambda_u", "lambda_cl", "lambda_energy"):
        setattr(batch, case, 0.0)
    elif case == "no-unlabeled":
        batch.unlabeled_inputs = batch.unlabeled_targets = None
    elif case == "support-only":
        batch.outlier_features = None
    elif case == "outliers-only":
        batch.support_inputs = None
    elif case == "zero-norm-projection":
        # nonpositive extractor biases map a zero input to zero features,
        # which a bias-free projector maps to a zero-norm embedding
        for layer in net.layers[:net.extractor_end]:
            layer.bias[:] = -np.abs(layer.bias)
        for layer in net.layers[net.classifier_end:]:
            layer.bias[:] = 0.0
        batch.contrast_views[0] = 0.0
    return net, batch


STEP_CASES = ["all-weights", "lambda_u", "lambda_cl", "lambda_energy", "no-unlabeled",
              "support-only", "outliers-only", "zero-norm-projection"]


#: rounding-only bound of the one-pass step against the per-term oracle
STEP_RTOL = 1e-12


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= STEP_RTOL * max(abs(got), abs(want))


@pytest.mark.parametrize("case", STEP_CASES)
def test_step_gradients_match_scratch_bundle_oracle(case):
    # the one-pass step reorders the per-term oracle's sums and nothing else:
    # values and terms within 1e-12 relative, every gradient entry within
    # 1e-12 of the oracle gradient's largest entry
    for seed in range(25):
        net, batch = _random_step(np.random.default_rng((seed, STEP_CASES.index(case))), case)
        if case == "zero-norm-projection":
            assert forward_with_projection(net, batch.contrast_views,
                                           want_logits=False).degenerate_rows[0]
        value, terms, grad = nn.total_loss_and_grads(net, batch)
        o_value, o_terms, o_grad = loss_oracles.total_loss_and_grads(net, batch)
        assert _close(value, o_value), f"seed {seed}"
        assert terms.keys() == o_terms.keys()
        assert all(_close(terms[t], o_terms[t]) for t in terms), f"seed {seed}"
        scale = np.abs(o_grad).max()
        assert np.abs(grad - o_grad).max() <= STEP_RTOL * scale, f"seed {seed}"


def test_one_step_runs_the_extractor_once(monkeypatch):
    # one forward and one backprop from layer 0, into one gradient array,
    # however many parts the batch has
    net, batch = _random_step(np.random.default_rng(5), "all-weights")
    calls = {"forward": 0, "backward": 0, "gradients": 0}
    run_segment, backward_segment, zeros_like = (nn._run_segment, nn._backward_segment,
                                                 np.zeros_like)

    def counted_run(net, x, start, *args):
        calls["forward"] += start == 0
        return run_segment(net, x, start, *args)

    def counted_backward(net, cache, dout, start, *args):
        calls["backward"] += start == 0
        return backward_segment(net, cache, dout, start, *args)

    def counted_zeros_like(a, *args, **kwargs):
        calls["gradients"] += a is net.params
        return zeros_like(a, *args, **kwargs)

    monkeypatch.setattr(nn, "_run_segment", counted_run)
    monkeypatch.setattr(nn, "_backward_segment", counted_backward)
    monkeypatch.setattr(np, "zeros_like", counted_zeros_like)
    nn.total_loss_and_grads(net, batch)
    assert calls == {"forward": 1, "backward": 1, "gradients": 1}
