"""Analytic gradients vs the central finite-difference oracle.

Every loss must agree with finite differences to 1e-4 relative error
over 100 seeded random configurations.
"""

import numpy as np
import pytest

from noisylab import nn
from gradcheck import (REL_TOL, finite_difference_grads, logit_term_loss, max_relative_error,
                       run_suite, sample_config)

ALL_KINDS = ["ce", "gce", "mse", "prior_kl", "contrastive", "energy_bce", "total"]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradient_fidelity(kind):
    worst = run_suite(kind, n_configs=100, seed_base=1000)
    assert worst <= REL_TOL, f"{kind}: worst relative error {worst:.3e}"


def test_energy_bce_head_only_gradients():
    # clean samples given as fixed features: extractor gradients must be zero
    rng = np.random.default_rng(42)
    net = nn.build_network(3, 3, hidden=(4,), projection_dim=2, rng=rng)
    clean = rng.normal(size=(4, net.feature_dim))
    outliers = rng.normal(size=(3, net.feature_dim))
    _, bundle = nn.energy_bce_loss_and_grads(net, clean_features=clean,
                                             outlier_features=outliers)
    for i in range(net.extractor_end):
        assert np.allclose(bundle.d_weights[i], 0.0)
        assert np.allclose(bundle.d_bias[i], 0.0)
    fd = finite_difference_grads(
        net, lambda: nn.energy_bce_loss_and_grads(net, clean_features=clean,
                                                  outlier_features=outliers)[0])
    assert max_relative_error(bundle, fd) <= REL_TOL


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
