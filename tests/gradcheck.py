"""Finite-difference gradient oracle shared by the test suite.

Central differences with steps 1e-4 and 5e-5 on float64, combined by
Richardson extrapolation: a central difference errs by O(h²), which on
strongly curved losses alone exceeds the 1e-4 tolerance, and the
extrapolation cancels that term. Random configurations are
resampled when a sampled point sits within the step of a ReLU kink, a
log/sigmoid clamp, or a near-zero projection norm: finite differences
are only a valid oracle where the loss is smooth.
"""

import numpy as np

import loss_oracles
from noisylab import nn

FD_STEP = 1e-4
REL_TOL = 1e-4
KINK_MARGIN = 1e-2


def param_arrays(net):
    for layer in net.layers:
        yield layer.weights
        yield layer.bias


def finite_difference_grads(net, value_fn, h=FD_STEP):
    """Gradient of value_fn() w.r.t. every net parameter: the central
    differences D(h) and D(h/2), extrapolated as (4 D(h/2) - D(h)) / 3."""
    grads = []
    for arr in param_arrays(net):
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            saved = flat[i]
            central = []
            for step in (h, h / 2):
                flat[i] = saved + step
                up = value_fn()
                flat[i] = saved - step
                down = value_fn()
                central.append((up - down) / (2.0 * step))
            flat[i] = saved
            gflat[i] = (4.0 * central[1] - central[0]) / 3.0
        grads.append(g)
    return grads


def max_relative_error(grad, fd_grads):
    """Worst relative error of the gradient vector grad against the
    finite-difference arrays, concatenated in parameter order."""
    fd = np.concatenate([f.ravel() for f in fd_grads])
    denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
    return float((np.abs(grad - fd) / denom).max())


def random_small_net(rng, with_projection=True):
    in_dim = int(rng.integers(2, 5))
    hidden = tuple(int(rng.integers(3, 6)) for _ in range(int(rng.integers(1, 3))))
    k = int(rng.integers(2, 5))
    proj = int(rng.integers(2, 4)) if with_projection else 2
    return nn.build_network(in_dim, k, hidden=hidden, projection_dim=proj, rng=rng)


def forward_with_projection(net, x, *, want_logits=True):
    """`nn.forward_batch`, then the projector on its features: the cache also
    holds the raw and unit projections and their norms."""
    cache = nn.forward_batch(net, x, want_logits=want_logits)
    nn._project(net, cache.features, cache)
    return cache


def _preacts_clear_of_kinks(net, xs):
    """True when every ReLU pre-activation sits away from zero for all inputs."""
    for x in xs:
        if x is None or len(x) == 0:
            continue
        cache = forward_with_projection(net, x)
        for i, layer in enumerate(net.layers):
            if layer.activation == "relu" and cache.preacts[i] is not None:
                if np.abs(cache.preacts[i]).min() < KINK_MARGIN:
                    return False
        if np.linalg.norm(cache.preacts[-1], axis=1).min() < 0.5:  # the raw projection
            return False
    return True


def _probs_well_conditioned(net, x, y=None, targets=None):
    probs = nn.softmax(nn.forward_batch(net, x).logits)
    if probs.min() < 1e-4:
        return False
    if y is not None and probs[np.arange(len(y)), y].min() < 1e-3:
        return False
    return True


def _energies_unsaturated(net, feats_or_inputs, temperature, through_extractor):
    if feats_or_inputs is None or len(feats_or_inputs) == 0:
        return True
    if through_extractor:
        logits = nn.forward_batch(net, feats_or_inputs).logits
    else:
        logits = nn.head_forward(net, feats_or_inputs)
    return np.abs(nn.energies(logits, temperature)).max() < 20.0


def logit_term_loss(net, x, term):
    """(value, gradient vector) of a probability-space term on the logits of x."""
    cache = nn.forward_batch(net, x)
    value, dlogits = term(nn.softmax(cache.logits))
    grad = np.zeros_like(net.params)
    nn.backprop_logits(net, cache, dlogits, grad)
    return value, grad


def projection_term_loss(net, views, term):
    """(value, gradient vector) of a term on the unit projections of views."""
    cache = forward_with_projection(net, views, want_logits=False)
    value, dproj = term(cache.projection)
    grad = np.zeros_like(net.params)
    dfeat = nn._backward_projection(net, cache, dproj, grad)  # the training step's path
    nn._backward_segment(net, cache, dfeat, 0, net.extractor_end, grad)
    return value, grad


def sample_config(kind, seed, q=0.7, temperature=1.0, contrast_temperature=0.5):
    """Draw a smooth random (net, inputs, loss_fn) configuration.

    loss_fn() returns (value, gradient vector); inputs holds the sampled
    arrays by name. Deterministically walks seeds until the sampled point
    clears all non-smooth regions, so the finite-difference oracle applies.
    """
    for attempt in range(200):
        rng = np.random.default_rng((seed, attempt))
        net = random_small_net(rng)
        n = int(rng.integers(2, 6))
        x = rng.normal(size=(n, net.input_dim))
        k = net.layers[net.classifier_end - 1].out_dim
        if kind == "gce":
            y = rng.integers(0, k, size=n)
            if not (_preacts_clear_of_kinks(net, [x]) and _probs_well_conditioned(net, x, y=y)):
                continue
            return net, {"x": x, "y": y}, lambda: nn.gce_loss_and_grads(net, x, y, q)
        if kind in ("ce", "mse"):
            targets = rng.dirichlet(np.ones(k), size=n)
            if not (_preacts_clear_of_kinks(net, [x]) and _probs_well_conditioned(net, x)):
                continue
            term = nn.soft_ce_term if kind == "ce" else nn.mse_term
            return net, {"x": x, "targets": targets}, \
                lambda: logit_term_loss(net, x, lambda p: term(p, targets))
        if kind == "prior_kl":
            if not (_preacts_clear_of_kinks(net, [x]) and _probs_well_conditioned(net, x)):
                continue
            return net, {"x": x}, lambda: logit_term_loss(net, x, nn.prior_kl_term)
        if kind == "contrastive":
            pairs = int(rng.integers(2, 5))
            views = rng.normal(size=(2 * pairs, net.input_dim))
            if not _preacts_clear_of_kinks(net, [views]):
                continue
            return net, {"views": views}, lambda: projection_term_loss(
                net, views, lambda z: nn.ntxent_term(z, contrast_temperature))
        if kind == "energy_bce":
            # the feature mode, on extractor features as the support set's are;
            # the `total` kind checks the term through the extractor
            clean = nn.predict_features(net, x)
            outliers = rng.normal(size=(int(rng.integers(1, 5)), net.feature_dim))
            if not (_energies_unsaturated(net, clean, temperature, False)
                    and _energies_unsaturated(net, outliers, temperature, False)):
                continue
            return net, {"clean_features": clean, "outlier_features": outliers}, \
                lambda: loss_oracles.energy_bce_head_only(net, clean, outliers, temperature)
        if kind == "total":
            n_u = int(rng.integers(1, 4))
            u = rng.normal(size=(n_u, net.input_dim))
            pairs = int(rng.integers(2, 4))
            views = rng.normal(size=(2 * pairs, net.input_dim))
            m = int(rng.integers(1, 4))
            outliers = rng.normal(size=(m, net.feature_dim))
            support = rng.normal(size=(int(rng.integers(1, 4)), net.input_dim))
            total = nn.TotalLossBatch(
                labeled_inputs=x,
                labeled_targets=rng.dirichlet(np.ones(k), size=n),
                unlabeled_inputs=u,
                unlabeled_targets=rng.dirichlet(np.ones(k), size=n_u),
                contrast_views=views,
                support_inputs=support,
                outlier_features=outliers,
                lambda_u=float(rng.uniform(0.5, 3.0)),
                lambda_reg=float(rng.uniform(0.2, 2.0)),
                lambda_cl=float(rng.uniform(0.2, 2.0)),
                lambda_energy=float(rng.uniform(0.05, 0.5)),
                temperature=temperature,
                contrast_temperature=contrast_temperature,
            )
            if not (_preacts_clear_of_kinks(net, [x, u, views, support])
                    and _probs_well_conditioned(net, x)
                    and _probs_well_conditioned(net, u)
                    and _energies_unsaturated(net, support, temperature, True)
                    and _energies_unsaturated(net, outliers, temperature, False)):
                continue

            def total_loss():
                value, _, grad = nn.total_loss_and_grads(net, total)
                return value, grad

            return net, {"total": total}, total_loss
        raise ValueError(f"unknown kind {kind!r}")
    raise RuntimeError(f"could not sample a smooth configuration for {kind!r}")


def run_suite(kind, n_configs=100, seed_base=0):
    """Check analytic vs finite-difference gradients; returns worst error."""
    worst = 0.0
    for s in range(n_configs):
        net, _, loss_fn = sample_config(kind, seed_base + s)
        grad = loss_fn()[1]
        fd = finite_difference_grads(net, lambda: loss_fn()[0])
        worst = max(worst, max_relative_error(grad, fd))
    return worst
