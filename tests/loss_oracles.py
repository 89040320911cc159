"""Loss oracles for the terms and the composition of the training step.

The value-only oracles, written independently of `noisylab.nn`,
recompute the semi-supervised and contrastive loss values from
already-computed predictions or projections, so tests can compare them
against the terms the training path uses. `total_loss_and_grads` below
is the composition of the step's gradients that `noisylab.nn` replaced,
kept as an oracle, and `energy_bce_term` the composition of the energy
term's value and gradient that it replaced. `sgd_step` is the per-layer
update that `nn.sgd_step` replaced with operations on whole parameter
vectors, and `sigmoid` the masked two-branch logistic that `nn._sigmoid`
replaced with one shared exp. Gradients and velocities are vectors laid
out as `net.params`; `layer_views` gives their per-layer arrays.
"""

import numpy as np

import gradcheck
from noisylab import nn
from noisylab.errors import ParameterError, ShapeError
from noisylab.nn import CE_EPS


def soft_ce_values(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    return -(targets * np.log(np.maximum(probs, CE_EPS))).sum(axis=1)


def ssl_loss(labeled_probs, labeled_targets, unlabeled_probs, unlabeled_targets,
             lambda_u: float, lambda_reg: float):
    """Semi-supervised objective from already-computed predictions.

    Labeled term: mean soft cross entropy. Unlabeled term: mean squared
    error between predictions and pseudo-targets (averaged over classes).
    Regularizer: KL from the uniform prior to the batch-mean prediction
    over all rows. Returns (total, l_x, l_u, l_reg).
    """
    labeled_probs = np.atleast_2d(labeled_probs)
    if len(labeled_probs) == 0:
        raise ParameterError("labeled part must be nonempty")
    k = labeled_probs.shape[1]
    l_x = float(soft_ce_values(labeled_probs, labeled_targets).mean())

    has_u = unlabeled_probs is not None and len(unlabeled_probs) > 0
    if has_u:
        l_u = float(((unlabeled_probs - unlabeled_targets) ** 2).sum(axis=1).mean() / k)
        all_probs = np.vstack([labeled_probs, unlabeled_probs])
    else:
        l_u = 0.0
        all_probs = labeled_probs

    prior = 1.0 / k
    pbar = all_probs.mean(axis=0)
    l_reg = float((prior * np.log(prior / pbar)).sum())

    total = l_x + lambda_u * l_u + lambda_reg * l_reg
    return total, l_x, l_u, l_reg


def contrastive_loss(projections: np.ndarray, temperature: float) -> float:
    """NT-Xent over unit-norm projections ordered as adjacent view pairs."""
    if temperature <= 0:
        raise ParameterError("contrastive temperature must be positive")
    z = np.atleast_2d(projections)
    m = len(z)
    if m % 2 != 0 or m < 2:
        raise ShapeError("projection batch must hold adjacent view pairs")
    sims = (z @ z.T) / temperature
    np.fill_diagonal(sims, -np.inf)
    row_max = sims.max(axis=1)
    log_denom = row_max + np.log(np.exp(sims - row_max[:, None]).sum(axis=1))
    pos = np.arange(m) ^ 1
    return float((-sims[np.arange(m), pos] + log_denom).mean())


# ---------------------------------------------------------------------------
# The training step's gradients as `noisylab.nn` used to compose them: each
# weighted term backpropagated into its own zero-filled gradient vector, then
# added into the step's vector scaled by its lambda; softmax and NT-Xent in
# their out-of-place form. `nn.total_loss_and_grads` adds each term's
# gradients straight into one vector and must agree with this to rounding.


def softmax(logits):
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def ntxent_term(z, temperature):
    m = len(z)
    sims = (z @ z.T) / temperature
    np.fill_diagonal(sims, -np.inf)
    row_max = sims.max(axis=1, keepdims=True)
    expd = np.exp(sims - row_max)
    denom = expd.sum(axis=1, keepdims=True)
    attn = expd / denom
    pos = np.arange(m) ^ 1
    log_denom = np.log(denom[:, 0]) + row_max[:, 0]
    value = float((-sims[np.arange(m), pos] + log_denom).mean())
    dsims = attn / m
    dsims[np.arange(m), pos] -= 1.0 / m
    dz = ((dsims + dsims.T) @ z) / temperature
    return value, dz


def layer_views(net, vector):
    """(weight views, bias views), one per layer, of a vector laid out as net.params."""
    return ([vector[w].reshape(shape) for w, shape, _ in net.layout],
            [vector[b] for _, _, b in net.layout])


def _backward_segment(net, cache, dout, start, end, grad):
    d_weights, d_bias = layer_views(net, grad)
    for i in reversed(range(start, end)):
        layer = net.layers[i]
        dpre = dout * (cache.preacts[i] > 0.0) if layer.activation == "relu" else dout
        d_weights[i] += dpre.T @ cache.inputs[i]
        d_bias[i] += dpre.sum(axis=0)
        dout = dpre @ layer.weights
    return dout


def backprop_logits(net, cache, dlogits, grad, into_extractor=True):
    dfeat = _backward_segment(net, cache, dlogits, net.extractor_end, net.classifier_end, grad)
    if into_extractor:
        _backward_segment(net, cache, dfeat, 0, net.extractor_end, grad)


def backprop_projection(net, cache, dproj, grad):
    u, z = cache.preacts[-1], cache.projection  # the projector's identity output, raw
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    norms = np.where(norms < 1e-30, 1.0, norms)
    draw = (dproj - (dproj * z).sum(axis=1, keepdims=True) * z) / norms
    if cache.degenerate_rows is not None and cache.degenerate_rows.any():
        draw = draw.copy()
        draw[cache.degenerate_rows] = 0.0
    dfeat = _backward_segment(net, cache, draw, net.classifier_end, len(net.layers), grad)
    _backward_segment(net, cache, dfeat, 0, net.extractor_end, grad)


def sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def energy_bce_term(logits, n_down, temperature):
    """(value, dlogits) of the clamped energy BCE, the first n_down rows pushed
    down and the rest up, from `nn.energies` and a separate
    `nn.softmax(logits / T)` for dE/dlogits; the value is the mean of each
    part, summed."""
    e = nn.energies(logits, temperature)
    down = np.arange(len(e)) < n_down
    sign = np.where(down, 1.0, -1.0)
    raw = np.logaddexp(0.0, sign * e)
    clipped = np.minimum(raw, nn.ENERGY_BCE_CAP)
    count = np.where(down, n_down, len(e) - n_down)
    d_e = sign * sigmoid(sign * e) * (raw < nn.ENERGY_BCE_CAP) / count
    value = sum(float(part.mean()) for part in (clipped[:n_down], clipped[n_down:]) if len(part))
    return value, d_e[:, None] * -nn.softmax(logits / temperature)


def _head_only_energy(net, features, n_down, temperature, grad):
    """Energy BCE on feature-space points (the first n_down pushed down, the
    rest up), its head gradients added into the vector grad."""
    cache = nn.ForwardCache([None] * len(net.layers), [None] * len(net.layers), np.empty(0))
    term, dlogits = nn.energy_bce_term(nn.head_forward(net, features, cache), n_down,
                                       temperature)
    backprop_logits(net, cache, dlogits, grad, into_extractor=False)
    return term


def energy_bce_loss_and_grads(net, clean_inputs, outlier_features, temperature):
    grad = np.zeros_like(net.params)
    value = 0.0
    if clean_inputs is not None:
        cache = nn.forward_batch(net, clean_inputs)
        term, dlogits = nn.energy_bce_term(cache.logits, len(cache.logits), temperature)
        value += term
        backprop_logits(net, cache, dlogits, grad)
    if outlier_features is not None:
        value += _head_only_energy(net, outlier_features, 0, temperature, grad)
    return value, grad


def energy_bce_head_only(net, clean_features, outlier_features, temperature):
    """(value, gradient vector) of the energy term on feature-space clean samples and outliers."""
    grad = np.zeros_like(net.params)
    value = _head_only_energy(net, np.vstack([clean_features, outlier_features]),
                              len(clean_features), temperature, grad)
    return value, grad


def _nonempty(a):
    return a if a is not None and len(a) else None


def total_loss_and_grads(net, batch):
    """(value, per-term dict, gradient vector) of the step, composed with scratch vectors."""
    terms = dict.fromkeys(nn.LOSS_TERMS, 0.0)
    grad = np.zeros_like(net.params)
    n_l = len(batch.labeled_inputs)
    unlabeled = _nonempty(batch.unlabeled_inputs)
    x_all = (batch.labeled_inputs if unlabeled is None
             else np.vstack([batch.labeled_inputs, unlabeled]))
    cache = nn.forward_batch(net, x_all)
    probs = softmax(cache.logits)

    dlogits = np.zeros_like(probs)
    terms["labeled"], dlogits[:n_l] = nn.soft_ce_term(probs[:n_l], batch.labeled_targets)
    if unlabeled is not None:
        terms["unlabeled"], d_u = nn.mse_term(probs[n_l:], batch.unlabeled_targets)
        if batch.lambda_u > 0.0:
            dlogits[n_l:] += batch.lambda_u * d_u
    terms["prior"], d_prior = nn.prior_kl_term(probs)
    if batch.lambda_reg > 0.0:
        dlogits += batch.lambda_reg * d_prior
    backprop_logits(net, cache, dlogits, grad)

    views = _nonempty(batch.contrast_views)
    if views is not None:
        c_cache = gradcheck.forward_with_projection(net, views, want_logits=False)
        terms["contrastive"], dproj = ntxent_term(c_cache.projection,
                                                  batch.contrast_temperature)
        if batch.lambda_cl > 0.0:
            scratch = np.zeros_like(net.params)
            backprop_projection(net, c_cache, dproj, scratch)
            grad += batch.lambda_cl * scratch

    support, outliers = _nonempty(batch.support_inputs), _nonempty(batch.outlier_features)
    if support is not None or outliers is not None:
        terms["energy"], e_grad = energy_bce_loss_and_grads(net, support, outliers,
                                                            batch.temperature)
        if batch.lambda_energy > 0.0:
            grad += batch.lambda_energy * e_grad

    value = (terms["labeled"] + batch.lambda_u * terms["unlabeled"]
             + batch.lambda_reg * terms["prior"] + batch.lambda_cl * terms["contrastive"]
             + batch.lambda_energy * terms["energy"])
    return value, terms, grad


def sgd_step(net, grads, lr, weight_decay=0.0, momentum=0.0, state=None):
    """In-place momentum SGD, layer by layer and array by array; returns the velocity vector."""
    if state is None:
        state = np.zeros_like(net.params)
    (d_weights, d_bias), (v_weights, v_bias) = layer_views(net, grads), layer_views(net, state)
    for layer, dw, db, vw, vb in zip(net.layers, d_weights, d_bias, v_weights, v_bias):
        gw = dw + weight_decay * layer.weights
        gb = db + weight_decay * layer.bias
        vw *= momentum
        vw += gw
        vb *= momentum
        vb += gb
        layer.weights -= lr * vw
        layer.bias -= lr * vb
    return state
