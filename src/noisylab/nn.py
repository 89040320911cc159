"""Dense feed-forward networks with hand-written analytic gradients.

A network is a flat list of dense layers with two split indices: layers
before ``extractor_end`` form the feature extractor, layers in
``[extractor_end, classifier_end)`` the classifier head (K logits), and
the remainder the projection head, whose output is L2-normalized.

Everything runs in float64. Each loss term is defined once, as a function
returning its value and its analytic gradient; the test suite checks every
term and the combined objective against central finite differences.

A training step is one pass: the extractor and each head run once, each
weighted term's upstream gradient is scaled by its lambda, and backprop
adds every parameter gradient into one float64 vector laid out as the
net's `params`. SGD velocities are vectors of that layout too.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError

log = logging.getLogger(__name__)

ACTIVATIONS = ("relu", "identity")

CE_EPS = 1e-12
#: names of the training objective's terms, as `total_loss_and_grads` reports them
LOSS_TERMS = ("labeled", "unlabeled", "prior", "contrastive", "energy")
#: largest value a clamped BCE-on-energy term can take: -log(CE_EPS)
ENERGY_BCE_CAP = -np.log(CE_EPS)


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "relu"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("layer expects 2-D weights and 1-D bias")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ShapeError(
                f"bias length {self.bias.shape[0]} != output width {self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class DenseNet:
    """Extractor + classifier head + projection head as one layer list.

    The net owns one C-contiguous float64 vector, `params`, holding every
    parameter layer by layer (weights, then bias), and each layer's
    `weights` and `bias` are reshaped views of it, so that `sgd_step`
    updates the whole net in a few vector operations. Gradients and SGD
    velocities are vectors of the same layout; `layout` holds each layer's
    (weight slice, weight shape, bias slice) of it. Construction copies
    the given layers' arrays into `params` and gives the net layer objects
    of its own; the given ones are left as they were. Assign into a layer's
    arrays in place (`layer.bias[:] = ...`): rebinding one detaches it from
    `params`, and SGD no longer updates it.
    """

    layers: list[DenseLayer]
    extractor_end: int
    classifier_end: int
    params: np.ndarray = field(init=False, repr=False, compare=False)
    layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (1 <= self.extractor_end <= self.classifier_end <= len(self.layers)):
            raise ShapeError("split indices must satisfy 1 <= extractor_end <= classifier_end <= n_layers")
        for prev, nxt in zip(self.layers, self.layers[1:self.extractor_end]):
            if prev.out_dim != nxt.in_dim:
                raise ShapeError(f"extractor widths disagree: {prev.out_dim} -> {nxt.in_dim}")
        d = self.feature_dim
        for head_start, head_end in ((self.extractor_end, self.classifier_end),
                                     (self.classifier_end, len(self.layers))):
            widths = [d] + [self.layers[i].out_dim for i in range(head_start, head_end)]
            for i in range(head_start, head_end):
                if self.layers[i].in_dim != widths[i - head_start]:
                    raise ShapeError("head widths disagree with extractor output")
        layout, start = [], 0
        for layer in self.layers:
            end = start + layer.weights.size
            layout.append((slice(start, end), layer.weights.shape, slice(end, end + layer.out_dim)))
            start = end + layer.out_dim
        self.layout = tuple(layout)
        self.params = np.concatenate([np.ravel(a) for l in self.layers
                                      for a in (l.weights, l.bias)], dtype=np.float64)
        self.layers = [DenseLayer(self.params[w].reshape(shape), self.params[b], l.activation)
                       for (w, shape, b), l in zip(self.layout, self.layers)]

    def __deepcopy__(self, memo):
        """A net packing a copy of params, its layers viewing it. A default deepcopy
        copies params and each layer view apart, so `sgd_step` on the copy would
        not move its layers."""
        return DenseNet(self.layers, self.extractor_end, self.classifier_end)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def feature_dim(self) -> int:
        return self.layers[self.extractor_end - 1].out_dim


def build_network(input_dim: int, n_classes: int, hidden=(64, 64), projection_dim: int = 32,
                  rng: np.random.Generator | None = None) -> DenseNet:
    """Fresh network with symmetric uniform fan-in initialization.

    Extractor: ReLU layers of the given hidden widths. Classifier and
    projector are single linear layers on the extractor output.
    """
    rng = rng or np.random.default_rng()
    layers = []
    widths = [input_dim] + list(hidden)
    for a, b in zip(widths, widths[1:]):
        layers.append(_init_layer(a, b, "relu", rng))
    d = widths[-1]
    layers.append(_init_layer(d, n_classes, "identity", rng))
    layers.append(_init_layer(d, projection_dim, "identity", rng))
    return DenseNet(layers, extractor_end=len(hidden), classifier_end=len(hidden) + 1)


def _init_layer(in_dim, out_dim, activation, rng):
    bound = 1.0 / np.sqrt(in_dim)
    w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    b = rng.uniform(-bound, bound, size=out_dim)
    return DenseLayer(w, b, activation)


# ---------------------------------------------------------------------------
# forward passes


@dataclass
class ForwardCache:
    """Per-layer inputs and pre-activations kept for backprop, which consumes them."""

    inputs: list[np.ndarray | None]
    preacts: list[np.ndarray | None]
    features: np.ndarray
    logits: np.ndarray | None = None
    projection: np.ndarray | None = None
    projection_norms: np.ndarray | None = None  # row norms of the raw projection, 1.0 where degenerate
    degenerate_rows: np.ndarray | None = None


def _empty_cache(net: DenseNet) -> ForwardCache:
    return ForwardCache(inputs=[None] * len(net.layers), preacts=[None] * len(net.layers),
                        features=np.empty(0))


def _run_segment(net: DenseNet, x: np.ndarray, start: int, end: int, cache: ForwardCache | None):
    """Layers [start, end) on x; with cache=None nothing is kept for backprop."""
    out = x
    for i in range(start, end):
        layer = net.layers[i]
        if out.shape[1] != layer.in_dim:
            raise ShapeError(f"layer {i} expects width {layer.in_dim}, got {out.shape[1]}")
        pre = out @ layer.weights.T
        pre += layer.bias
        if cache is not None:
            cache.inputs[i] = out
            cache.preacts[i] = pre
        if layer.activation != "relu":
            out = pre
        elif cache is None:
            out = np.maximum(pre, 0.0, out=pre)
        else:
            out = np.maximum(pre, 0.0)  # the cache keeps pre
    return out


def normalize_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L2-normalize rows; zero rows fall back to the first basis vector.

    Returns (unit rows, degenerate-row mask, the norms the rows were
    divided by, which are 1.0 in degenerate rows).
    """
    norms = np.sqrt(np.einsum("ij,ij->i", u, u))
    degenerate = norms < 1e-30
    safe = np.where(degenerate, 1.0, norms)
    z = u / safe[:, None]
    if degenerate.any():
        z = z.copy()
        z[degenerate] = 0.0
        z[degenerate, 0] = 1.0
        log.warning("projection: %d zero-norm embedding(s) replaced by e1", int(degenerate.sum()))
    return z, degenerate, safe


def _as_rows(x) -> np.ndarray:
    """x as a float64 array of rows; `np.atleast_2d` only for inputs that are not 2-D."""
    x = np.asarray(x, dtype=np.float64)
    return x if x.ndim == 2 else np.atleast_2d(x)


def forward_batch(net: DenseNet, x: np.ndarray, *, want_logits: bool = True) -> ForwardCache:
    x = _as_rows(x)
    cache = _empty_cache(net)
    cache.features = _run_segment(net, x, 0, net.extractor_end, cache)
    if want_logits:
        cache.logits = _run_segment(net, cache.features, net.extractor_end, net.classifier_end, cache)
    return cache


def _project(net: DenseNet, features: np.ndarray, cache: ForwardCache) -> None:
    """The projector on features, its unit outputs kept in cache (its raw ones
    are the last layer's pre-activations)."""
    raw = _run_segment(net, features, net.classifier_end, len(net.layers), cache)
    cache.projection, cache.degenerate_rows, cache.projection_norms = normalize_rows(raw)


def predict_logits(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Classifier logits of x, with no backprop cache: the forward of prediction-only callers.

    Equal, bit for bit, to `forward_batch(net, x).logits`.
    """
    return _run_segment(net, _as_rows(x), 0, net.classifier_end, None)


def predict_features(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Extractor features of x, with no backprop cache: the forward of feature-only callers.

    Equal, bit for bit, to `forward_batch(net, x, want_logits=False).features`.
    """
    return _run_segment(net, _as_rows(x), 0, net.extractor_end, None)


def head_forward(net: DenseNet, features: np.ndarray, cache: ForwardCache | None = None) -> np.ndarray:
    """Classifier logits from feature-space inputs (extractor bypassed)."""
    return _run_segment(net, _as_rows(features), net.extractor_end, net.classifier_end, cache)


#: the most rows of one block of a full-set pass (see `in_row_blocks`)
SCORE_BLOCK_ROWS = 640


def in_row_blocks(fn, *arrays: np.ndarray) -> np.ndarray:
    """fn(*arrays) for a row-wise fn, run on row blocks and concatenated.

    The arrays are split alike into ceil(n / SCORE_BLOCK_ROWS) near-equal
    blocks of at most SCORE_BLOCK_ROWS rows, so only one block's temporaries
    (a net's hidden layers) are held at a time. Up to SCORE_BLOCK_ROWS rows
    are one call of fn on the arrays themselves. A blocked pass agrees with
    one pass over all rows to rounding: BLAS may sum a row in another order
    when the row count changes.
    """
    n_blocks = -(-len(arrays[0]) // SCORE_BLOCK_ROWS)
    if n_blocks < 2:
        return fn(*arrays)
    return np.concatenate([fn(*block) for block in
                           zip(*(np.array_split(a, n_blocks) for a in arrays))])


# ---------------------------------------------------------------------------
# pointwise losses and the energy score


def _row_max(a: np.ndarray) -> np.ndarray:
    """`a.max(axis=-1, keepdims=True)`, gathered at each row's argmax.

    numpy reduces a short last axis one row at a time; one argmax and one
    gather over the rows are faster. The maximum is exact. Of a tie between
    0.0 and -0.0 this returns the first, where `max` may return -0.0. Every
    caller subtracts the maximum before an `exp`, or adds it to a log of at
    least 0, so their outputs keep their bits.
    """
    rows = a.reshape(-1, a.shape[-1])
    return rows[np.arange(len(rows)), rows.argmax(axis=1)].reshape(a.shape[:-1] + (1,))


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums along the last axis as one GEMV with a ones vector.

    numpy's `sum(axis=-1)` reduces short rows one row at a time; the GEMV
    adds in another order, so the sums agree with it to rounding.
    """
    return a @ np.ones(a.shape[-1])


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    e = logits - _row_max(logits)
    np.exp(e, out=e)
    e /= _row_sums(e)[..., None]
    return e


def gce_losses(probs: np.ndarray, y: np.ndarray, q: float = 0.7) -> np.ndarray:
    """Per-sample generalized cross entropy (1 - p_y^q) / q."""
    p = probs[np.arange(len(y)), y]
    return (1.0 - p ** q) / q


def soft_cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """-sum_k t_k log p_k averaged over rows (soft-target variant)."""
    probs = np.atleast_2d(probs)
    targets = np.atleast_2d(targets)
    rows = np.einsum("ij,ij->i", targets, np.log(np.maximum(probs, CE_EPS)))
    return float(-(np.add.reduce(rows) / len(rows)))


def _energy_parts(logits: np.ndarray, temperature: float):
    """(energies, exp(logits / T - row max), the row sums of those exponentials).

    The exponentials divided by their row sums are softmax(logits / T), bit
    for bit, so the energy and its gradient share one exp.
    """
    shifted = np.asarray(logits, dtype=np.float64) / temperature
    m = _row_max(shifted)
    shifted -= m
    np.exp(shifted, out=shifted)
    sums = _row_sums(shifted)
    return -temperature * (m[..., 0] + np.log(sums)), shifted, sums


def energies(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Energy -T * logsumexp(logits / T) along the last axis, with a max shift."""
    return _energy_parts(logits, temperature)[0]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere: one
    exp(-|x|) serves both, and no exp overflows. -|x| is taken as min(x, -x),
    which keeps the sign of a NaN, as the two exps did."""
    e = np.exp(np.minimum(x, -x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


# ---------------------------------------------------------------------------
# backprop


def _backward_segment(net: DenseNet, cache: ForwardCache, dout: np.ndarray,
                      start: int, end: int, grad: np.ndarray):
    """Backprop dout through layers [start, end), adding each layer's
    parameter gradients into its slices (`net.layout`) of the vector grad
    and consuming its cached arrays (a ReLU layer's gradient is written over
    its pre-activations).

    Returns the gradient w.r.t. the segment's input. The input gradient of
    layer 0 is never computed (no parameter sits below it), so a segment
    from layer 0 returns None.
    """
    for i in reversed(range(start, end)):
        layer = net.layers[i]
        if layer.activation == "relu":
            dout = np.multiply(dout, cache.preacts[i] > 0.0, out=cache.preacts[i])
        w, _, b = net.layout[i]
        grad[w] += (dout.T @ cache.inputs[i]).ravel()
        grad[b] += dout.sum(axis=0)
        cache.inputs[i] = cache.preacts[i] = None
        dout = dout @ layer.weights if i > 0 else None
    return dout


def backprop_logits(net: DenseNet, cache: ForwardCache, dlogits: np.ndarray,
                    grad: np.ndarray) -> None:
    """Add the parameter gradients of dlogits, through head and extractor, into the vector grad."""
    dfeat = _backward_segment(net, cache, dlogits, net.extractor_end, net.classifier_end, grad)
    _backward_segment(net, cache, dfeat, 0, net.extractor_end, grad)


def _backward_projection(net: DenseNet, cache: ForwardCache, dproj: np.ndarray,
                         grad: np.ndarray) -> np.ndarray:
    """Add dproj's projector gradients into the vector grad; returns the
    gradient w.r.t. the projector's input features."""
    # through z = u / |u|: du = (dz - (dz . z) z) / |u|; degenerate rows are constant
    z = cache.projection
    draw = (dproj - np.einsum("ij,ij->i", dproj, z)[:, None] * z) / cache.projection_norms[:, None]
    if cache.degenerate_rows is not None and cache.degenerate_rows.any():
        draw[cache.degenerate_rows] = 0.0
    return _backward_segment(net, cache, draw, net.classifier_end, len(net.layers), grad)


def _softmax_chain(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """dL/dlogits given dL/dprobs (per row, or one row for all), through the softmax Jacobian."""
    dots = probs @ dprobs if dprobs.ndim == 1 else np.einsum("ij,ij->i", dprobs, probs)
    return probs * (dprobs - dots[:, None])


# ---------------------------------------------------------------------------
# loss terms
#
# Each term returns (value, gradient). Terms on softmax probabilities
# return the gradient w.r.t. the logits those probabilities came from;
# NT-Xent returns it w.r.t. the unit projections, energy BCE w.r.t. the
# logits it is given. Means are taken as `np.add.reduce(x) / n`: the
# reduction and division that `ndarray.mean` runs, without its Python
# wrapper, so the bits are the same.


def gce_term(probs: np.ndarray, y: np.ndarray, q: float):
    """Mean generalized cross entropy over the batch."""
    n = len(y)
    value = float(np.add.reduce(gce_losses(probs, y, q)) / n)
    p_y = probs[np.arange(n), y]
    dlogits = probs * (p_y ** q)[:, None]
    dlogits[np.arange(n), y] -= p_y ** q
    dlogits /= n
    return value, dlogits


def soft_ce_term(probs: np.ndarray, targets: np.ndarray):
    """Mean soft-target cross entropy over the batch."""
    return soft_cross_entropy(probs, targets), (probs - targets) / len(targets)


def mse_term(probs: np.ndarray, targets: np.ndarray):
    """Mean squared error between probabilities and soft targets.

    Per-sample value averages over classes, the convention of the
    semi-supervised consistency term.
    """
    n, k = probs.shape
    diff = probs - targets
    value = float(np.add.reduce(np.einsum("ij,ij->i", diff, diff)) / n / k)
    dprobs = 2.0 * diff / (n * k)
    return value, _softmax_chain(probs, dprobs)


def prior_kl_term(probs: np.ndarray):
    """KL(uniform prior || batch-mean prediction)."""
    n, k = probs.shape
    pbar = np.add.reduce(probs, 0) / n
    prior = 1.0 / k
    value = float((prior * np.log(prior / pbar)).sum())
    return value, _softmax_chain(probs, -prior / (n * pbar))  # one (K,) row, broadcast


def ntxent_term(z: np.ndarray, temperature: float):
    """NT-Xent over unit projections ordered as adjacent view pairs.

    Each anchor's positive is its pair partner; the denominator runs over
    every other row. A single pair yields exactly zero.
    """
    m = len(z)
    if m % 2 != 0 or m < 2:
        raise ShapeError("contrastive batch must hold adjacent view pairs")
    sims = z @ (z.T / temperature)  # one GEMM
    sims.flat[::m + 1] = -np.inf  # the diagonal
    pos = np.arange(m) ^ 1  # partner index within each pair
    pos_sims = sims[np.arange(m), pos]
    row_max = _row_max(sims)
    sims -= row_max
    e = np.exp(sims, out=sims)  # in place: the similarities are not read again
    denom = e.sum(axis=1)
    log_denom = np.log(denom) + row_max[:, 0]
    value = float(np.add.reduce(-pos_sims + log_denom) / m)
    # dsims = A / m - P / m, A = s * e the row-stochastic attention (zero
    # diagonal), P the positives' indicator; dz = (dsims + dsims.T) @ z / T,
    # and P + P.T sends each row to its partner twice
    s = 1.0 / (m * denom)
    dz = e @ z
    dz *= s[:, None]
    dz += e.T @ (z * s[:, None])
    dz -= (2.0 / m) * z[pos]
    dz /= temperature
    return value, dz


def energy_bce_term(logits: np.ndarray, n_down: int, temperature: float):
    """Mean BCE on energies, clamped at -log(1e-12) per sample: the mean over
    the first n_down rows plus the mean over the rest, from one energy pass.

    The first n_down rows are pushed down: -log(1 - sigmoid(E)) = softplus(E);
    the rest up: -log(sigmoid(E)) = softplus(-E). An empty part adds nothing.
    """
    e, exps, sums = _energy_parts(logits, temperature)
    sizes = [n_down, len(e) - n_down]
    sign = np.repeat([1.0, -1.0], sizes)
    raw = np.logaddexp(0.0, sign * e)  # softplus
    clipped = np.minimum(raw, ENERGY_BCE_CAP)
    d_e = sign * _sigmoid(sign * e) * (raw < ENERGY_BCE_CAP) / np.repeat(sizes, sizes)
    value = sum(float(np.add.reduce(part) / len(part))
                for part in (clipped[:n_down], clipped[n_down:]) if len(part))
    # dE/dlogits = -softmax(logits / T), row-wise
    exps /= sums[:, None]
    return value, d_e[:, None] * -exps


# ---------------------------------------------------------------------------
# loss + gradient entry points


def gce_loss_and_grads(net: DenseNet, x: np.ndarray, y: np.ndarray, q: float = 0.7):
    """Mean GCE loss over the batch and its gradient, a vector laid out as net.params."""
    cache = forward_batch(net, x)
    value, dlogits = gce_term(softmax(cache.logits), y, q)
    grad = np.zeros_like(net.params)
    backprop_logits(net, cache, dlogits, grad)
    return value, grad


@dataclass
class TotalLossBatch:
    """One optimization step's ingredients for the combined objective."""

    labeled_inputs: np.ndarray
    labeled_targets: np.ndarray
    unlabeled_inputs: np.ndarray | None = None
    unlabeled_targets: np.ndarray | None = None
    contrast_views: np.ndarray | None = None
    support_inputs: np.ndarray | None = None
    outlier_features: np.ndarray | None = None
    lambda_u: float = 0.0
    lambda_reg: float = 0.0
    lambda_cl: float = 0.0
    lambda_energy: float = 0.0
    temperature: float = 1.0
    contrast_temperature: float = 0.5


def _nonempty(a: np.ndarray | None) -> np.ndarray | None:
    return a if a is not None and len(a) else None


def total_loss_and_grads(net: DenseNet, batch: TotalLossBatch):
    """Full training objective in one pass; returns (value, per-term dict, gradient),
    the gradient a vector laid out as net.params.

    The extractor runs on the labeled, unlabeled, support and contrast rows
    stacked, the classifier head on the main and support features with the
    outliers appended, the projector on the contrast features. Each term's
    upstream gradient is scaled by its lambda, only when lambda > 0 (0 * inf
    is nan), before one backprop into one vector. Every term's value is
    reported.
    """
    terms = dict.fromkeys(LOSS_TERMS, 0.0)
    n_l = len(batch.labeled_inputs)
    if n_l == 0:
        raise ShapeError("labeled part of the batch must be nonempty")
    unlabeled, support = _nonempty(batch.unlabeled_inputs), _nonempty(batch.support_inputs)
    views, outliers = _nonempty(batch.contrast_views), _nonempty(batch.outlier_features)
    n_main = n_l + (len(unlabeled) if unlabeled is not None else 0)
    n_head = n_main + (len(support) if support is not None else 0)
    rows = [a for a in (batch.labeled_inputs, unlabeled, support, views) if a is not None]
    cache = forward_batch(net, np.vstack(rows), want_logits=False)
    head_in = cache.features[:n_head]
    logits = head_forward(net, head_in if outliers is None else np.vstack([head_in, outliers]),
                          cache)
    probs = softmax(logits[:n_main])

    dlogits = np.zeros_like(logits)
    terms["labeled"], dlogits[:n_l] = soft_ce_term(probs[:n_l], batch.labeled_targets)
    if unlabeled is not None:
        terms["unlabeled"], d_u = mse_term(probs[n_l:], batch.unlabeled_targets)
        if batch.lambda_u > 0.0:
            dlogits[n_l:n_main] += batch.lambda_u * d_u
    terms["prior"], d_prior = prior_kl_term(probs)
    if batch.lambda_reg > 0.0:
        dlogits[:n_main] += batch.lambda_reg * d_prior
    if len(logits) > n_main:  # support rows low, outliers high
        terms["energy"], d_e = energy_bce_term(logits[n_main:], n_head - n_main,
                                               batch.temperature)
        if batch.lambda_energy > 0.0:
            dlogits[n_main:] = batch.lambda_energy * d_e

    grad = np.zeros_like(net.params)
    dfeat = _backward_segment(net, cache, dlogits, net.extractor_end, net.classifier_end,
                              grad)[:n_head]
    if views is not None:
        _project(net, cache.features[n_head:], cache)
        terms["contrastive"], dproj = ntxent_term(cache.projection, batch.contrast_temperature)
        d_views = (_backward_projection(net, cache, batch.lambda_cl * dproj, grad)
                   if batch.lambda_cl > 0.0 else np.zeros((len(views), net.feature_dim)))
        dfeat = np.vstack([dfeat, d_views])
    _backward_segment(net, cache, dfeat, 0, net.extractor_end, grad)

    value = (terms["labeled"] + batch.lambda_u * terms["unlabeled"]
             + batch.lambda_reg * terms["prior"] + batch.lambda_cl * terms["contrastive"]
             + batch.lambda_energy * terms["energy"])
    return value, terms, grad


# ---------------------------------------------------------------------------
# optimizer


def sgd_step(net: DenseNet, grad: np.ndarray, lr: float, weight_decay: float = 0.0,
             momentum: float = 0.0, state: np.ndarray | None = None) -> np.ndarray:
    """In-place momentum SGD update of net.params by the vector grad; returns
    the (possibly fresh) velocity vector, updated in place when given."""
    if state is None:
        state = np.zeros_like(net.params)
    # each parameter sees the operations of a per-layer update, in its order
    g = grad + weight_decay * net.params
    state *= momentum
    state += g
    net.params -= lr * state
    return state
