"""Formulas that `geometry` replaced, kept as oracles.

`min_centroid_distances` allocates a fresh (n, d) difference for each
centroid; the kernel runs in row blocks through one reused buffer, sums
each row with an einsum, and must give equal distances to rounding. `sample_candidates` stacks and clips
copies; the samplers fill one array in place and must draw the same bytes.
"""

import numpy as np

from noisylab.geometry import PERTURBATION_SCALE


def min_centroid_distances(points, centers):
    sq = np.full(len(points), np.inf)
    for c in centers:
        sq = np.minimum(sq, ((points - c) ** 2).sum(axis=1))
    return np.sqrt(sq)


def sample_candidates(envelope, centroids, features, labels, n_candidates, strategy, rng):
    """The samplers as they were before they filled one array in place: a
    stacked copy of per-class draws for `gaussian`, and `np.clip` copies.
    Every strategy must give the same bytes from the same generator state."""
    if strategy == "uniform":
        return _uniform(envelope, n_candidates, rng)
    if strategy == "gaussian":
        return _gaussian(envelope, centroids, features, labels, n_candidates, rng)
    if strategy == "perturbation":
        return _perturbation(envelope, features, n_candidates, rng)
    third = n_candidates // 3
    parts = [_uniform(envelope, n_candidates - 2 * third, rng)]
    if third:
        parts.append(_gaussian(envelope, centroids, features, labels, third, rng))
        parts.append(_perturbation(envelope, features, third, rng))
    return np.vstack(parts)


def _uniform(envelope, n, rng):
    return rng.uniform(envelope.low, envelope.high, size=(n, len(envelope.low)))


def _gaussian(envelope, centroids, features, labels, n, rng):
    counts = np.array([(labels == c).sum() for c in centroids.class_ids], dtype=float)
    alloc = np.floor(n * counts / counts.sum()).astype(int)
    for i in range(n - alloc.sum()):
        alloc[i % len(alloc)] += 1
    out = []
    for c, m, n_c in zip(centroids.class_ids, centroids.centers, alloc):
        if n_c == 0:
            continue
        std = features[labels == c].std(axis=0)
        out.append(rng.normal(m, np.maximum(std, 0.0), size=(n_c, len(m))))
    return np.clip(np.vstack(out), envelope.low, envelope.high)


def _perturbation(envelope, features, n, rng):
    idx = rng.integers(0, len(features), size=n)
    scale = PERTURBATION_SCALE * float(envelope.edge_lengths.mean())
    cand = features[idx] + rng.normal(0.0, 1.0, size=(n, features.shape[1])) * scale
    return np.clip(cand, envelope.low, envelope.high)
