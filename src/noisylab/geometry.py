"""Feature-space geometry: envelope estimation, class centroids, virtual
outlier synthesis, and geometric filtering.

The envelope is the axis-aligned box spanned by per-dimension extrema of
the support features. Candidate outliers are drawn inside it by one of
four strategies and kept only if their minimum Euclidean distance to
every class centroid exceeds the rejection radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError, ParameterError
from .nn import SCORE_BLOCK_ROWS, in_row_blocks

SAMPLERS = ("uniform", "gaussian", "perturbation", "hybrid")

#: isotropic noise scale for the perturbation sampler, as a fraction of
#: the mean envelope edge length
PERTURBATION_SCALE = 0.1


@dataclass
class Envelope:
    low: np.ndarray  # (d,)
    high: np.ndarray  # (d,)

    def __post_init__(self):
        if (self.low > self.high).any():
            raise ParameterError("envelope low must not exceed high")

    @property
    def edge_lengths(self) -> np.ndarray:
        return self.high - self.low

    def log_volume(self, floor: float = 1e-12) -> float:
        """Sum of log edge lengths; zero-width edges are floored."""
        return float(np.log(np.maximum(self.edge_lengths, floor)).sum())


@dataclass
class CentroidSet:
    class_ids: np.ndarray  # (c,), ascending
    centers: np.ndarray  # (c, d), row i the centroid of class_ids[i]


@dataclass
class OutlierBatch:
    features: np.ndarray  # (m, d) accepted virtual outliers
    n_candidates: int
    n_accepted: int


def estimate_envelope(features: np.ndarray) -> Envelope:
    """Component-wise min/max box over the support features."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.size == 0:
        raise EmptySupportError("no support features; skip geometry this epoch")
    return Envelope(features.min(axis=0), features.max(axis=0))


def class_centroids(features: np.ndarray, labels: np.ndarray) -> CentroidSet:
    """Arithmetic mean feature vector per class present in the support."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels)
    if features.size == 0:
        raise EmptySupportError("no support features; skip geometry this epoch")
    class_ids = np.flatnonzero(np.bincount(labels))  # labels are class indices
    centers = np.stack([features[labels == c].mean(axis=0) for c in class_ids])
    return CentroidSet(class_ids, centers)


def _sample_uniform(envelope: Envelope, n: int, rng: np.random.Generator) -> np.ndarray:
    # the bytes of rng.uniform(low, high, size), low + (high - low) * u, with
    # no temporary beside the draw
    out = rng.random((n, len(envelope.low)))
    out *= envelope.high - envelope.low
    out += envelope.low
    return out


def _sample_gaussian(envelope, centroids, features, labels, out, rng) -> None:
    # per-class Gaussian with diagonal covariance, class counts proportional
    # to class sizes; drawn class by class into out and clipped into the envelope
    n = len(out)
    counts = np.array([(labels == c).sum() for c in centroids.class_ids], dtype=float)
    alloc = np.floor(n * counts / counts.sum()).astype(int)
    for i in range(n - alloc.sum()):  # distribute the remainder
        alloc[i % len(alloc)] += 1
    start = 0
    for c, m, n_c in zip(centroids.class_ids, centroids.centers, alloc):
        if n_c == 0:
            continue
        std = features[labels == c].std(axis=0)
        out[start:start + n_c] = rng.normal(m, np.maximum(std, 0.0), size=(n_c, len(m)))
        start += n_c
    np.clip(out, envelope.low, envelope.high, out=out)


def _sample_perturbation(envelope, features, out, rng) -> None:
    idx = rng.integers(0, len(features), size=len(out))
    rng.standard_normal(out=out)
    out *= PERTURBATION_SCALE * float(envelope.edge_lengths.mean())
    # f + z * s, added as z * s + f, one block of gathered rows at a time:
    # no (n, d) temporary beside out
    for start in range(0, len(out), SCORE_BLOCK_ROWS):
        rows = slice(start, start + SCORE_BLOCK_ROWS)
        out[rows] += features[idx[rows]]
    np.clip(out, envelope.low, envelope.high, out=out)


def sample_candidates(envelope: Envelope, centroids: CentroidSet, features: np.ndarray,
                      labels: np.ndarray, n_candidates: int, strategy: str,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw outlier candidates inside the envelope by the given strategy.

    Every strategy but uniform fills one preallocated array in place. The
    strategy is one of SAMPLERS and n_candidates >= 1 (`RunConfig` checks both).
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if strategy == "uniform":
        return _sample_uniform(envelope, n_candidates, rng)
    out = np.empty((n_candidates, features.shape[1]))
    if strategy == "gaussian":
        _sample_gaussian(envelope, centroids, features, labels, out, rng)
    elif strategy == "perturbation":
        _sample_perturbation(envelope, features, out, rng)
    else:  # hybrid: equal thirds, remainder to uniform
        third = n_candidates // 3
        n_uni = n_candidates - 2 * third
        out[:n_uni] = _sample_uniform(envelope, n_uni, rng)
        if third:
            _sample_gaussian(envelope, centroids, features, labels, out[n_uni:n_uni + third], rng)
            _sample_perturbation(envelope, features, out[n_uni + third:], rng)
    return out


def _min_squared_distances(block: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # one centroid at a time through one (rows, d) buffer; a row's sum of
    # squares is one einsum, whose sum does not depend on the row count
    diff = np.empty_like(block)
    sq = np.full(len(block), np.inf)
    for c in centers:
        np.subtract(block, c, out=diff)
        np.minimum(sq, np.einsum("ij,ij->i", diff, diff), out=sq)
    return sq


def min_centroid_distances(points: np.ndarray, centroids: CentroidSet) -> np.ndarray:
    """Each point's Euclidean distance to its nearest centroid.

    Runs in row blocks (`nn.in_row_blocks`): no (n, K, d) or (n, d)
    temporary. sqrt is monotone, so the root of the minimum is bit for bit
    the minimum of the roots.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    sq = in_row_blocks(lambda block: _min_squared_distances(block, centroids.centers), points)
    return np.sqrt(sq, out=sq)


def filter_outliers(candidates: np.ndarray, centroids: CentroidSet,
                    reject_radius: float) -> OutlierBatch:
    """Keep candidates strictly farther than the rejection radius from every centroid."""
    if len(centroids.centers) == 0:
        raise ParameterError("centroid set must be nonempty")
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    d_min = min_centroid_distances(candidates, centroids)
    keep = d_min > reject_radius
    accepted = candidates[keep]
    return OutlierBatch(accepted, n_candidates=len(candidates), n_accepted=len(accepted))


def mean_centroid_distance(centroids: CentroidSet) -> float | None:
    """Mean pairwise distance between centroids; None with fewer than two."""
    c = centroids.centers
    if len(c) < 2:
        return None
    diffs = c[:, None, :] - c[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(axis=2))
    iu = np.triu_indices(len(c), k=1)
    return float(dist[iu].mean())
