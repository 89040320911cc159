"""Synthetic datasets, label-noise injection, OOD set generation, CSV I/O.

True labels are carried by `LabeledDataset` but the training path only
ever sees a `TrainView`, which has no true-label field: evaluation code
receives the full dataset, training code receives the view.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError

GENERATORS = ("gaussian-blobs", "two-moons-kd", "ring-classes")
NOISE_MODES = ("symmetric", "asymmetric")


@dataclass(frozen=True)
class SyntheticSpec:
    generator: str = "gaussian-blobs"
    n_samples: int = 2000
    n_classes: int = 4
    input_dim: int = 8
    separation: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r}")
        if self.n_classes < 2:
            raise ConfigError("need at least two classes")
        if self.n_samples < self.n_classes:
            raise ConfigError("need at least one sample per class")
        if self.generator == "two-moons-kd" and self.n_classes != 2:
            raise ConfigError("two-moons-kd is a two-class generator")
        if self.generator == "gaussian-blobs" and self.n_classes > 2 * self.input_dim:
            raise ConfigError("gaussian-blobs supports at most 2 * input_dim classes")
        if self.input_dim < 2:
            raise ConfigError("input_dim must be >= 2")
        if self.separation <= 0:
            raise ConfigError("separation must be positive")


@dataclass(frozen=True)
class NoiseSpec:
    mode: str = "symmetric"
    rate: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ConfigError(f"unknown noise mode {self.mode!r}")
        if not (0.0 <= self.rate < 1.0):
            raise ConfigError("noise rate must lie in [0, 1)")


@dataclass
class TrainView:
    """What the training path is allowed to see: no true labels."""

    ids: np.ndarray
    features: np.ndarray
    noisy_labels: np.ndarray


@dataclass
class LabeledDataset:
    ids: np.ndarray
    features: np.ndarray  # (n, d)
    true_labels: np.ndarray
    noisy_labels: np.ndarray

    @property
    def n_classes(self) -> int:
        return int(self.true_labels.max()) + 1

    @property
    def clean_mask(self) -> np.ndarray:
        return self.noisy_labels == self.true_labels

    def train_view(self) -> TrainView:
        return TrainView(self.ids.copy(), self.features.copy(), self.noisy_labels.copy())


def _balanced_counts(n: int, k: int) -> np.ndarray:
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    return counts


def _blob_centers(k: int, dim: int, separation: float) -> np.ndarray:
    # axis-aligned prototypes: class c at +/-R along axis (c mod dim), with R
    # chosen so the minimum pairwise center distance equals `separation`.
    # Deterministic placement keeps the constellation comparable across seeds
    # and leaves the beyond-range diagonal in the shared inter-class void.
    R = separation / np.sqrt(2.0)
    centers = np.zeros((k, dim))
    for c in range(k):
        centers[c, c % dim] = R if c < dim else -R
    return centers


def generate(spec: SyntheticSpec) -> LabeledDataset:
    """Deterministic clean dataset for the given spec."""
    rng = np.random.default_rng(spec.seed)
    counts = _balanced_counts(spec.n_samples, spec.n_classes)
    labels = np.repeat(np.arange(spec.n_classes), counts)

    if spec.generator == "gaussian-blobs":
        centers = _blob_centers(spec.n_classes, spec.input_dim, spec.separation)
        features = centers[labels] + rng.normal(size=(spec.n_samples, spec.input_dim))
    elif spec.generator == "two-moons-kd":
        # interleaved half circles in the first two dimensions, the rest noise
        scale = spec.separation / 2.0
        theta = rng.uniform(0.0, np.pi, size=spec.n_samples)
        x = np.where(labels == 0, np.cos(theta), 1.0 - np.cos(theta)) * scale
        y = np.where(labels == 0, np.sin(theta), 0.5 - np.sin(theta)) * scale
        features = rng.normal(scale=0.1 * scale, size=(spec.n_samples, spec.input_dim))
        features[:, 0] += x
        features[:, 1] += y
    else:  # ring-classes: concentric circles in the first two dimensions
        radii = (1.0 + np.arange(spec.n_classes)) * spec.separation / 2.0
        theta = rng.uniform(0.0, 2.0 * np.pi, size=spec.n_samples)
        r = radii[labels]
        features = rng.normal(scale=0.1 * spec.separation, size=(spec.n_samples, spec.input_dim))
        features[:, 0] += r * np.cos(theta)
        features[:, 1] += r * np.sin(theta)

    order = rng.permutation(spec.n_samples)
    return LabeledDataset(np.arange(spec.n_samples), features[order], labels[order],
                          labels[order].copy())


def generate_test_split(train_spec: SyntheticSpec, n_samples: int, seed: int) -> LabeledDataset:
    """Fresh samples from the same class geometry as the training spec.

    Gaussian blobs reuse the training centers (the task is defined by
    them); the parametric generators just draw with the new seed.
    """
    if train_spec.generator != "gaussian-blobs":
        return generate(SyntheticSpec(train_spec.generator, n_samples, train_spec.n_classes,
                                      train_spec.input_dim, train_spec.separation, seed))
    centers = _blob_centers(train_spec.n_classes, train_spec.input_dim,
                            train_spec.separation)
    rng = np.random.default_rng(seed)
    counts = _balanced_counts(n_samples, train_spec.n_classes)
    labels = np.repeat(np.arange(train_spec.n_classes), counts)
    feats = centers[labels] + rng.normal(size=(n_samples, train_spec.input_dim))
    order = rng.permutation(n_samples)
    return LabeledDataset(np.arange(n_samples), feats[order], labels[order],
                          labels[order].copy())


def inject_noise(dataset: LabeledDataset, noise: NoiseSpec) -> LabeledDataset:
    """Flip labels; true labels stay on the dataset for evaluation only.

    Symmetric: with probability `rate` each label moves to a uniformly
    random different class. Asymmetric: with probability `rate` to the
    circular next class.
    """
    k = dataset.n_classes
    rng = np.random.default_rng(noise.seed)
    n = len(dataset.true_labels)
    flip = rng.random(n) < noise.rate
    noisy = dataset.true_labels.copy()
    if noise.mode == "symmetric":
        # uniform over the other k-1 classes, never the true label
        offsets = rng.integers(1, k, size=n)
        noisy[flip] = (dataset.true_labels[flip] + offsets[flip]) % k
    else:
        noisy[flip] = (dataset.true_labels[flip] + 1) % k
    return LabeledDataset(dataset.ids.copy(), dataset.features.copy(),
                          dataset.true_labels.copy(), noisy)


@dataclass(frozen=True)
class OodSpec:
    regime: str = "far"  # "far" | "near"
    n_samples: int = 1000
    seed: int = 0
    far_gap: float = 0.25  # box offset beyond the ID range, in range units
    near_radius_factor: float = 1.5
    near_spread: float = 0.25  # near-cluster std, in cluster-radius units

    def __post_init__(self):
        if self.regime not in ("far", "near"):
            raise ConfigError(f"unknown OOD regime {self.regime!r}")
        if self.n_samples < 1:
            raise ConfigError("OOD set must be nonempty")
        if self.far_gap < 0:
            raise ConfigError("far_gap must be nonnegative")


def _class_radius(dataset: LabeledDataset) -> float:
    # mean over classes of the RMS distance to the class mean
    radii = []
    for c in range(dataset.n_classes):
        rows = dataset.features[dataset.true_labels == c]
        radii.append(np.sqrt(((rows - rows.mean(axis=0)) ** 2).sum(axis=1).mean()))
    return float(np.mean(radii))


def generate_ood(spec: OodSpec, dataset: LabeledDataset) -> np.ndarray:
    """OOD inputs relative to the given ID dataset.

    far: uniform over a box shifted entirely beyond the ID per-dimension
    range. near: Gaussian clusters centered exactly at
    near_radius_factor x cluster radius from their nearest class mean.
    """
    rng = np.random.default_rng(spec.seed)
    feats = dataset.features
    if spec.regime == "far":
        lo, hi = feats.min(axis=0), feats.max(axis=0)
        span = hi - lo
        box_lo = hi + spec.far_gap * span
        box_hi = hi + (spec.far_gap + 1.0) * span
        return rng.uniform(box_lo, box_hi, size=(spec.n_samples, feats.shape[1]))

    k = dataset.n_classes
    centroids = np.stack([feats[dataset.true_labels == c].mean(axis=0) for c in range(k)])
    radius = _class_radius(dataset)
    offset = spec.near_radius_factor * radius
    counts = _balanced_counts(spec.n_samples, k)
    out = []
    for c in range(k):
        if counts[c] == 0:
            continue
        for _ in range(1000):
            direction = rng.normal(size=feats.shape[1])
            direction /= np.linalg.norm(direction)
            center = centroids[c] + offset * direction
            d = np.sqrt(((center - centroids) ** 2).sum(axis=1))
            if d.min() >= offset - 1e-9:  # the chosen centroid stays nearest
                break
        else:
            raise ParameterError("could not place a near-OOD center")
        out.append(center + rng.normal(scale=spec.near_spread * radius,
                                       size=(counts[c], feats.shape[1])))
    return np.vstack(out)


# ---------------------------------------------------------------------------
# CSV round trip (lossless at 17 significant digits)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_dataset_csv(dataset: LabeledDataset, path) -> None:
    d = dataset.features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "true_label", "noisy_label"] + [f"f{j}" for j in range(d)])
        for i in range(len(dataset.ids)):
            writer.writerow([int(dataset.ids[i]), int(dataset.true_labels[i]),
                             int(dataset.noisy_labels[i])]
                            + [_fmt(v) for v in dataset.features[i]])


def read_dataset_csv(path) -> LabeledDataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["id", "true_label", "noisy_label"]:
            raise ConfigError(f"unexpected dataset header in {path}")
        ids, true_l, noisy_l, feats = [], [], [], []
        try:
            for row in reader:
                ids.append(int(row[0]))
                true_l.append(int(row[1]))
                noisy_l.append(int(row[2]))
                feats.append([float(v) for v in row[3:]])
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from exc
    return LabeledDataset(np.array(ids), _feature_matrix(path, feats, len(header) - 3),
                          np.array(true_l), np.array(noisy_l))


def write_features_csv(features: np.ndarray, path) -> None:
    d = features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(d)])
        for i, row in enumerate(features):
            writer.writerow([i] + [_fmt(v) for v in row])


def read_features_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:1] != ["id"]:
            raise ConfigError(f"unexpected feature header in {path}")
        try:
            rows = [[float(v) for v in row[1:]] for row in reader]
        except ValueError as exc:
            raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from exc
    return _feature_matrix(path, rows, len(header) - 1)


def _feature_matrix(path, rows: list, width: int) -> np.ndarray:
    """Rows as an (n, width) array; ConfigError naming the first bad line."""
    if not rows:
        raise ConfigError(f"{path} holds no data rows")
    try:
        out = np.array(rows, dtype=np.float64)
    except ValueError:  # ragged rows
        out = None
    if out is None or out.shape[1] != width:
        line, row = next((i, r) for i, r in enumerate(rows, start=2) if len(r) != width)
        raise ConfigError(f"{path}, line {line}: {len(row)} feature values, "
                          f"the header names {width}")
    return out
