"""Synthetic datasets, label-noise injection, OOD set generation, CSV I/O.

True labels are carried by `LabeledDataset` but the training path only
ever sees a `TrainView`, which has no true-label field: evaluation code
receives the full dataset, training code receives the view. The specs
check nothing: `RunConfig.validate` checks the settings they are built from.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, undecodable

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


@dataclass(frozen=True)
class NoiseSpec:
    mode: str = "symmetric"
    rate: float = 0.4
    seed: int = 0


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

    Every generator's geometry depends only on the spec's shape fields
    (gaussian blobs: their centers), so this is `generate` with the new
    size and seed.
    """
    return generate(replace(train_spec, n_samples=n_samples, seed=seed))


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
    range. near: Gaussian clusters centered at near_radius_factor x cluster
    radius from their own class mean, in a random direction where that mean
    stays the nearest. When 1000 directions all bring another class mean
    nearer (a mean inside the hull of the others), the center is the try
    whose nearest class mean is farthest away.
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
        best, best_gap = None, -np.inf
        for _ in range(1000):
            direction = rng.normal(size=feats.shape[1])
            direction /= np.linalg.norm(direction)
            center = centroids[c] + offset * direction
            gap = np.sqrt(((center - centroids) ** 2).sum(axis=1)).min()
            if gap > best_gap:
                best, best_gap = center, gap
            if gap >= offset - 1e-9:  # the chosen centroid stays nearest
                break
        out.append(best + rng.normal(scale=spec.near_spread * radius,
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
    ids, true_l, noisy_l, features = _read_csv(path, ("id", "true_label", "noisy_label"),
                                               int_lead=True)
    return LabeledDataset(ids, features, true_l, noisy_l)


def write_features_csv(features: np.ndarray, path) -> None:
    d = features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(d)])
        for i, row in enumerate(features):
            writer.writerow([i] + [_fmt(v) for v in row])


def read_features_csv(path) -> np.ndarray:
    return _read_csv(path, ("id",), int_lead=False)[-1]  # the id cells are not kept


def _read_csv(path, lead: tuple, int_lead: bool) -> list:
    """The `lead` columns and the (n, width) feature matrix: field views of the
    one table numpy parses, so no column is copied and each feature row is
    contiguous (the whole matrix too when no lead column is kept).

    The header is split with `csv` and gives the width; numpy's C reader
    parses the body straight from the open file, one line at a time, so
    no copy of the text is held. Cells are comma-separated, optionally in
    double quotes; lead cells are 64-bit integers if `int_lead`, else
    ignored text; features must be finite. numpy skips blank lines, so a
    row count other than the line count means one. A bad body goes to
    `_bad_line_error`; bytes that do not decode, to a ConfigError naming
    the file.
    """
    try:
        return _parse_csv(path, lead, int_lead)
    except UnicodeDecodeError as exc:
        raise undecodable(path, exc) from exc


def _parse_csv(path, lead: tuple, int_lead: bool) -> list:
    with open(path) as fh:  # universal newlines: \r\n and \r end a line as \n does
        header = next(csv.reader([fh.readline()]), [])
        if tuple(header[:len(lead)]) != lead:
            kind = "dataset" if int_lead else "feature"
            raise ConfigError(f"unexpected {kind} header in {path}")
        width = len(header) - len(lead)
        dtype = ([(name, np.int64 if int_lead else "U0") for name in lead]
                 + [("features", np.float64, (width,))])
        n_lines = 0

        def body():
            nonlocal n_lines
            for n_lines, line in enumerate(fh, 1):
                yield line

        try:
            with warnings.catch_warnings():  # numpy warns when every line is blank
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(body(), dtype=dtype, delimiter=",",
                                   comments=None, quotechar='"', ndmin=1)
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            raise _bad_line_error(path, len(lead), int_lead, width, str(exc)) from exc
    if not n_lines:
        raise ConfigError(f"{path} holds no data rows")
    if len(table) != n_lines or not np.isfinite(table["features"]).all():
        raise _bad_line_error(path, len(lead), int_lead, width,
                              f"{len(table)} rows read from {n_lines} lines")
    return [table[name] for name in table.dtype.names]


def _bad_line_error(path, n_lead: int, int_lead: bool, width: int,
                    reason: str) -> ConfigError:
    """ConfigError naming the first line whose cells the reader rejects.

    The slow path, taken only after the fast one failed: a Python `csv`
    scan of each row's cell count and cells. `reason` is the message when
    no single line is to blame.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            problem = _row_problem(row, n_lead, int_lead, width)
            if problem:
                return ConfigError(f"{path}, line {reader.line_num}: {problem}")
    return ConfigError(f"{path}: {reason}")


def _row_problem(row: list, n_lead: int, int_lead: bool, width: int) -> str | None:
    if not row:
        return "blank line"
    if len(row) != n_lead + width:
        return f"{len(row)} cells, the header names {n_lead + width}"
    for cell in row[:n_lead] if int_lead else ():
        if not _cell_ok(cell, int):
            return f"{cell!r} is not a 64-bit integer"
    for cell in row[n_lead:]:
        if not _cell_ok(cell, float):
            return f"{cell!r} is not a finite number"
    return None


def _cell_ok(cell: str, parse) -> bool:
    """Whether numpy's reader takes `cell` as an int64 (`parse` int) or a finite float.

    Python's int() and float() also take digit separators (`1_0`) and
    non-ASCII digits; numpy's reader does not.
    """
    text = cell.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        value = parse(text)
    except ValueError:
        return False
    return -2 ** 63 <= value < 2 ** 63 if parse is int else math.isfinite(value)
