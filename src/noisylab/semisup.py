"""Semi-supervised co-training pieces: label refinement, pseudo-label
guessing with sharpening, MixUp, and vector-data augmentations. The
loss terms that consume their outputs live in `noisylab.nn`.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def onehot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def sharpen(probs: np.ndarray, temperature: float) -> np.ndarray:
    """p ** (1/T) renormalized; T < 1 reduces entropy, T = 1 is the identity."""
    p = np.atleast_2d(probs) ** (1.0 / temperature)
    return p / (p @ np.ones(p.shape[1]))[:, None]  # row sums as one GEMV


def _mean(arrays: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean of equal-shape arrays, added in list order.

    Equal, bit for bit, to `np.mean(arrays, axis=0)`, which also adds the
    stacked arrays in order, but without stacking them into a new array.
    """
    total = np.array(arrays[0], dtype=np.float64)
    for a in arrays[1:]:
        total += a
    total /= len(arrays)
    return total


def refine_labels(noisy_labels: np.ndarray, clean_probs: np.ndarray,
                  predictions: list[np.ndarray], n_classes: int,
                  temperature: float) -> np.ndarray:
    """Blend given labels with averaged model predictions, then sharpen.

    target = w * onehot(label) + (1 - w) * mean(predictions)
    """
    w = np.asarray(clean_probs)[:, None]
    mean_pred = _mean(predictions)
    blended = w * onehot(noisy_labels, n_classes) + (1.0 - w) * mean_pred
    return sharpen(blended, temperature)


def guess_labels(predictions: list[np.ndarray], temperature: float) -> np.ndarray:
    """Average predictions over networks and augmented views, then sharpen."""
    return sharpen(_mean(predictions), temperature)


def apply_mixup(inputs_a, targets_a, inputs_b, targets_b, lam: float):
    """Convex combination with the dominant-side coefficient lam >= 0.5."""
    if inputs_a.shape != inputs_b.shape or targets_a.shape != targets_b.shape:
        raise ShapeError("mixup batches must share shapes")
    mixed_x = lam * inputs_a + (1.0 - lam) * inputs_b
    mixed_t = lam * targets_a + (1.0 - lam) * targets_b
    return mixed_x, mixed_t


def mixup(inputs_a, targets_a, inputs_b, targets_b, alpha: float,
          rng: np.random.Generator):
    """Draw lam ~ Beta(alpha, alpha), fold to max(lam, 1-lam), and mix."""
    lam = float(rng.beta(alpha, alpha))
    lam = max(lam, 1.0 - lam)
    mixed_x, mixed_t = apply_mixup(inputs_a, targets_a, inputs_b, targets_b, lam)
    return mixed_x, mixed_t, lam


def weak_augment(x: np.ndarray, feature_std: np.ndarray, rng: np.random.Generator,
                 jitter: float = 0.05) -> np.ndarray:
    """Gaussian jitter scaled per dimension by the training feature std."""
    out = rng.normal(size=x.shape)
    out *= jitter * feature_std
    out += x
    return out


def strong_augment(x: np.ndarray, feature_std: np.ndarray, rng: np.random.Generator,
                   jitter: float = 0.05, scale_range=(0.8, 1.25),
                   dropout: float = 0.1) -> np.ndarray:
    """Jitter, then random per-dimension scaling, then dimension dropout."""
    out = weak_augment(x, feature_std, rng, jitter)
    out *= rng.uniform(scale_range[0], scale_range[1], size=x.shape)
    out *= rng.random(size=x.shape) >= dropout
    return out
