"""Synthetic stand-ins for the paper's datasets.

The environment has no network access, so MNIST, CIFAR-10 and CIFAR-100 are
replaced by procedurally generated class-conditional image/feature problems:

* :func:`synthetic_digits` — MNIST substitute: per-class stroke-like
  prototypes on a small grayscale grid, with per-sample jitter and noise.
* :func:`synthetic_cifar` — CIFAR substitute: per-class smooth colored
  textures (low-frequency random fields), harder than the digits problem.
* :func:`synthetic_features` — CIFAR-100-after-a-pretrained-backbone
  substitute used for the transfer-learning scenario: class-conditional
  Gaussian clusters in a feature space with a controllable margin.
* :func:`gaussian_blobs` — a tiny generic problem used by the test-suite.

Each generator is fully deterministic given its ``seed`` and returns a
:class:`~repro.data.datasets.Dataset`, so training runs are reproducible and
every worker partition is derived from the same underlying data.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.datasets import Dataset
from repro.exceptions import DataError
from repro.utils.rng import as_rng


def _check_common(num_samples: int, num_classes: int, noise: float) -> None:
    if num_samples <= 0:
        raise DataError(f"num_samples must be positive, got {num_samples}")
    if num_classes <= 1:
        raise DataError(f"num_classes must be at least 2, got {num_classes}")
    if noise < 0:
        raise DataError(f"noise must be non-negative, got {noise}")


def _balanced_labels(num_samples: int, num_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Labels with (approximately) equal counts per class, in random order."""
    per_class = int(np.ceil(num_samples / num_classes))
    labels = np.tile(np.arange(num_classes), per_class)[:num_samples]
    rng.shuffle(labels)
    return labels


def _smooth_field(rng: np.random.Generator, size: int, smoothness: int = 3) -> np.ndarray:
    """A smooth random 2-D field in [-1, 1], built by upsampling low-res noise."""
    low = rng.normal(size=(smoothness, smoothness))
    # Bilinear upsampling to (size, size).
    coords = np.linspace(0, smoothness - 1, size)
    x0 = np.clip(np.floor(coords).astype(int), 0, smoothness - 2)
    frac = coords - x0
    rows = low[x0, :] * (1 - frac)[:, None] + low[x0 + 1, :] * frac[:, None]
    field = rows[:, x0] * (1 - frac)[None, :] + rows[:, x0 + 1] * frac[None, :]
    peak = np.max(np.abs(field))
    return field / (peak if peak > 0 else 1.0)


def synthetic_digits(
    num_samples: int = 2000,
    image_size: int = 14,
    num_classes: int = 10,
    noise: float = 0.25,
    jitter: int = 1,
    seed: Optional[int] = 0,
    name: str = "synthetic-digits",
) -> Dataset:
    """MNIST substitute: grayscale images with per-class stroke prototypes.

    Every class has a fixed prototype composed of a few bright strokes on the
    grid; a sample is the prototype shifted by up to ``jitter`` pixels plus
    Gaussian pixel noise.  With default settings a small CNN reaches > 95 %
    accuracy in a few hundred steps, similar in spirit to LeNet-5 on MNIST.
    """
    _check_common(num_samples, num_classes, noise)
    if image_size < 6:
        raise DataError(f"image_size must be at least 6, got {image_size}")
    rng = as_rng(seed)
    prototypes = np.zeros((num_classes, image_size, image_size))
    for class_index in range(num_classes):
        class_rng = np.random.default_rng([0 if seed is None else int(seed), 101, class_index])
        canvas = np.zeros((image_size, image_size))
        for _ in range(3):
            if class_rng.random() < 0.5:
                row = class_rng.integers(1, image_size - 1)
                start = class_rng.integers(0, image_size // 2)
                end = class_rng.integers(image_size // 2, image_size)
                canvas[row, start:end] = 1.0
            else:
                col = class_rng.integers(1, image_size - 1)
                start = class_rng.integers(0, image_size // 2)
                end = class_rng.integers(image_size // 2, image_size)
                canvas[start:end, col] = 1.0
        prototypes[class_index] = canvas

    labels = _balanced_labels(num_samples, num_classes, rng)
    images = np.zeros((num_samples, image_size, image_size, 1))
    for sample_index, label in enumerate(labels):
        canvas = prototypes[label]
        if jitter:
            shift_r = rng.integers(-jitter, jitter + 1)
            shift_c = rng.integers(-jitter, jitter + 1)
            canvas = np.roll(np.roll(canvas, shift_r, axis=0), shift_c, axis=1)
        sample = canvas + rng.normal(scale=noise, size=canvas.shape)
        images[sample_index, :, :, 0] = sample
    return Dataset(images, labels, num_classes, name=name)


def synthetic_cifar(
    num_samples: int = 2000,
    image_size: int = 12,
    channels: int = 3,
    num_classes: int = 10,
    noise: float = 0.35,
    seed: Optional[int] = 0,
    name: str = "synthetic-cifar",
) -> Dataset:
    """CIFAR substitute: small colored images with per-class smooth textures.

    Each class is a fixed low-frequency color texture; samples add Gaussian
    noise and a random global brightness shift.  The problem is noticeably
    harder than :func:`synthetic_digits`, mirroring the MNIST → CIFAR-10 jump
    in the paper.
    """
    _check_common(num_samples, num_classes, noise)
    if image_size < 6:
        raise DataError(f"image_size must be at least 6, got {image_size}")
    if channels <= 0:
        raise DataError(f"channels must be positive, got {channels}")
    rng = as_rng(seed)
    prototypes = np.zeros((num_classes, image_size, image_size, channels))
    for class_index in range(num_classes):
        class_rng = np.random.default_rng([0 if seed is None else int(seed), 202, class_index])
        for channel in range(channels):
            prototypes[class_index, :, :, channel] = _smooth_field(class_rng, image_size)

    labels = _balanced_labels(num_samples, num_classes, rng)
    images = np.zeros((num_samples, image_size, image_size, channels))
    for sample_index, label in enumerate(labels):
        brightness = rng.normal(scale=0.2)
        sample = prototypes[label] + brightness
        sample = sample + rng.normal(scale=noise, size=sample.shape)
        images[sample_index] = sample
    return Dataset(images, labels, num_classes, name=name)


def synthetic_features(
    num_samples: int = 3000,
    feature_dim: int = 32,
    num_classes: int = 20,
    class_separation: float = 3.0,
    noise: float = 1.0,
    seed: Optional[int] = 0,
    name: str = "synthetic-features",
) -> Dataset:
    """Feature-space substitute for CIFAR-100 after a pre-trained backbone.

    The transfer-learning experiment (Figure 13) fine-tunes a large model on
    extracted features.  Here classes are Gaussian clusters whose means are
    random directions scaled by ``class_separation``; lowering the separation
    or raising ``noise`` makes the fine-tuning task harder.
    """
    _check_common(num_samples, num_classes, noise)
    if feature_dim <= 1:
        raise DataError(f"feature_dim must be at least 2, got {feature_dim}")
    if class_separation <= 0:
        raise DataError(f"class_separation must be positive, got {class_separation}")
    rng = as_rng(seed)
    directions = rng.normal(size=(num_classes, feature_dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = directions * class_separation

    labels = _balanced_labels(num_samples, num_classes, rng)
    # Means go into the noise in row chunks, no full-size temporary; addition commutes: same bytes.
    features = rng.normal(scale=noise, size=(num_samples, feature_dim))
    chunk = 1024
    for start in range(0, num_samples, chunk):
        features[start:start + chunk] += means[labels[start:start + chunk]]
    return Dataset(features, labels, num_classes, name=name)


def gaussian_blobs(
    num_samples: int = 600,
    feature_dim: int = 8,
    num_classes: int = 3,
    separation: float = 4.0,
    noise: float = 1.0,
    seed: Optional[int] = 0,
    name: str = "gaussian-blobs",
) -> Dataset:
    """A tiny, easily separable problem used throughout the test-suite."""
    return synthetic_features(
        num_samples=num_samples,
        feature_dim=feature_dim,
        num_classes=num_classes,
        class_separation=separation,
        noise=noise,
        seed=seed,
        name=name,
    )

