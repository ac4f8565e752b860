"""Scaled-down versions of the architectures evaluated in the paper.

The paper trains LeNet-5 (62 K parameters), VGG16* (2.6 M), DenseNet121
(6.9 M), DenseNet201 (18 M) and fine-tunes ConvNeXtLarge (198 M).  Training
networks of that size in pure NumPy on a CPU is not feasible, so each factory
below builds a *miniature of the same family*: the layer pattern, the
initializer, and the regularization follow the original, while widths and
depths are reduced so that the distributed experiments finish in seconds.
The communication/computation trade-offs that FDA exploits depend only on the
relative model dimension ``d``, which these models still expose faithfully
(the Θ∝d relation of Figure 12 is reproduced across them).

Every factory returns a **built** :class:`~repro.nn.model.Sequential`, so the
caller can immediately read ``model.num_parameters`` and the flat parameter
vector.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    DenseBlock,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    TransitionDown,
)
from repro.nn.model import Sequential


def mlp(
    input_dim: int,
    num_classes: int,
    hidden_units: Sequence[int] = (64, 32),
    seed: int = 0,
    name: str = "mlp",
) -> Sequential:
    """A plain ReLU multi-layer perceptron on flat feature vectors.

    Used throughout the test-suite and in the quickstart example because it
    trains in milliseconds while still exercising every FDA code path.
    """
    if input_dim <= 0:
        raise ConfigurationError(f"input_dim must be positive, got {input_dim}")
    if num_classes <= 1:
        raise ConfigurationError(f"num_classes must be at least 2, got {num_classes}")
    layers = []
    for index, units in enumerate(hidden_units):
        layers.append(Dense(units, activation="relu", name=f"{name}_dense{index}"))
    layers.append(Dense(num_classes, activation=None, name=f"{name}_logits"))
    model = Sequential(layers, name=name)
    model.build((input_dim,), seed=seed)
    return model


def lenet5(
    input_shape: Tuple[int, int, int] = (14, 14, 1),
    num_classes: int = 10,
    scale: float = 1.0,
    seed: int = 0,
    name: str = "lenet5",
) -> Sequential:
    """Miniature LeNet-5 (conv-pool-conv-pool-dense-dense-logits).

    The paper's LeNet-5 has ~62 K parameters on 28x28 MNIST; with the default
    14x14 synthetic digits and ``scale=1`` this model has a few thousand
    parameters, which keeps the Figure-3/8 sweeps fast.  Glorot uniform
    initialization matches the paper.
    """
    if num_classes <= 1:
        raise ConfigurationError(f"num_classes must be at least 2, got {num_classes}")
    width = max(2, int(round(6 * scale)))
    width2 = max(4, int(round(16 * scale)))
    dense_units = max(8, int(round(32 * scale)))
    layers = [
        Conv2D(width, kernel_size=3, activation="relu",
               kernel_initializer="glorot_uniform", name=f"{name}_conv1"),
        MaxPool2D(2, name=f"{name}_pool1"),
        Conv2D(width2, kernel_size=3, activation="relu",
               kernel_initializer="glorot_uniform", name=f"{name}_conv2"),
        MaxPool2D(2, name=f"{name}_pool2"),
        Flatten(name=f"{name}_flatten"),
        Dense(dense_units, activation="relu", kernel_initializer="glorot_uniform",
              name=f"{name}_dense1"),
        Dense(num_classes, activation=None, kernel_initializer="glorot_uniform",
              name=f"{name}_logits"),
    ]
    model = Sequential(layers, name=name)
    model.build(input_shape, seed=seed)
    return model


def vgg_mini(
    input_shape: Tuple[int, int, int] = (14, 14, 1),
    num_classes: int = 10,
    scale: float = 1.0,
    seed: int = 0,
    name: str = "vgg_mini",
) -> Sequential:
    """Miniature VGG16* (stacked 3x3 conv blocks + two dense layers).

    The paper's VGG16* drops the 512-channel blocks and shrinks the FC layers
    to 512 units; this miniature keeps the same "two convs then pool" block
    structure with much smaller widths.  It is deliberately several times
    larger than :func:`lenet5`, mirroring the 62 K vs 2.6 M gap in the paper.
    """
    if num_classes <= 1:
        raise ConfigurationError(f"num_classes must be at least 2, got {num_classes}")
    base = max(4, int(round(8 * scale)))
    dense_units = max(16, int(round(64 * scale)))
    layers = [
        Conv2D(base, 3, activation="relu",
               kernel_initializer="glorot_uniform", name=f"{name}_conv1a"),
        Conv2D(base, 3, activation="relu",
               kernel_initializer="glorot_uniform", name=f"{name}_conv1b"),
        MaxPool2D(2, name=f"{name}_pool1"),
        Conv2D(base * 2, 3, activation="relu",
               kernel_initializer="glorot_uniform", name=f"{name}_conv2a"),
        Conv2D(base * 2, 3, activation="relu",
               kernel_initializer="glorot_uniform", name=f"{name}_conv2b"),
        MaxPool2D(2, name=f"{name}_pool2"),
        Flatten(name=f"{name}_flatten"),
        Dense(dense_units, activation="relu", kernel_initializer="glorot_uniform",
              name=f"{name}_fc1"),
        Dense(dense_units, activation="relu", kernel_initializer="glorot_uniform",
              name=f"{name}_fc2"),
        Dense(num_classes, activation=None, kernel_initializer="glorot_uniform",
              name=f"{name}_logits"),
    ]
    model = Sequential(layers, name=name)
    model.build(input_shape, seed=seed)
    return model


def densenet_mini(
    input_shape: Tuple[int, int, int] = (12, 12, 3),
    num_classes: int = 10,
    blocks: Sequence[int] = (2, 2),
    growth_rate: int = 6,
    dropout_rate: float = 0.2,
    seed: int = 0,
    name: str = "densenet_mini",
) -> Sequential:
    """Miniature DenseNet (initial conv, dense blocks with transitions, GAP head).

    Mirrors DenseNet121/201 as used in the paper: He-normal initialization,
    dropout rate 0.2, dense connectivity, and compression-0.5 transition
    layers.  ``blocks=(2, 2)`` plays the role of DenseNet121 and a deeper
    ``blocks=(3, 3)`` of DenseNet201 in the benchmark configurations.
    """
    if num_classes <= 1:
        raise ConfigurationError(f"num_classes must be at least 2, got {num_classes}")
    if not blocks:
        raise ConfigurationError("blocks must contain at least one dense block size")
    layers = [
        Conv2D(growth_rate * 2, kernel_size=3, activation="relu",
               kernel_initializer="he_normal", name=f"{name}_stem"),
    ]
    for index, num_layers in enumerate(blocks):
        layers.append(
            DenseBlock(num_layers, growth_rate, kernel_initializer="he_normal",
                       name=f"{name}_block{index}")
        )
        if index < len(blocks) - 1:
            layers.append(TransitionDown(0.5, kernel_initializer="he_normal",
                                         name=f"{name}_transition{index}"))
    layers.extend(
        [
            BatchNorm(name=f"{name}_bn_final"),
            GlobalAvgPool2D(name=f"{name}_gap"),
            Dropout(dropout_rate, seed=seed, name=f"{name}_dropout"),
            Dense(num_classes, activation=None, kernel_initializer="he_normal",
                  name=f"{name}_logits"),
        ]
    )
    model = Sequential(layers, name=name)
    model.build(input_shape, seed=seed)
    return model


def transfer_head(
    feature_dim: int,
    num_classes: int = 100,
    hidden_units: Sequence[int] = (96, 64),
    dropout_rate: float = 0.1,
    seed: int = 0,
    name: str = "transfer_head",
) -> Sequential:
    """Trainable head for the transfer-learning (fine-tuning) scenario.

    The paper fine-tunes the whole 198 M-parameter ConvNeXtLarge on CIFAR-100
    after ImageNet pre-training.  Here the frozen backbone is the synthetic
    feature extractor in :mod:`repro.data.features`; this factory builds the
    trainable part that FDA/AdamW actually update.  GELU activations mirror
    the ConvNeXt design.
    """
    if feature_dim <= 0:
        raise ConfigurationError(f"feature_dim must be positive, got {feature_dim}")
    if num_classes <= 1:
        raise ConfigurationError(f"num_classes must be at least 2, got {num_classes}")
    layers = []
    for index, units in enumerate(hidden_units):
        layers.append(Dense(units, activation="gelu", kernel_initializer="glorot_uniform",
                            name=f"{name}_dense{index}"))
        if dropout_rate > 0:
            layers.append(Dropout(dropout_rate, seed=seed + index, name=f"{name}_dropout{index}"))
    layers.append(Dense(num_classes, activation=None, kernel_initializer="glorot_uniform",
                        name=f"{name}_logits"))
    model = Sequential(layers, name=name)
    model.build((feature_dim,), seed=seed)
    return model
