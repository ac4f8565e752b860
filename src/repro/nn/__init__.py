"""Pure-NumPy neural-network substrate.

This subpackage replaces the TensorFlow/Keras stack used in the paper.  It
provides layers with explicit forward/backward passes, standard initializers
(Glorot uniform, He normal), losses, metrics, a :class:`Sequential` model with
flat-parameter views (what the FDA algorithm operates on), and scaled-down
versions of the paper's architectures (LeNet-5, VGG16*, DenseNet, transfer
heads).
"""

from repro.nn.initializers import (
    glorot_uniform,
    he_normal,
    lecun_normal,
    zeros_init,
)
from repro.nn.layers import (
    Activation,
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    DenseBlock,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    Layer,
    MaxPool2D,
    TransitionDown,
)
from repro.nn.losses import (
    Loss,
    SoftmaxCrossEntropy,
)
from repro.nn.batched import BatchedModel, BatchedPlane
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.nn.plane import ParameterPlane
from repro.nn.architectures import (
    densenet_mini,
    lenet5,
    mlp,
    transfer_head,
    vgg_mini,
)

__all__ = [
    "glorot_uniform",
    "he_normal",
    "lecun_normal",
    "zeros_init",
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "Flatten",
    "Dropout",
    "BatchNorm",
    "Activation",
    "DenseBlock",
    "TransitionDown",
    "Loss",
    "SoftmaxCrossEntropy",
    "accuracy",
    "Sequential",
    "ParameterPlane",
    "BatchedModel",
    "BatchedPlane",
    "lenet5",
    "vgg_mini",
    "densenet_mini",
    "transfer_head",
    "mlp",
]
