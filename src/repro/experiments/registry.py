"""Experiment registry: one entry per table and figure of the paper.

Every benchmark in ``benchmarks/`` pulls its configuration from here, so the
mapping between the paper's evaluation and this reproduction lives in a single
place (and is cross-referenced from DESIGN.md).  The configurations are
scaled-down versions of Table 2: synthetic datasets stand in for MNIST /
CIFAR-10 / CIFAR-100, the architectures are the miniatures from
:mod:`repro.nn.architectures`, and the Θ grids / worker counts are chosen so a
full figure reproduction runs in seconds to minutes on a CPU while preserving
the qualitative trends (see the "expected shapes" list in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.data.datasets import train_test_split
from repro.data.synthetic import (
    synthetic_cifar,
    synthetic_digits,
    synthetic_features,
)
from repro.data.features import PretrainedFeatureExtractor
from repro.experiments.run import TrainingRun
from repro.experiments.setup import WorkloadConfig, make_optimizer
from repro.nn.architectures import densenet_mini, lenet5, transfer_head, vgg_mini
from repro.strategies.base import Strategy
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.fedopt import fedadam_strategy, fedavgm_strategy
from repro.strategies.synchronous import SynchronousStrategy

StrategyFactory = Callable[[], Strategy]


@dataclass
class ExperimentSpec:
    """A figure/table reproduction: workloads × strategies × run budget, plus grids.

    The spec only *declares*; :func:`repro.experiments.sweep.lower_spec` is
    the one function that reads the declaration and lowers it onto cells.
    Every spec is a ``comparison`` (each strategy as configured on each
    workload); each non-empty axis below adds a grid over the same workloads:
    ``fda_thetas`` re-instantiates the spec's own FDA entries — the factories
    that take a ``theta`` keyword, i.e. bindings of :func:`fda` — at each Θ,
    ``worker_counts`` varies K for every strategy, and ``compressions`` the
    payload-compression grid (``python -m repro.cli compression``; entries
    are kernel names, :class:`~repro.compression.config.CompressionConfig`
    objects, or ``"none"``).
    """

    experiment_id: str
    title: str
    workloads: Dict[str, WorkloadConfig]
    strategy_factories: Dict[str, StrategyFactory]
    run: TrainingRun
    fda_thetas: Sequence[float] = field(default_factory=tuple)
    worker_counts: Sequence[int] = field(default_factory=tuple)
    compressions: Sequence = field(default_factory=tuple)
    notes: str = ""


# ---------------------------------------------------------------------------
# Workload builders (the rows of Table 2, scaled down)
# ---------------------------------------------------------------------------


def lenet_mnist_workload(
    num_workers: int = 5,
    partition_scheme: str = "iid",
    partition_kwargs: Optional[dict] = None,
    num_train: int = 900,
    num_test: int = 300,
    seed: int = 0,
) -> WorkloadConfig:
    """LeNet-5 on (synthetic) MNIST with Adam — the paper's first row of Table 2."""
    full = synthetic_digits(num_train + num_test, seed=seed, name="synthetic-mnist")
    train, test = train_test_split(
        full, test_fraction=num_test / (num_train + num_test), seed=seed
    )
    return WorkloadConfig(
        name="lenet5-mnist",
        model_factory=lambda: lenet5(input_shape=(14, 14, 1), num_classes=10, seed=seed),
        train_dataset=train,
        test_dataset=test,
        optimizer_factory=make_optimizer("adam"),
        num_workers=num_workers,
        batch_size=32,
        partition_scheme=partition_scheme,
        partition_kwargs=dict(partition_kwargs or {}),
        seed=seed,
    )


def vgg_mnist_workload(
    num_workers: int = 5,
    partition_scheme: str = "iid",
    partition_kwargs: Optional[dict] = None,
    num_train: int = 900,
    num_test: int = 300,
    seed: int = 0,
) -> WorkloadConfig:
    """VGG16* on (synthetic) MNIST with Adam — the paper's second Table 2 row."""
    full = synthetic_digits(num_train + num_test, seed=seed, name="synthetic-mnist")
    train, test = train_test_split(
        full, test_fraction=num_test / (num_train + num_test), seed=seed
    )
    return WorkloadConfig(
        name="vgg-mini-mnist",
        model_factory=lambda: vgg_mini(input_shape=(14, 14, 1), num_classes=10, seed=seed),
        train_dataset=train,
        test_dataset=test,
        optimizer_factory=make_optimizer("adam"),
        num_workers=num_workers,
        batch_size=32,
        partition_scheme=partition_scheme,
        partition_kwargs=dict(partition_kwargs or {}),
        seed=seed,
    )


def densenet_cifar_workload(
    variant: str = "small",
    num_workers: int = 5,
    partition_scheme: str = "iid",
    partition_kwargs: Optional[dict] = None,
    num_train: int = 800,
    num_test: int = 240,
    seed: int = 0,
) -> WorkloadConfig:
    """DenseNet on (synthetic) CIFAR-10 with SGD-Nesterov momentum.

    ``variant="small"`` plays the role of DenseNet121 and ``"large"`` of
    DenseNet201 (more dense blocks, larger ``d``).
    """
    blocks = (2, 2) if variant == "small" else (3, 3)
    full = synthetic_cifar(
        num_train + num_test, image_size=10, noise=0.6, seed=seed, name="synthetic-cifar"
    )
    train, test = train_test_split(
        full, test_fraction=num_test / (num_train + num_test), seed=seed
    )
    return WorkloadConfig(
        name=f"densenet-{variant}-cifar",
        model_factory=lambda: densenet_mini(
            input_shape=(10, 10, 3), num_classes=10, blocks=blocks, seed=seed
        ),
        train_dataset=train,
        test_dataset=test,
        optimizer_factory=make_optimizer("sgd-nm", learning_rate=0.05),
        num_workers=num_workers,
        batch_size=32,
        partition_scheme=partition_scheme,
        partition_kwargs=dict(partition_kwargs or {}),
        seed=seed,
    )


def transfer_learning_workload(
    num_workers: int = 3,
    num_train: int = 1200,
    num_test: int = 400,
    num_classes: int = 20,
    seed: int = 0,
) -> WorkloadConfig:
    """ConvNeXt-style fine-tuning on (synthetic) CIFAR-100 features with AdamW.

    A frozen :class:`PretrainedFeatureExtractor` plays the ImageNet-pretrained
    backbone; the trainable head is fine-tuned by every strategy (Figure 13).
    """
    raw_full = synthetic_features(
        num_train + num_test, feature_dim=24, num_classes=num_classes,
        class_separation=3.0, seed=seed, name="synthetic-cifar100",
    )
    raw_train, raw_test = train_test_split(
        raw_full, test_fraction=num_test / (num_train + num_test), seed=seed
    )
    extractor = PretrainedFeatureExtractor(input_dim=24, hidden_dims=(48, 32), seed=seed)
    train = extractor.transform_dataset(raw_train)
    test = extractor.transform_dataset(raw_test)
    return WorkloadConfig(
        name="convnext-transfer-cifar100",
        model_factory=lambda: transfer_head(
            feature_dim=extractor.output_dim, num_classes=num_classes, seed=seed
        ),
        train_dataset=train,
        test_dataset=test,
        optimizer_factory=make_optimizer("adamw", learning_rate=0.005),
        num_workers=num_workers,
        batch_size=32,
        partition_scheme="iid",
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Strategy factories used across figures
# ---------------------------------------------------------------------------


#: Sketch geometry used by the registry's SketchFDA configurations.  The paper
#: recommends 5 x 250 for models with millions of parameters; the miniature
#: models here have thousands, so the width is scaled down proportionally to
#: keep the local state small relative to the model dimension (see DESIGN.md).
REGISTRY_SKETCH_DEPTH = 5
REGISTRY_SKETCH_WIDTH = 64


def fda(theta: float, variant: str = "linear") -> FDAStrategy:
    """The registry's FDA factory: Θ under the paper's name, sketches at the registry geometry.

    Every FDA strategy the registry, the CLI and the benchmarks build comes
    from here, as ``partial(fda, theta=…, variant=…)``: the binding is a
    zero-argument strategy factory that still takes ``theta`` as a keyword,
    which is how a Θ grid re-instantiates it
    (:func:`repro.experiments.sweep.lower_grid` binds the axis) — at the same
    sketch geometry as the comparison it sits beside.
    """
    return FDAStrategy(
        threshold=theta,
        variant=variant,
        sketch_depth=REGISTRY_SKETCH_DEPTH,
        sketch_width=REGISTRY_SKETCH_WIDTH,
    )


def default_strategies(theta: float, fedopt: str = "fedadam") -> Dict[str, StrategyFactory]:
    """The paper's strategy line-up for one workload at one Θ.

    ``fedopt`` picks the federated baseline matching the local optimizer
    (FedAdam for the Adam workloads, FedAvgM for the SGD-NM workloads).
    """
    factories: Dict[str, StrategyFactory] = {
        "LinearFDA": partial(fda, theta=theta, variant="linear"),
        "SketchFDA": partial(fda, theta=theta, variant="sketch"),
        "Synchronous": lambda: SynchronousStrategy(),
    }
    if fedopt == "fedadam":
        factories["FedAdam"] = fedadam_strategy
    elif fedopt == "fedavgm":
        factories["FedAvgM"] = fedavgm_strategy
    else:
        raise ValueError(f"unknown fedopt baseline {fedopt!r}")
    return factories


# ---------------------------------------------------------------------------
# Table 2: summary of experiments
# ---------------------------------------------------------------------------


def table2() -> List[Dict[str, object]]:
    """The reproduction's analogue of Table 2 (one row per learning task)."""
    rows = []
    specs = [
        ("LeNet-5 (mini)", lenet_mnist_workload, dict(), (4.0, 8.0, 16.0), "adam", "FedAdam"),
        ("VGG16* (mini)", vgg_mnist_workload, dict(), (4.0, 8.0, 16.0), "adam", "FedAdam"),
        ("DenseNet121 (mini)", densenet_cifar_workload, dict(variant="small"),
         (2.0, 6.0, 12.0), "sgd-nm", "FedAvgM"),
        ("DenseNet201 (mini)", densenet_cifar_workload, dict(variant="large"),
         (2.0, 6.0, 12.0), "sgd-nm", "FedAvgM"),
        ("ConvNeXt head (transfer)", transfer_learning_workload, dict(),
         (0.5, 1.0, 2.0), "adamw", "—"),
    ]
    for title, builder, kwargs, thetas, optimizer, fedopt in specs:
        workload = builder(**kwargs)
        model = workload.model_factory()
        rows.append(
            {
                "model": title,
                "d": model.num_parameters,
                "dataset": workload.train_dataset.name,
                "theta_grid": list(thetas),
                "batch_size": workload.batch_size,
                "num_workers": workload.num_workers,
                "optimizer": optimizer,
                "algorithms": ["LinearFDA", "SketchFDA", "Synchronous", fedopt],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figures 3-6: KDE comparisons per workload and heterogeneity setting
# ---------------------------------------------------------------------------


def figure3(quick: bool = True) -> ExperimentSpec:
    """LeNet-5 on MNIST across IID / Non-IID label / Non-IID 60 % (Figure 3)."""
    num_workers = 5
    workloads = {
        "iid": lenet_mnist_workload(num_workers=num_workers, partition_scheme="iid"),
        "noniid-label": lenet_mnist_workload(
            num_workers=num_workers,
            partition_scheme="noniid-label",
            partition_kwargs={"label": 0, "num_holders": 1},
        ),
        "noniid-60": lenet_mnist_workload(
            num_workers=num_workers,
            partition_scheme="noniid-fraction",
            partition_kwargs={"fraction": 0.6},
        ),
    }
    theta = 8.0
    return ExperimentSpec(
        experiment_id="figure3",
        title="LeNet-5 on MNIST: communication vs computation across heterogeneity settings",
        workloads=workloads,
        strategy_factories=default_strategies(theta, fedopt="fedadam"),
        run=TrainingRun(
            accuracy_target=0.9,
            max_steps=240 if quick else 800,
            eval_every_steps=20,
        ),
        fda_thetas=(4.0, 8.0) if quick else (2.0, 4.0, 8.0, 16.0),
        notes="Accuracy target 0.985 in the paper; scaled to the synthetic digits task.",
    )


def figure4(quick: bool = True) -> ExperimentSpec:
    """VGG16* on MNIST, two accuracy targets, three heterogeneity settings (Figure 4)."""
    num_workers = 5
    workloads = {
        "iid": vgg_mnist_workload(num_workers=num_workers, partition_scheme="iid"),
        "noniid-label0": vgg_mnist_workload(
            num_workers=num_workers,
            partition_scheme="noniid-label",
            partition_kwargs={"label": 0, "num_holders": 1},
        ),
        "noniid-label8": vgg_mnist_workload(
            num_workers=num_workers,
            partition_scheme="noniid-label",
            partition_kwargs={"label": 8, "num_holders": 1},
        ),
    }
    theta = 8.0
    return ExperimentSpec(
        experiment_id="figure4",
        title="VGG16* on MNIST: two accuracy targets, diminishing returns",
        workloads=workloads,
        strategy_factories=default_strategies(theta, fedopt="fedadam"),
        run=TrainingRun(
            accuracy_target=0.9,
            max_steps=240 if quick else 900,
            eval_every_steps=20,
        ),
        fda_thetas=(4.0, 8.0) if quick else (4.0, 8.0, 16.0, 32.0),
        notes="The bench also evaluates a second, higher accuracy target for the "
        "diminishing-returns comparison.",
    )


def figure5(quick: bool = True) -> ExperimentSpec:
    """DenseNet121 on CIFAR-10, IID (Figure 5)."""
    workload = densenet_cifar_workload(variant="small", num_workers=4)
    theta = 6.0
    return ExperimentSpec(
        experiment_id="figure5",
        title="DenseNet121 on CIFAR-10 (IID)",
        workloads={"iid": workload},
        strategy_factories=default_strategies(theta, fedopt="fedavgm"),
        run=TrainingRun(
            accuracy_target=0.72,
            max_steps=160 if quick else 600,
            eval_every_steps=20,
        ),
        fda_thetas=(3.0, 6.0) if quick else (2.0, 4.0, 6.0, 12.0),
    )


def figure6(quick: bool = True) -> ExperimentSpec:
    """DenseNet201 on CIFAR-10, IID (Figure 6)."""
    workload = densenet_cifar_workload(variant="large", num_workers=4)
    theta = 6.0
    return ExperimentSpec(
        experiment_id="figure6",
        title="DenseNet201 on CIFAR-10 (IID)",
        workloads={"iid": workload},
        strategy_factories=default_strategies(theta, fedopt="fedavgm"),
        run=TrainingRun(
            accuracy_target=0.72,
            max_steps=160 if quick else 600,
            eval_every_steps=20,
        ),
        fda_thetas=(3.0, 6.0) if quick else (2.0, 4.0, 6.0, 12.0),
    )


def figure7(quick: bool = True) -> ExperimentSpec:
    """Training-accuracy progression and generalization gap (Figure 7)."""
    workload = densenet_cifar_workload(variant="small", num_workers=4)
    theta = 6.0
    return ExperimentSpec(
        experiment_id="figure7",
        title="Training-accuracy progression and generalization gap",
        workloads={"iid": workload},
        strategy_factories=default_strategies(theta, fedopt="fedavgm"),
        run=TrainingRun(
            accuracy_target=0.72,
            max_steps=160 if quick else 500,
            eval_every_steps=20,
            track_train_accuracy=True,
        ),
        fda_thetas=(theta,),
    )


# ---------------------------------------------------------------------------
# Figures 8-11: varying K and Θ
# ---------------------------------------------------------------------------


def figure8(quick: bool = True) -> ExperimentSpec:
    """LeNet-5 on MNIST: varying the number of workers and Θ (Figure 8)."""
    workload = lenet_mnist_workload(num_workers=4)
    theta = 8.0
    return ExperimentSpec(
        experiment_id="figure8",
        title="LeNet-5 on MNIST: varying K and Theta",
        workloads={"iid": workload},
        strategy_factories=default_strategies(theta, fedopt="fedadam"),
        run=TrainingRun(
            accuracy_target=0.88,
            max_steps=200 if quick else 600,
            eval_every_steps=20,
        ),
        fda_thetas=(2.0, 8.0, 32.0) if quick else (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        worker_counts=(3, 5) if quick else (3, 5, 8, 12),
    )


def figure9(quick: bool = True) -> ExperimentSpec:
    """VGG16* on MNIST: varying the number of workers and Θ (Figure 9)."""
    workload = vgg_mnist_workload(num_workers=4)
    theta = 8.0
    return ExperimentSpec(
        experiment_id="figure9",
        title="VGG16* on MNIST: varying K and Theta",
        workloads={"iid": workload},
        strategy_factories=default_strategies(theta, fedopt="fedadam"),
        run=TrainingRun(
            accuracy_target=0.88,
            max_steps=200 if quick else 600,
            eval_every_steps=20,
        ),
        fda_thetas=(2.0, 8.0, 32.0) if quick else (2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        worker_counts=(3, 5) if quick else (3, 5, 8, 12),
    )


def figure10(quick: bool = True) -> ExperimentSpec:
    """DenseNet121 on CIFAR-10: varying the number of workers and Θ (Figure 10)."""
    workload = densenet_cifar_workload(variant="small", num_workers=4)
    theta = 6.0
    return ExperimentSpec(
        experiment_id="figure10",
        title="DenseNet121 on CIFAR-10: varying K and Theta",
        workloads={"iid": workload},
        strategy_factories=default_strategies(theta, fedopt="fedavgm"),
        run=TrainingRun(
            accuracy_target=0.68,
            max_steps=140 if quick else 500,
            eval_every_steps=20,
        ),
        fda_thetas=(2.0, 6.0, 18.0) if quick else (2.0, 4.0, 6.0, 9.0, 12.0, 18.0),
        worker_counts=(3, 5) if quick else (3, 5, 8),
    )


def figure11(quick: bool = True) -> ExperimentSpec:
    """DenseNet201 on CIFAR-10: varying the number of workers and Θ (Figure 11)."""
    workload = densenet_cifar_workload(variant="large", num_workers=4)
    theta = 6.0
    return ExperimentSpec(
        experiment_id="figure11",
        title="DenseNet201 on CIFAR-10: varying K and Theta",
        workloads={"iid": workload},
        strategy_factories=default_strategies(theta, fedopt="fedavgm"),
        run=TrainingRun(
            accuracy_target=0.68,
            max_steps=140 if quick else 500,
            eval_every_steps=20,
        ),
        fda_thetas=(2.0, 6.0, 18.0) if quick else (2.0, 4.0, 6.0, 9.0, 12.0, 18.0),
        worker_counts=(3, 5) if quick else (3, 5, 8),
    )


# ---------------------------------------------------------------------------
# Figure 12: the Θ guideline, and Figure 13: transfer learning
# ---------------------------------------------------------------------------


def figure12(quick: bool = True) -> Dict[str, object]:
    """Workloads of increasing model dimension for the Θ-vs-d fit (Figure 12)."""
    workloads = [
        ("densenet", densenet_cifar_workload(variant="small", num_workers=4)),
        ("lenet", lenet_mnist_workload(num_workers=4)),
        ("vgg", vgg_mnist_workload(num_workers=4)),
    ]
    theta_grid = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0) if not quick else (2.0, 8.0, 32.0)
    return {
        "experiment_id": "figure12",
        "title": "Empirical estimation of the variance threshold (Theta vs d)",
        "workloads": workloads,
        "theta_grid": theta_grid,
        "run": TrainingRun(
            accuracy_target=0.85,
            max_steps=160 if quick else 500,
            eval_every_steps=20,
        ),
        "paper_slopes": {"fl": 4.91e-5, "balanced": 3.89e-5, "hpc": 2.74e-5},
    }


def figure13(quick: bool = True) -> ExperimentSpec:
    """ConvNeXt fine-tuning on CIFAR-100 (transfer learning), Figure 13."""
    workloads = {
        "K=3": transfer_learning_workload(num_workers=3),
        "K=5": transfer_learning_workload(num_workers=5),
    }
    theta = 1.0
    return ExperimentSpec(
        experiment_id="figure13",
        title="Transfer learning: ConvNeXt head fine-tuning on CIFAR-100 features",
        workloads=workloads,
        strategy_factories={
            "LinearFDA": partial(fda, theta=theta, variant="linear"),
            "SketchFDA": partial(fda, theta=theta, variant="sketch"),
            "Synchronous": lambda: SynchronousStrategy(),
        },
        run=TrainingRun(
            accuracy_target=0.55,
            max_steps=320 if quick else 900,
            eval_every_steps=40,
        ),
        fda_thetas=(0.25, 1.0, 4.0) if quick else (0.25, 0.5, 1.0, 2.0, 4.0),
    )


# ---------------------------------------------------------------------------
# The compression grid: what-is-sent × when-to-send (Section 2 orthogonality)
# ---------------------------------------------------------------------------


def compression_sweep(quick: bool = True) -> ExperimentSpec:
    """Compression × strategy sweep: how much traffic does each kernel remove?

    One workload, the FDA-vs-Synchronous pair, and a grid over payload
    compression settings (exact, 8-bit quantization, top-k with and without
    error feedback).  Per cell the harness reports the model-sync byte ledger
    and the reached accuracy — the reproduction's answer to the paper's
    Section-2 claim that compression composes multiplicatively with FDA's
    dynamic synchronization schedule.
    """
    from repro.compression import CompressionConfig

    workload = lenet_mnist_workload(num_workers=4 if quick else 8)
    theta = 8.0
    grid = (
        "none",
        "quantization",
        CompressionConfig("topk", ratio=0.1, error_feedback=True),
    )
    if not quick:
        grid = grid + (
            CompressionConfig("topk", ratio=0.1),
            CompressionConfig("randomk", ratio=0.1, error_feedback=True),
            "signsgd",
            CompressionConfig("layerwise-topk", ratio=0.1, error_feedback=True),
        )
    return ExperimentSpec(
        experiment_id="compression",
        title="Payload compression x dynamic averaging: bytes per reached accuracy",
        workloads={"iid": workload},
        strategy_factories={
            "LinearFDA": partial(fda, theta=theta, variant="linear"),
            "Synchronous": lambda: SynchronousStrategy(),
        },
        run=TrainingRun(
            accuracy_target=0.88,
            max_steps=80 if quick else 300,
            eval_every_steps=20,
        ),
        fda_thetas=(theta,),
        compressions=grid,
        notes="Quick mode runs exact vs quantization vs error-feedback top-k; "
        "full mode adds plain top-k, random-k, sign+norm, and layer-wise top-k.",
    )


ALL_FIGURES = {
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure13": figure13,
}
