"""repro — a reproduction of "Communication-Efficient Distributed Deep Learning
via Federated Dynamic Averaging" (EDBT 2025).

The package is organised bottom-up:

* :mod:`repro.nn` — a pure-NumPy neural-network substrate (layers, models,
  losses, the paper's architectures in miniature);
* :mod:`repro.optim` — local optimizers (SGD/Nesterov, Adam, AdamW) and the
  paper's FedOpt server optimizers (FedAvgM, FedAdam);
* :mod:`repro.sketch` — AMS sketches with the M2 second-moment estimator;
* :mod:`repro.data` — synthetic datasets and federated partitioning;
* :mod:`repro.distributed` — the simulated cluster, AllReduce, and
  communication-cost accounting;
* :mod:`repro.compression` — collective-level payload compression: row-wise
  ``(K, d)`` kernels, error-feedback memory, and true compressed-byte
  accounting, shared by every strategy;
* :mod:`repro.core` — the FDA algorithm itself (variance monitors, the
  Algorithm-1 trainer, Θ selection);
* :mod:`repro.strategies` — FDA and the baselines behind a uniform interface;
* :mod:`repro.experiments` — the run-until-accuracy-target harness, sweeps,
  and the registry mapping every paper figure/table to a configuration.

Quickstart::

    from repro import (
        FDAStrategy, SynchronousStrategy, TrainingRun, build_cluster,
    )
    from repro.experiments.registry import lenet_mnist_workload

    workload = lenet_mnist_workload(num_workers=5)
    cluster, test_set = build_cluster(workload)
    run = TrainingRun(accuracy_target=0.9, max_steps=300)
    result = run.execute(FDAStrategy(threshold=8.0, variant="linear"),
                         cluster, test_set)
    print(result.final_accuracy, result.communication_bytes, result.parallel_steps)
"""

from repro.compression import (
    CompressionConfig,
    Compressor,
    QuantizationCompressor,
    TopKCompressor,
    get_compression,
    make_compressor,
)
from repro.core import (
    ExactMonitor,
    FDATrainer,
    LinearMonitor,
    SketchMonitor,
    DynamicThetaController,
    StragglerProfile,
    Timeline,
    fit_theta_slope,
    make_monitor,
    model_variance,
    theta_guideline,
    variance_from_drifts,
)
from repro.distributed import (
    CommunicationTracker,
    Fabric,
    GossipTopology,
    HierarchicalTopology,
    NetworkModel,
    RingTopology,
    SimulatedCluster,
    StarTopology,
    Topology,
    Worker,
    get_network,
    get_topology,
)
from repro.experiments import (
    RunResult,
    TrainingRun,
    WorkloadConfig,
    build_cluster,
    make_optimizer,
)
from repro.sketch import AmsSketch
from repro.strategies import (
    FDAStrategy,
    FedOptStrategy,
    LocalSGDStrategy,
    SynchronousStrategy,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "FDATrainer",
    "SketchMonitor",
    "LinearMonitor",
    "ExactMonitor",
    "make_monitor",
    "model_variance",
    "variance_from_drifts",
    "theta_guideline",
    "fit_theta_slope",
    "DynamicThetaController",
    # distributed
    "SimulatedCluster",
    "Worker",
    "CommunicationTracker",
    "NetworkModel",
    "get_network",
    # the communication fabric
    "Fabric",
    "Topology",
    "StarTopology",
    "RingTopology",
    "HierarchicalTopology",
    "GossipTopology",
    "get_topology",
    # virtual time
    "Timeline",
    "StragglerProfile",
    # compression
    "CompressionConfig",
    "Compressor",
    "QuantizationCompressor",
    "TopKCompressor",
    "get_compression",
    "make_compressor",
    # sketches
    "AmsSketch",
    # strategies
    "FDAStrategy",
    "SynchronousStrategy",
    "LocalSGDStrategy",
    "FedOptStrategy",
    # experiments
    "WorkloadConfig",
    "build_cluster",
    "make_optimizer",
    "TrainingRun",
    "RunResult",
]
