"""Local and server (federated) optimizers.

Local optimizers update a worker's flat parameter vector from its flat
gradient vector at a constant learning rate (SGD with/without Nesterov
momentum, Adam, AdamW — the three the paper uses).  Server optimizers are the
paper's two FedOpt baselines (FedAvgM, FedAdam) applied to the pseudo-gradient
formed by averaged client updates.
"""

from repro.optim.base import Optimizer, StackedOptimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam, AdamW
from repro.optim.server import FedAdam, FedAvgM, ServerOptimizer

__all__ = [
    "Optimizer",
    "StackedOptimizer",
    "SGD",
    "Adam",
    "AdamW",
    "ServerOptimizer",
    "FedAvgM",
    "FedAdam",
]
