"""Server-side (federated) optimizers — the FedOpt family.

FedAvg-style algorithms alternate E local epochs on each client with a server
update.  Following Reddi et al. ("Adaptive Federated Optimization", the
FedAdam paper cited by the FDA paper), the server treats the *negative average
client update*

    pseudo_gradient = w_global − mean_k(w_k)

as a gradient and applies a standard optimizer to it: momentum (FedAvgM) or
Adam (FedAdam).  These are the baselines FDA is compared against in every
figure.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.optim.base import check_beta


class ServerOptimizer:
    """Base class for server optimizers.

    :meth:`aggregate` takes the current global parameter vector and the mean
    of the client parameter vectors produced by the latest round of local
    training and returns the new global parameters.
    """

    def __init__(self, learning_rate: float = 1.0) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self._round_count = 0

    @property
    def round_count(self) -> int:
        """Server rounds aggregated so far (training state, not configuration)."""
        return self._round_count

    def aggregate(self, global_params: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """Return the updated global parameters after one communication round.

        ``mean`` is the round's client mean, in the plane dtype of
        ``global_params``: who votes and how much is decided before the server
        sees anything (the round hands it :meth:`Participation.mean
        <repro.distributed.participation.Participation.mean>`).
        """
        if mean.shape != global_params.shape:
            raise ShapeError(
                f"the client mean of shape {mean.shape} does not match the "
                f"global parameters of shape {global_params.shape}"
            )
        updated = self._apply(global_params, global_params - mean)
        self._round_count += 1
        return updated

    def reset(self) -> None:
        """Clear internal state (momentum / adaptive accumulators)."""
        self._round_count = 0
        self._reset_state()

    # -- subclass hooks ------------------------------------------------------

    def _apply(self, global_params: np.ndarray, pseudo_gradient: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _reset_state(self) -> None:
        """Subclasses clear accumulators here."""

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The live accumulators (momentum, adaptive moments) by name."""
        return {}

    def _bind_state(self, name: str, array: np.ndarray) -> None:
        """Adopt ``array`` as the accumulator ``name``."""

    def state_dict(self) -> Dict[str, object]:
        """Resumable snapshot: round count, learning rate, accumulator copies."""
        arrays = {name: array.copy() for name, array in self.state_arrays().items()}
        return {
            "round_count": self._round_count,
            "learning_rate": self.learning_rate,
            "arrays": arrays,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Resume from :meth:`state_dict` (accumulators it lacks are cleared)."""
        self.reset()
        self._round_count = int(state["round_count"])
        for name, array in state["arrays"].items():
            self._bind_state(name, np.array(array))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lr={self.learning_rate}, rounds={self.round_count})"


class FedAvgM(ServerOptimizer):
    """FedAvg with server momentum (Hsu et al.), the paper's SGD-family baseline.

    The paper uses server momentum 0.9 and server learning rate 0.316.
    """

    name = "fedavgm"

    def __init__(self, learning_rate: float = 0.316, momentum: float = 0.9) -> None:
        super().__init__(learning_rate)
        self.momentum = check_beta(momentum, "momentum")
        self._velocity: Optional[np.ndarray] = None

    def _apply(self, global_params: np.ndarray, pseudo_gradient: np.ndarray) -> np.ndarray:
        if self._velocity is None or self._velocity.shape != global_params.shape:
            self._velocity = np.zeros_like(global_params)
        self._velocity = self.momentum * self._velocity + pseudo_gradient
        return global_params - self.learning_rate * self._velocity

    def _reset_state(self) -> None:
        self._velocity = None

    def state_arrays(self):
        return {} if self._velocity is None else {"velocity": self._velocity}

    def _bind_state(self, name, array):
        if name == "velocity":
            self._velocity = array


class FedAdam(ServerOptimizer):
    """FedAdam (Reddi et al.), the paper's Adam-family FedOpt baseline."""

    name = "fedadam"
    #: The server moments' decays, the same for every run.
    beta1 = 0.9
    beta2 = 0.99

    def __init__(self, learning_rate: float = 0.01, tau: float = 1e-3) -> None:
        super().__init__(learning_rate)
        if tau <= 0:
            raise ConfigurationError(f"tau (adaptivity) must be positive, got {tau}")
        self.tau = float(tau)
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None

    def _apply(self, global_params: np.ndarray, pseudo_gradient: np.ndarray) -> np.ndarray:
        if self._m is None or self._m.shape != global_params.shape:
            self._m = np.zeros_like(global_params)
            self._v = np.full_like(global_params, self.tau**2)
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * pseudo_gradient
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * pseudo_gradient**2
        return global_params - self.learning_rate * self._m / (np.sqrt(self._v) + self.tau)

    def _reset_state(self) -> None:
        self._m = None
        self._v = None

    def state_arrays(self):
        return {} if self._m is None else {"m": self._m, "v": self._v}

    def _bind_state(self, name, array):
        if name == "m":
            self._m = array
        elif name == "v":
            self._v = array
