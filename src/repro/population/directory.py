"""The client directory: lazily materialized data shards.

Registering ``N ∈ [10⁵, 10⁷]`` clients must cost nothing per client: the
directory never builds a per-client record up front.  A client's data shard
— its sample count and sample indices — is a pure function of the directory
seed and the client id (via :class:`~repro.utils.rng.RngFactory`'s named
streams), materialized in O(samples) when the client is actually bound into a
cohort.

Two shard providers exist:

* **virtual** (``train_dataset=``) — client ``c``'s shard is a seeded random
  subset of the workload's training set whose size is drawn from
  ``[min_client_samples, max_client_samples]``; the regime the population
  plane targets (``N`` far beyond what explicit shards could hold);
* **explicit** (``shards=``) — one :class:`~repro.data.datasets.Dataset` per
  client, for small-``N`` parity and eviction tests where the population must
  see exactly the shards a fully materialized cluster would.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.data.datasets import Dataset
from repro.exceptions import ConfigurationError
from repro.population.config import PopulationConfig
from repro.utils.rng import RngFactory, as_rng


class ClientDirectory:
    """Maps client ids to (lazily materialized) data shards."""

    def __init__(
        self,
        config: PopulationConfig,
        *,
        shards: Optional[Sequence[Dataset]] = None,
        train_dataset: Optional[Dataset] = None,
        seed: int = 0,
    ) -> None:
        if (shards is None) == (train_dataset is None):
            raise ConfigurationError(
                "ClientDirectory needs exactly one shard provider: explicit "
                "shards= or a train_dataset= to draw virtual shards from"
            )
        if shards is not None and len(shards) != config.num_clients:
            raise ConfigurationError(
                f"explicit shards must cover all {config.num_clients} clients, "
                f"got {len(shards)}"
            )
        if train_dataset is not None and len(train_dataset) < config.min_client_samples:
            raise ConfigurationError(
                f"train_dataset holds {len(train_dataset)} samples, fewer than "
                f"min_client_samples={config.min_client_samples}"
            )
        self.config = config
        self.seed = int(seed)
        self._shards: Optional[List[Dataset]] = list(shards) if shards is not None else None
        self._train = train_dataset
        self._factory = RngFactory(seed)

    @property
    def num_clients(self) -> int:
        return self.config.num_clients

    def _check_id(self, client_id: int) -> int:
        client_id = int(client_id)
        if not 0 <= client_id < self.config.num_clients:
            raise ConfigurationError(
                f"client_id must lie in [0, {self.config.num_clients}), got {client_id}"
            )
        return client_id

    def _shard_rng(self, client_id: int) -> np.random.Generator:
        """The client's private shard stream — a pure function of (seed, id)."""
        return as_rng(self._factory.named(f"pop-shard-{client_id}"))

    def shard(self, client_id: int) -> Dataset:
        """Materialize the client's data shard (O(samples), independent of N)."""
        client_id = self._check_id(client_id)
        if self._shards is not None:
            return self._shards[client_id]
        rng = self._shard_rng(client_id)
        num_samples = int(
            rng.integers(
                self.config.min_client_samples, self.config.max_client_samples + 1
            )
        )
        num_samples = min(num_samples, len(self._train))
        indices = rng.choice(len(self._train), size=num_samples, replace=False)
        return self._train.subset(np.sort(indices), name=f"client-{client_id}")
