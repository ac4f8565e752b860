"""Population plane: N ≫ K logical clients multiplexed onto the cluster.

The package splits along the lifecycle of a logical client:

* :mod:`~repro.population.config` — :class:`PopulationConfig`, the frozen
  description of a registered population (size, cohort, sampling, weighting,
  memory budget);
* :mod:`~repro.population.directory` — :class:`ClientDirectory`, lazy
  data-shard materialization;
* :mod:`~repro.population.sampler` — seeded per-round cohort draws;
* :mod:`~repro.population.store` — the LRU :class:`ClientStateStore` with
  bit-exact disk spill;
* :mod:`~repro.population.plane` — :class:`ClientPopulation`, which binds
  cohorts onto worker slots and runs strategy rounds.
"""

from repro.population.config import (
    SAMPLING_SCHEMES,
    WEIGHTING_SCHEMES,
    PopulationConfig,
)
from repro.population.directory import ClientDirectory
from repro.population.plane import ClientPopulation
from repro.population.sampler import CohortSampler
from repro.population.store import ClientStateStore

__all__ = [
    "SAMPLING_SCHEMES",
    "WEIGHTING_SCHEMES",
    "PopulationConfig",
    "ClientDirectory",
    "ClientPopulation",
    "CohortSampler",
    "ClientStateStore",
]
