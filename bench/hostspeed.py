"""Host-speed probe: the one correction the bounded host-time metrics carry.

The box this benchmark is sized for is a shared 2-vCPU VM whose speed moves
between plateaus up to 1.8x apart that last from seconds to minutes (Python
loops, GEMMs and streaming passes slow down together and ``/proc/stat`` shows
no steal: it is the core the guest is given, not the guest).  The stopwatch
reading of one fixed region spread by 7-39 % over ten consecutive runs
(quartile distance over median; bench/README.md has the study), wider than
the widest bound ``BENCHMARK.json`` may declare, and no statistic taken inside
a run helps, because the plateaus outlast the run.  So a fixed numpy kernel
is timed while the measured code runs, and each bounded host-time metric is
the *whole* stopwatch reading times one scalar per run::

    metric = stopwatch seconds x PROBE_REFERENCE_S / mean probe seconds

Nothing is trimmed or picked: every second of the region is in the reading,
whichever operation spent it.  What the scalar cannot do is tell a region
that waits on the disk from one that computes; it treats both as host speed.
``PROBE_REFERENCE_S`` only fixes the unit (seconds at the host speed at which
the probe takes that long); it cancels in every comparison.  The stopwatch
readings are kept in every report as ``wall_s`` and ``setup_raw_s``.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

from spans import SPAN_TARGETS, patch_targets, restore

#: Pause between two probes inside the timed region.
PROBE_EVERY_S = 0.25
#: The probe's duration on the 2-core reference box at its fastest plateau.
PROBE_REFERENCE_S = 0.0075


class HostProbe:
    """A fixed numpy kernel in the two regimes the workloads live in.

    Four stacked float32 GEMMs of the big model's hidden-layer shape (core
    bound, about two thirds of the reading) and one streaming multiply-add
    over a (16, d) matrix (bound by the shared cache and memory, one third).
    The host has two moods: its core speed moves for every kind of code at
    once, and now and then memory-bound code alone slows by a quarter more.
    The GEMM alone tracks the first mood best but is blind to the second,
    which moved ``train_dense`` by 28 % between two sets of ten runs; this mix
    leaves at most about a tenth on any workload in either.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((32, 16, 256)).astype(np.float32)
        self._b = rng.standard_normal((32, 256, 256)).astype(np.float32)
        self._c = np.empty((32, 16, 256), dtype=np.float32)
        self._m = rng.standard_normal((16, 114_728)).astype(np.float32)
        self._n = np.empty_like(self._m)
        self.seconds()  # first touch of the output buffers

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            np.matmul(self._a, self._b, out=self._c)
        np.multiply(self._m, 0.999, out=self._n)
        np.add(self._n, self._m, out=self._n)
        return time.perf_counter() - start


def at_reference_speed(stopwatch_seconds: float, probe_seconds: float) -> float:
    return stopwatch_seconds * PROBE_REFERENCE_S / probe_seconds


class RegionClock:
    """Stopwatch of the timed region, with host probes between its operations.

    ``operation_span`` names the public method (a key of ``SPAN_TARGETS``)
    whose return ends one operation; after a return that falls
    ``PROBE_EVERY_S`` past the previous probe, the probe runs once.  Probe
    time is the benchmark's own and is taken out of the reading.
    """

    def __init__(self, probe: HostProbe, operation_span: str) -> None:
        self._probe = probe
        self._targets = SPAN_TARGETS[operation_span]
        self._patched: List[Tuple[object, str, object]] = []
        self._next_probe = float("inf")
        self.probe_seconds: List[float] = []
        self._started = self._stopped = 0.0

    def _take_probe(self) -> None:
        self.probe_seconds.append(self._probe.seconds())
        self._next_probe = time.perf_counter() + PROBE_EVERY_S

    def _probing(self, function):
        def probed(*args, **kwargs):
            try:
                return function(*args, **kwargs)
            finally:
                if time.perf_counter() >= self._next_probe:
                    self._take_probe()

        return probed

    def __enter__(self) -> "RegionClock":
        self._patched += patch_targets(self._targets, self._probing)
        self._take_probe()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stopped = time.perf_counter()
        self._next_probe = float("inf")
        self.probe_seconds.append(self._probe.seconds())
        restore(self._patched)

    def readings(self) -> dict:
        """``wall_s`` (stopwatch), ``wall_quiet_s`` (at reference speed), ``host_slowdown``."""
        # The first and the last probe lie outside the stopwatch.
        wall = self._stopped - self._started - sum(self.probe_seconds[1:-1])
        probe = sum(self.probe_seconds) / len(self.probe_seconds)
        return {
            "wall_s": wall,
            "wall_quiet_s": at_reference_speed(wall, probe),
            "host_slowdown": probe / PROBE_REFERENCE_S,
        }
