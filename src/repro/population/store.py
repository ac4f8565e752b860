"""LRU client-state store with a bounded resident set and bit-exact disk spill.

A *stateful* client is one that has been bound into a cohort at least once:
its snapshot (parameters, optimizer moments, error-feedback residual, RNG
streams, step count) must survive until its next binding.  Keeping all of
them resident would tie memory to the number of ever-sampled clients — over a
long run, to ``N`` — so the store holds at most ``budget`` snapshots in
memory (least-recently-bound evicted first) and spills the rest to disk via
``pickle``, which round-trips ndarray bytes and PCG64 state dicts exactly.
``peak_resident`` records the high-water mark; the population bench asserts
it stays a function of the cohort size, never of ``N``.

A spilled snapshot is read back only when its client is sampled again
(probability ``cohort / N`` a round), so its file has no use for the page
cache: the store asks the kernel to write each file back as soon as it is
closed and to forget its pages a few spills later (:func:`_release_page_cache`).
Left alone the files pile up as dirty pages (1.3 GB in 60 rounds of 16 clients
at d = 114 728) until the kernel throttles the writer, and every one of those
pages is fresh memory: on a virtual machine whose host takes free guest pages
back, first touching them costs from 0.3 to 5 ms a snapshot, run to run.
Recycled, the spill keeps ``_WRITE_BACK_LAG`` files (22 MB) in the cache and
costs 1.0-1.1 ms a snapshot whatever the host did before.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict, deque
from pathlib import Path
from typing import Dict, Optional

from repro.exceptions import ConfigurationError

#: Spills between the call that starts a file's write-back and the call that
#: drops its pages.  The write-back of one snapshot takes about a millisecond
#: and a cohort's spills come in one burst a round, so the second call finds
#: the pages clean; where it does not they simply stay cached.
_WRITE_BACK_LAG = 16


def _release_page_cache(path: Path) -> None:
    """Advise the kernel that ``path`` will not be read soon.

    ``POSIX_FADV_DONTNEED`` starts the asynchronous write-back of the file's
    dirty pages and drops the clean ones, so the first call on a fresh file
    only starts the write-back and a later one gives the pages back.  It is
    advice: without ``posix_fadvise`` (macOS, Windows), on a filesystem that
    refuses it, or when a newer save has already removed the file, nothing
    happens and the file is as readable as before.
    """
    if not hasattr(os, "posix_fadvise"):
        return
    try:
        descriptor = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return
    try:
        os.posix_fadvise(descriptor, 0, 0, os.POSIX_FADV_DONTNEED)
    except OSError:
        pass
    finally:
        os.close(descriptor)


class ClientStateStore:
    """Bounded in-memory snapshot cache over an unbounded disk spill."""

    def __init__(self, budget: Optional[int] = None, spill_dir=None) -> None:
        if budget is not None and budget < 1:
            raise ConfigurationError(f"budget must be positive (or None), got {budget}")
        self.budget = budget
        self._resident: "OrderedDict[int, dict]" = OrderedDict()
        self._spilled: Dict[int, Path] = {}
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        #: Spill files whose write-back was started and whose pages are still cached.
        self._written_back: "deque[Path]" = deque()
        self.peak_resident = 0
        self.evictions = 0
        self.spill_loads = 0

    # -- bookkeeping -------------------------------------------------------------

    @property
    def resident_count(self) -> int:
        """Snapshots currently held in memory."""
        return len(self._resident)

    @property
    def stateful_count(self) -> int:
        """Clients with any saved state, resident or spilled."""
        return len(self._resident) + len(self._spilled)

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._resident or client_id in self._spilled

    # -- spill plumbing ----------------------------------------------------------

    def _spill_path(self, client_id: int) -> Path:
        if self._spill_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-population-")
            self._spill_dir = Path(self._tmp.name)
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        return self._spill_dir / f"client-{client_id}.pkl"

    def _spill(self, client_id: int, snapshot: dict) -> None:
        path = self._spill_path(client_id)
        with path.open("wb") as handle:
            pickle.dump(snapshot, handle, protocol=pickle.HIGHEST_PROTOCOL)
        _release_page_cache(path)
        self._written_back.append(path)
        if len(self._written_back) > _WRITE_BACK_LAG:
            _release_page_cache(self._written_back.popleft())
        self._spilled[client_id] = path
        self.evictions += 1

    # -- the store interface -----------------------------------------------------

    def save(self, client_id: int, snapshot: dict) -> None:
        """Install the client's latest snapshot, evicting LRU beyond the budget."""
        client_id = int(client_id)
        stale = self._spilled.pop(client_id, None)
        if stale is not None:
            stale.unlink(missing_ok=True)
        self._resident[client_id] = snapshot
        self._resident.move_to_end(client_id)
        while self.budget is not None and len(self._resident) > self.budget:
            victim, victim_snapshot = self._resident.popitem(last=False)
            self._spill(victim, victim_snapshot)
        self.peak_resident = max(self.peak_resident, len(self._resident))

    def load(self, client_id: int) -> Optional[dict]:
        """The client's saved snapshot (``None`` for a never-bound client).

        A resident hit refreshes recency; a spilled snapshot is read back
        bit-exactly from disk (and stays on disk until the client's next
        :meth:`save` supersedes it).
        """
        client_id = int(client_id)
        snapshot = self._resident.get(client_id)
        if snapshot is not None:
            self._resident.move_to_end(client_id)
            return snapshot
        path = self._spilled.get(client_id)
        if path is None:
            return None
        with path.open("rb") as handle:
            snapshot = pickle.load(handle)
        self.spill_loads += 1
        return snapshot

    def evict(self, client_id: int) -> bool:
        """Force-spill one resident snapshot (test hook for eviction orders)."""
        client_id = int(client_id)
        snapshot = self._resident.pop(client_id, None)
        if snapshot is None:
            return False
        self._spill(client_id, snapshot)
        return True
