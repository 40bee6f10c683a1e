"""Shared pieces of the baseline algorithms.

The two baselines of the paper's empirical study (Section 7.1) are
externalizations of the classical in-memory plane sweep, originally proposed
by Du et al. for optimal-location queries and applied to MaxRS here:

* the **naive plane sweep**, which keeps the sweep's interval structure as a
  flat disk file rescanned and rewritten at every event, and
* the **aSB-tree**, which keeps it as a disk-resident aggregate tree with
  logarithmic updates.

Both report the same optimum as ExactMaxRS; only their I/O cost differs,
which is precisely what Figures 12--16 compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.em.counters import IOSnapshot

__all__ = ["BaselineResult", "SimulatedLRUCache"]


@dataclass(frozen=True, slots=True)
class BaselineResult:
    """Outcome of a baseline MaxRS run.

    Attributes
    ----------
    total_weight:
        The maximum covered weight found (identical to ExactMaxRS's answer).
    io:
        Block transfers charged to the run.
    best_x1, best_x2, best_y:
        Where the maximum was first attained during the sweep: an x-interval
        and the y-coordinate of the event that produced it (diagnostic only;
        the baselines' purpose in the study is their I/O cost).
    events_processed:
        Number of sweep events consumed.
    simulated:
        ``True`` when the run used the I/O-faithful simulation mode: the
        block transfers are charged exactly as the real implementation
        would incur them, while the CPU-side bookkeeping uses an in-memory
        mirror so that paper-scale parameter sweeps finish in reasonable
        wall-clock time.
    """

    total_weight: float
    io: Optional[IOSnapshot]
    best_x1: float = -math.inf
    best_x2: float = math.inf
    best_y: float = -math.inf
    events_processed: int = 0
    simulated: bool = False


class SimulatedLRUCache:
    """A counting model of the buffer pool used by the simulation modes.

    The simulation modes of the baselines do not move real blocks through the
    :class:`~repro.em.buffer_pool.BufferPool`; instead they charge reads and
    writes against the same :class:`~repro.em.counters.IOStats` while modelling
    residency with this LRU set, so the effect of the buffer size (Figures 13
    and 15) is preserved.

    Parameters
    ----------
    capacity:
        Number of blocks that fit in the modelled buffer.
    stats:
        The I/O counters to charge.
    """

    def __init__(self, capacity: int, stats) -> None:
        from collections import OrderedDict

        if capacity < 1:
            capacity = 1
        self.capacity = capacity
        self.stats = stats
        self._resident: "OrderedDict[object, bool]" = OrderedDict()

    def access(self, key: object, *, dirty: bool) -> None:
        """Model one logical block access.

        A miss charges a read (plus a write-back when the evicted block was
        dirty); a hit only refreshes recency.  ``dirty`` marks the block as
        modified so its eventual eviction costs a write.
        """
        if key in self._resident:
            was_dirty = self._resident.pop(key)
            self._resident[key] = was_dirty or dirty
            self.stats.record_cache_hit()
            return
        if len(self._resident) >= self.capacity:
            _, victim_dirty = self._resident.popitem(last=False)
            if victim_dirty:
                self.stats.record_write()
        self.stats.record_read()
        self._resident[key] = dirty

    def flush(self) -> None:
        """Charge the write-back of every dirty resident block."""
        for dirty in self._resident.values():
            if dirty:
                self.stats.record_write()
        self._resident.clear()
