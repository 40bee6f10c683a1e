"""Two names the benchmark harness still imports from here.

The engine serves every dataset from one
:class:`~repro.service.grid_index.GridIndex` on the calling thread; the
sharded grid index that lived in this module is gone.  ``perfbench/`` may
not change alongside the program, so this module keeps what it uses:

* :func:`effective_cpu_count` -- ``perfbench/workloads.py`` lines 50 and 158
  report it as the host's core count;
* ``ShardedGridIndex`` -- ``perfbench/tracing.py`` line 166 wraps
  ``__init__`` and ``points_in_mask`` on this name, so it is the one grid
  class.

ROADMAP.md item 4 (the perfbench clean-up) deletes this module.
"""

from __future__ import annotations

import os

from repro.service.grid_index import GridIndex

__all__ = ["ShardedGridIndex", "effective_cpu_count"]

ShardedGridIndex = GridIndex


def effective_cpu_count() -> int:
    """Cores this process may run on (its CPU affinity set, if known)."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return max(1, os.cpu_count() or 1)
