"""The reference sweep backend: the pure-Python lazy segment tree.

This is the original :func:`repro.core.plane_sweep.sweep_events` behind the
:class:`~repro.core.backends.SweepBackend` protocol.  It exists as a named
backend for three reasons:

* it is always available (no third-party dependency), so ``"auto"``
  falls back to it when numpy does not import;
* it is the semantic reference the vectorised backends are property-tested
  against (see ``tests/test_core_backends.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.plane_sweep import sweep_events
from repro.geometry import Interval

__all__ = ["PurePythonBackend"]


class PurePythonBackend:
    """Sweep backend delegating to the pure-Python plane sweep."""

    name = "pure"

    def sweep(self, event_records: Sequence[tuple],
              slab_range: Optional[Interval] = None, *,
              include_records: bool = True):
        # The segment-tree sweep produces its tuples as a by-product of the
        # per-h-line queries, so there is nothing to save when the caller
        # only wants the best strip; ``include_records`` is accepted for
        # protocol compatibility.
        if hasattr(event_records, "tolist"):   # an (n, 5) array of rows
            event_records = event_records.tolist()
        return sweep_events(event_records, slab_range)

    def sweep_slabs(self, slabs):
        """Sweep each ``(event_records, slab_range)`` on its own, in order."""
        return [self.sweep(records, slab_range)
                for records, slab_range in slabs]
