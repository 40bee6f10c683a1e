"""The reference sweep backend: the pure-Python lazy segment tree.

This is the original :func:`repro.core.plane_sweep.sweep_events` behind the
:class:`~repro.core.backends.SweepBackend` protocol.  It is the semantic
reference the vectorised backend is property-tested against (see
``tests/test_core_backends.py``), and as a named backend it can stand in
for :func:`~repro.core.backends.platform_backend` in a whole solve (the
root ``conftest.py``'s ``pure_backend`` fixture) or a traced benchmark run.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.beststrip import BestStrip
from repro.core.plane_sweep import sweep_events
from repro.geometry import Interval

__all__ = ["PurePythonBackend"]


class PurePythonBackend:
    """Sweep backend delegating to the pure-Python plane sweep."""

    name = "pure"

    def sweep(self, event_records: Sequence[tuple],
              slab_range: Optional[Interval] = None) -> BestStrip:
        # The segment-tree sweep produces the slab-file as a by-product of
        # its per-h-line queries; only the best strip is returned.
        return sweep_events(_as_list(event_records), slab_range)[1]

    def sweep_slabs(self, slabs):
        """Sweep each ``(event_records, slab_range)`` on its own, in order."""
        return [sweep_events(_as_list(records), slab_range)
                for records, slab_range in slabs]


def _as_list(event_records):
    """The event records as :func:`sweep_events` takes them: an ``(n, 5)``
    array becomes a list of rows."""
    if hasattr(event_records, "tolist"):
        return event_records.tolist()
    return event_records
