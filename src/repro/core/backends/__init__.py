"""Pluggable execution backends for the in-memory plane sweep.

The in-memory sweep is the hot loop of the whole reproduction: it is the base
case of the ExactMaxRS recursion and the refine stage of the resident query
engine.  This package separates the sweep's *contract* from its *execution
strategy*, the way hybrid-engine systems keep one logical operator with
several specialised implementations:

* :class:`SweepBackend` -- the protocol: event records in; ``sweep``
  returns the best strip of one slab, ``sweep_slabs`` the slab-files and
  best strips of many slabs at once (ExactMaxRS sweeps its sibling leaves
  so) -- between them, what :func:`repro.core.plane_sweep.sweep_events`
  returns;
* :class:`~repro.core.backends.pure.PurePythonBackend` -- the reference
  implementation, a lazy segment tree in pure Python;
* :class:`~repro.core.backends.numpy_backend.NumpySweepBackend` -- a
  numpy-vectorised sweep (chunked difference-array profile maintenance).

Every solve of the library sweeps on :func:`platform_backend`, the numpy
sweep.  It is at least as fast from about 20 points (40 events) up, and
every sweep of the library that small costs well under a millisecond
either way, so the choice does not depend on the input.  The reference
runs where a test or benchmark swaps it in (the root ``conftest.py``'s
``pure_backend`` fixture); the naive baseline's simulated sweep calls its
:func:`~repro.core.plane_sweep.sweep_events` directly.

Determinism contract
--------------------
Both backends compute the same elementary cells, the same leftmost argmax
and the same maximal-run extension rule, so whenever every intermediate
location-weight sum is exactly representable in an IEEE-754 double (always
true for integer-valued weights up to 2**53), their slab-files and results
are **bit-identical**.  For weights whose partial sums round, answers agree
up to floating-point associativity of the profile sums; the property tests
pin the exact case.

One choice is left to each backend: of equal cell borders ``0.0`` and
``-0.0`` a slab keeps one.  Numpy keeps the first in the order slab
borders, clipped ``x1``s, clipped ``x2``s, so its ``sweep`` and
``sweep_slabs`` agree bit for bit, whatever the other slabs of a batch;
pure keeps the first its boundary list received.  Such borders compare
equal but may differ in sign across backends.  Dual rectangles of objects
never have a ``-0.0`` edge (``x - w/2`` and ``x + w/2`` are not ``-0.0``
for a half-width ``w/2 > 0``), so only raw event rows can show it.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple

from repro.core.beststrip import BestStrip
from repro.errors import ConfigurationError
from repro.geometry import Interval

__all__ = [
    "SweepBackend",
    "SweepRecord",
    "SweepOutput",
    "auto_crossover",
    "available_backends",
    "get_backend",
    "platform_backend",
]

SweepRecord = Tuple[float, ...]

#: (slab-file records, best strip) -- one slab's output of ``sweep_slabs``.
SweepOutput = Tuple[Sequence[SweepRecord], BestStrip]

class SweepBackend(Protocol):
    """The contract every sweep backend implements.

    A backend is a drop-in execution strategy for
    :func:`repro.core.plane_sweep.sweep_events`: it receives the flat event
    records ``(y, kind, x1, x2, weight)`` of a slab's dual rectangles -- as
    tuples, as the ``(n, 5)`` float64 array ExactMaxRS's leaves read from
    their event files, or as the engine's
    :class:`~repro.core.transform.ColumnEvents`, which give either on
    demand -- and sweeps them.  ``sweep`` returns the best strip only;
    ``sweep_slabs`` is the one entry point for slab-files.
    """

    #: Stable identifier used by :func:`get_backend`, spans and metrics.
    name: str

    def sweep(self, event_records: Sequence[SweepRecord],
              slab_range: Optional[Interval] = None) -> BestStrip:
        """The best strip of the sweep of one slab (``None``: the whole
        real line); the caller gets no slab-file, so none need be built."""
        ...

    def sweep_slabs(self, slabs: Sequence[Tuple[Sequence[SweepRecord],
                                                Optional[Interval]]]
                    ) -> List[SweepOutput]:
        """Sweep many slabs: ``(event_records, slab_range)`` pairs.

        Returns one ``(slab-file rows, best strip)`` per slab, in order,
        each what :func:`~repro.core.plane_sweep.sweep_events` returns for
        that slab alone: one ``(y, x1, x2, sum)`` row per distinct event
        y-coordinate, ascending.  The rows may be tuples or an ``(h, 4)``
        float64 array; :meth:`~repro.em.record_file.RecordFile.write_all`
        takes both.
        """
        ...


def auto_crossover() -> int:
    """Event count from which :func:`platform_backend` picks numpy: always 0.

    Numpy runs whatever the sweep's size.  Kept for callers that still
    report the old size threshold.
    """
    return 0


def available_backends() -> Tuple[str, ...]:
    """Names of the backends, reference first."""
    return ("pure", "numpy")


def get_backend(name: str) -> SweepBackend:
    """Return a backend instance by name.

    Raises
    ------
    ConfigurationError
        For unknown names.
    """
    if name == "pure":
        from repro.core.backends.pure import PurePythonBackend

        return PurePythonBackend()
    if name == "numpy":
        from repro.core.backends.numpy_backend import NumpySweepBackend

        return NumpySweepBackend()
    raise ConfigurationError(
        f"unknown sweep backend {name!r}; expected 'pure' or 'numpy'"
    )


def platform_backend() -> SweepBackend:
    """The backend every sweep of the library runs on: numpy.

    The solvers and the engine call this when they sweep, through the
    module attribute, so replacing the attribute (as the tests do to run
    the reference) reaches every sweep.
    """
    return get_backend("numpy")
