"""Exception hierarchy for the ``repro`` package.

All exceptions raised by this library derive from :class:`ReproError`, so a
caller can guard any call into the library with a single ``except`` clause.
More specific subclasses indicate which subsystem detected the problem:

* :class:`ConfigurationError` -- invalid external-memory or experiment
  configuration (e.g. a buffer smaller than two blocks, violating the EM-model
  assumption ``M >= 2B``).
* :class:`StorageError` -- problems in the simulated storage layer
  (:mod:`repro.em`), such as reading a block that was never written.
* :class:`SerializationError` -- a record does not fit the fixed-size codec of
  the file it is being written to.
* :class:`GeometryError` -- degenerate geometric input (negative extents,
  empty intervals where a non-empty one is required, ...).
* :class:`AlgorithmError` -- an algorithm was invoked with inconsistent
  arguments (e.g. asking ``MergeSweep`` to merge zero slab-files).
* :class:`DatasetError` -- dataset generation or loading failed.
* :class:`ServiceError` -- the resident query service (:mod:`repro.service`)
  was misused (unknown dataset id, conflicting registrations, ...).
* :class:`ServiceOverloadError` -- the async serving front-end
  (:mod:`repro.aio`) refused to admit a request because the engine is at its
  concurrency limit and the admission queue is full; callers should back off
  and retry.
* :class:`ServiceDegradedError` -- degraded (bounded-error) serving was
  requested -- explicitly, or by the overloaded admission layer -- for a
  query that cannot express a certified optimality gap.
* :class:`PersistError` -- the durable snapshot store (:mod:`repro.persist`)
  found a corrupt, truncated, or incompatible snapshot (bad magic, checksum
  mismatch, fingerprint mismatch, unsupported catalog version, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "StorageError",
    "SerializationError",
    "GeometryError",
    "AlgorithmError",
    "DatasetError",
    "PersistError",
    "ServiceDegradedError",
    "ServiceError",
    "ServiceOverloadError",
]


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """Raised when an external-memory or experiment configuration is invalid."""


class StorageError(ReproError):
    """Raised by the simulated storage layer (:mod:`repro.em`)."""


class SerializationError(StorageError):
    """Raised when a record cannot be encoded into or decoded from a block."""


class GeometryError(ReproError):
    """Raised for degenerate or inconsistent geometric inputs."""


class AlgorithmError(ReproError):
    """Raised when an algorithm is invoked with inconsistent arguments."""


class DatasetError(ReproError):
    """Raised when dataset generation or loading fails."""


class ServiceError(ReproError):
    """Raised when the resident query service (:mod:`repro.service`) is misused."""


class ServiceOverloadError(ServiceError):
    """Raised when the async front-end (:mod:`repro.aio`) sheds a request.

    Admission control is load shedding, not misuse: the engine is healthy but
    already running ``max_inflight`` queries with ``max_queue`` more waiting.
    The request was **not** executed; callers should back off and retry (or
    configure the engine with ``overflow="wait"`` to queue instead).  A
    subclass of :class:`ServiceError` so existing service guards keep working.
    """


class ServiceDegradedError(ServiceError):
    """Raised when degraded (bounded-error) serving cannot satisfy a query.

    The async front-end can answer MaxRS/MaxCRS queries approximately under
    overload -- descending the grid pyramid only far enough to certify an
    optimality gap -- instead of shedding them.  Queries that cannot express a
    certified gap (MaxkRS, unrefined grid estimates) raise this instead, so
    callers can distinguish "retry later" (:class:`ServiceOverloadError`) from
    "this query cannot be degraded".  A :class:`ServiceError` subclass so
    existing guards keep working.
    """


class PersistError(StorageError):
    """Raised when a durable snapshot (:mod:`repro.persist`) is corrupt or unusable.

    A subclass of :class:`StorageError` because snapshots live on the storage
    layer; callers that already guard storage failures need no new handler.
    """
