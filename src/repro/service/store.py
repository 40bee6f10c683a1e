"""Dataset registration for the resident query engine.

A serving system must not trust callers to keep their point lists alive or
unmodified, and it must be able to tell two datasets apart cheaply (the
result cache is keyed by dataset).  :class:`PointStore` therefore snapshots
every registered dataset into immutable, query-friendly form:

* the objects themselves, as a tuple (insertion order preserved -- exactness
  of the pruned sweep relies on re-solving subsets in a deterministic order);
* coordinate / weight :mod:`numpy` columns, pre-sorted views of the
  y-coordinates (used by the engine to reconstruct exact region boundaries
  after pruning), the bounding box and the total weight;
* a SHA-256 **fingerprint** of the packed ``(x, y, weight)`` columns
  (:func:`repro.persist.format.fingerprint_columns` -- the same identity the
  durable snapshot store verifies on load).  Two registrations of
  byte-identical data share one entry, and the fingerprint keys the result
  cache so cached answers can never leak across datasets;
* the dataset's grid index, built from its own columns by the store's
  ``index`` function before the entry is published, so a reader that sees
  the entry sees its grid (a replaced name never pairs new points with the
  old grid).

Datasets can also be registered straight from packed columns
(:meth:`PointStore.register_columns`) -- the warm-start path of
:mod:`repro.persist`.  Such entries materialise their
:class:`~repro.geometry.WeightedPoint` tuple lazily: a pruned query touches
only the points of its candidate cells, so a restarted service starts
answering before it has ever paid the per-object construction cost of the
full dataset.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServiceError
from repro.geometry import Rect, WeightedPoint
from repro.persist.format import fingerprint_columns, points_from_columns

__all__ = ["DatasetHandle", "RegisteredDataset", "PointStore"]


@dataclass(frozen=True, slots=True)
class DatasetHandle:
    """The public identity of a registered dataset.

    Attributes
    ----------
    dataset_id:
        The key used to address the dataset in engine calls (the caller's
        ``name``, or one derived from the fingerprint).
    fingerprint:
        Hex SHA-256 of the packed point data; keys the result cache.
    count:
        Number of objects in the snapshot.
    total_weight:
        Sum of the object weights.
    bounds:
        Minimum bounding rectangle of the objects, or ``None`` when empty.
    """

    dataset_id: str
    fingerprint: str
    count: int
    total_weight: float
    bounds: Optional[Rect]


class RegisteredDataset:
    """The internal snapshot behind a :class:`DatasetHandle`.

    The numpy columns are shared, never copied per query; treat them as
    read-only.  ``ys_sorted`` exists so the engine can compute, in
    ``O(n)`` vectorised time, the exact h-line that closes a pruned sweep's
    best strip (see :meth:`~repro.service.engine.MaxRSEngine.query`).
    ``grid`` is the dataset's grid index (``None`` for an empty dataset or
    a store without an ``index`` function).

    The object tuple is eager for datasets registered from objects and
    **lazy** for datasets registered from columns (snapshot warm-start):
    :meth:`subset` then builds only the points a pruned sweep actually
    touches, and the full tuple is materialised -- once -- only if a
    whole-dataset path (MaxkRS, an unpruned refine) needs it.
    """

    __slots__ = ("handle", "xs", "ys", "ws", "ys_sorted", "grid", "_objects")

    def __init__(self, handle: DatasetHandle, xs: np.ndarray, ys: np.ndarray,
                 ws: np.ndarray, ys_sorted: np.ndarray, grid=None,
                 objects: Optional[Tuple[WeightedPoint, ...]] = None) -> None:
        self.handle = handle
        self.xs = xs
        self.ys = ys
        self.ws = ws
        self.ys_sorted = ys_sorted
        self.grid = grid
        self._objects = objects

    @property
    def count(self) -> int:
        return self.handle.count

    @property
    def objects(self) -> Tuple[WeightedPoint, ...]:
        """The full object tuple (materialised from the columns on demand)."""
        if self._objects is None:
            self._objects = tuple(points_from_columns(self.xs, self.ys, self.ws))
        return self._objects

    def subset(self, indices: np.ndarray) -> List[WeightedPoint]:
        """Materialise the objects at ``indices`` (ascending original order)."""
        if self._objects is not None:
            objects = self._objects
            return [objects[i] for i in indices]
        return points_from_columns(self.xs, self.ys, self.ws, indices)

    def columns(self, indices: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The packed ``(xs, ys, ws)`` columns, optionally row-selected.

        With ``indices=None`` the shared full columns are returned (no copy;
        treat as read-only) -- what index construction consumes.  With the
        indices of a pruned subset it returns that subset's aligned columns,
        which the exact sweep consumes without materialising point
        objects.
        """
        if indices is None:
            return self.xs, self.ys, self.ws
        return self.xs[indices], self.ys[indices], self.ws[indices]


class PointStore:
    """Registry of immutable dataset snapshots, addressed by id.

    Registration is idempotent on content: registering byte-identical data
    (under the same or no name) returns the existing handle.  Reusing a name
    for *different* data raises :class:`~repro.errors.ServiceError` -- a
    resident service must never silently serve stale results for a name whose
    meaning changed; unregister first (or, at the engine level, register with
    ``replace=True``).

    ``index``, when given, builds each non-empty dataset's grid from its
    columns (see :class:`RegisteredDataset`); it runs outside the store's
    lock, before the entry is published, and not at all when the data is
    already registered under that id.
    """

    def __init__(self, index: Optional[Callable[
            [np.ndarray, np.ndarray, np.ndarray], object]] = None) -> None:
        self._lock = threading.Lock()
        self._by_id: Dict[str, RegisteredDataset] = {}
        self._index = index

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, objects: Sequence[WeightedPoint],
                 name: Optional[str] = None, *,
                 replace: bool = False) -> DatasetHandle:
        """Snapshot ``objects`` and return the handle addressing them.

        ``replace=True`` allows rebinding an existing ``name`` to different
        data (the entry is swapped only after the new data validates, so a
        rejected registration never loses the old dataset).
        """
        snapshot = tuple(objects)
        xs = np.fromiter((o.x for o in snapshot), dtype=np.float64, count=len(snapshot))
        ys = np.fromiter((o.y for o in snapshot), dtype=np.float64, count=len(snapshot))
        ws = np.fromiter((o.weight for o in snapshot), dtype=np.float64, count=len(snapshot))
        return self._register(xs, ys, ws, name=name, objects=snapshot,
                              replace=replace)

    def register_columns(self, xs: np.ndarray, ys: np.ndarray, ws: np.ndarray,
                         *, name: Optional[str] = None,
                         expected_fingerprint: Optional[str] = None
                         ) -> DatasetHandle:
        """Register a dataset straight from packed float64 columns.

        The warm-start path: no per-object Python cost is paid up front (the
        object tuple is lazy; see :class:`RegisteredDataset`).  When
        ``expected_fingerprint`` is given (a snapshot manifest's), a mismatch
        raises :class:`~repro.errors.ServiceError` before anything is
        registered, as do non-finite values and negative weights.
        """
        if not (len(xs) == len(ys) == len(ws)):
            raise ServiceError(
                f"column lengths differ: {len(xs)} x, {len(ys)} y, {len(ws)} weights"
            )
        # Always copy: the snapshot must stay immutable (and match its
        # fingerprint forever) even if the caller mutates the arrays later.
        xs = np.array(xs, dtype=np.float64)
        ys = np.array(ys, dtype=np.float64)
        ws = np.array(ws, dtype=np.float64)
        return self._register(xs, ys, ws, name=name,
                              expected_fingerprint=expected_fingerprint)

    def _register(self, xs: np.ndarray, ys: np.ndarray, ws: np.ndarray, *,
                  name: Optional[str],
                  objects: Optional[Tuple[WeightedPoint, ...]] = None,
                  expected_fingerprint: Optional[str] = None,
                  replace: bool = False) -> DatasetHandle:
        # The one-shot solvers tolerate infinite coordinates, but the grid
        # index cannot aggregate them (an infinite extent collapses every
        # cell computation); reject at the service boundary with a clear
        # error instead of failing deep inside numpy.
        if len(xs) and not (np.isfinite(xs).all() and np.isfinite(ys).all()
                            and np.isfinite(ws).all()):
            raise ServiceError(
                "datasets registered with the query service must have finite "
                "coordinates and weights"
            )
        # The grid's window sums bound a placement's weight only when no
        # weight is negative, or pruning may drop the optimum.  WeightedPoint
        # already rejects one; columns are checked here.
        if len(ws) and float(ws.min()) < 0.0:
            raise ServiceError(
                "datasets registered with the query service must have "
                f"non-negative weights, got {float(ws.min())}"
            )
        fingerprint = fingerprint_columns(xs, ys, ws)
        if expected_fingerprint is not None and fingerprint != expected_fingerprint:
            raise ServiceError(
                f"columns hash to fingerprint {fingerprint[:12]}..., expected "
                f"{expected_fingerprint[:12]}...; refusing to register "
                "mismatched snapshot data"
            )
        dataset_id = name if name is not None else f"ds-{fingerprint[:12]}"
        with self._lock:
            existing = self._existing(dataset_id, fingerprint, replace)
        if existing is not None:
            return existing
        bounds = None
        if len(xs):
            bounds = Rect(float(xs.min()), float(ys.min()),
                          float(xs.max()), float(ys.max()))
        handle = DatasetHandle(
            dataset_id=dataset_id,
            fingerprint=fingerprint,
            count=int(len(xs)),
            total_weight=float(ws.sum()),
            bounds=bounds,
        )
        grid = None
        if self._index is not None and len(xs):
            grid = self._index(xs, ys, ws)
        entry = RegisteredDataset(handle=handle, xs=xs, ys=ys, ws=ws,
                                  ys_sorted=np.sort(ys), grid=grid,
                                  objects=objects)
        with self._lock:
            # A concurrent registration may have taken the id meanwhile.
            existing = self._existing(dataset_id, fingerprint, replace)
            if existing is not None:
                return existing
            self._by_id[dataset_id] = entry
        return handle

    def _existing(self, dataset_id: str, fingerprint: str,
                  replace: bool) -> Optional[DatasetHandle]:
        """The handle already registered under ``dataset_id`` for this
        fingerprint, ``None`` when the id is free (or ``replace`` rebinds
        it); raises when the id holds different data.  Call under the lock.
        """
        existing = self._by_id.get(dataset_id)
        if existing is None:
            return None
        if existing.handle.fingerprint == fingerprint:
            return existing.handle
        if not replace:
            raise ServiceError(
                f"dataset id {dataset_id!r} is already registered with "
                f"different data: registered fingerprint is "
                f"{existing.handle.fingerprint}, the new data's is "
                f"{fingerprint}; unregister the id first (or use the "
                "engine's replace=True) instead of silently changing "
                "what a name means"
            )
        return None

    def unregister(self, dataset_id: str) -> None:
        """Forget a dataset; raises :class:`ServiceError` when unknown."""
        with self._lock:
            entry = self._by_id.pop(dataset_id, None)
        if entry is None:
            raise ServiceError(f"unknown dataset id {dataset_id!r}")

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(self, dataset_id: str) -> RegisteredDataset:
        """Return the snapshot registered under ``dataset_id``.

        Raises
        ------
        ServiceError
            When no dataset is registered under that id.
        """
        with self._lock:
            entry = self._by_id.get(dataset_id)
        if entry is None:
            raise ServiceError(
                f"unknown dataset id {dataset_id!r}; register the dataset first"
            )
        return entry

    def entries(self) -> List[RegisteredDataset]:
        """Every registered dataset (registration order)."""
        with self._lock:
            return list(self._by_id.values())

    def handles(self) -> List[DatasetHandle]:
        """Handles of every registered dataset (registration order)."""
        return [entry.handle for entry in self.entries()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)

    def __contains__(self, dataset_id: str) -> bool:
        with self._lock:
            return dataset_id in self._by_id
