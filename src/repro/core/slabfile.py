"""Disk-resident slab-files.

A *slab-file* (Section 5.2.2) is the y-sorted sequence of max-interval tuples
that summarises the solution of one sub-problem of the ExactMaxRS recursion.
On the simulated disk it is simply a :class:`~repro.em.record_file.RecordFile`
of ``(y, x1, x2, sum)`` records; this module provides the helpers the tests
use to create and validate them.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro.em.codecs import MAX_INTERVAL_CODEC
from repro.em.context import EMContext
from repro.em.record_file import RecordFile
from repro.errors import AlgorithmError

__all__ = ["write_slab_file", "validate_slab_file_records"]

Record = Tuple[float, ...]


def write_slab_file(ctx: EMContext, records: Iterable[Record],
                    name: str = "slab-file") -> RecordFile:
    """Write max-interval records (already sorted by y) to a new slab-file."""
    file = ctx.create_file(MAX_INTERVAL_CODEC, name=name)
    file.write_all(records)
    return file


def validate_slab_file_records(records: Sequence[Record]) -> None:
    """Check the structural invariants of a slab-file.

    * tuples are sorted by strictly increasing y;
    * every tuple has a well-formed x-range (``x1 <= x2``);
    * sums are non-negative (weights are non-negative in MaxRS).

    Raises
    ------
    AlgorithmError
        If any invariant is violated.
    """
    previous_y = None
    for record in records:
        y, x1, x2, total = record
        if previous_y is not None and y <= previous_y:
            raise AlgorithmError(
                f"slab-file tuples not strictly increasing in y: {previous_y} then {y}"
            )
        if x2 < x1:
            raise AlgorithmError(f"slab-file tuple has inverted x-range: {record}")
        if total < 0:
            raise AlgorithmError(f"slab-file tuple has negative sum: {record}")
        previous_y = y
