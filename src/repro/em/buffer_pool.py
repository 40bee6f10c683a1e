"""LRU buffer pool -- the "main memory" of the simulated EM model.

Every block access performed by an algorithm goes through the buffer pool.  A
block already resident in the pool is served without disk traffic (a *cache
hit*); otherwise the pool evicts the least-recently-used unpinned frame
(writing it back if dirty) and fetches the requested block from the
:class:`~repro.em.device.BlockDevice`, charging I/O on the device's counters.

The pool's capacity in frames is ``buffer_size / block_size`` -- the ``M/B``
memory blocks of the EM model -- so the experiments' "buffer size" knob
(Figures 13 and 15 of the paper) maps directly onto the pool capacity.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.em.device import BlockDevice
from repro.errors import StorageError

__all__ = ["BufferPool", "Frame"]


@dataclass(slots=True)
class Frame:
    """A buffer-pool frame holding one block image.

    ``data`` is immutable: a frame holds the device's own bytes after a
    read, and :meth:`BufferPool.put` replaces it whole, so readers decode
    it without copying.
    """

    block_id: int
    data: bytes
    dirty: bool = False
    pin_count: int = 0
    #: Monotonic access stamp, informational only (LRU order is kept by the
    #: pool's ordered dictionary).
    last_access: int = field(default=0)


class BufferPool:
    """A fixed-capacity LRU cache of disk blocks.

    Parameters
    ----------
    device:
        The simulated disk to fetch from and write back to.
    capacity_blocks:
        Number of frames; defaults to the device configuration's
        ``num_buffer_blocks`` (``M/B``).

    Notes
    -----
    *Pinning* prevents eviction while an algorithm holds a reference to the
    frame's data (e.g. the per-run input buffers of the external merge).  A
    request that cannot be satisfied because every frame is pinned raises
    :class:`~repro.errors.StorageError`, which in practice signals that an
    algorithm tried to use more memory than the EM model allows.
    """

    def __init__(self, device: BlockDevice, capacity_blocks: Optional[int] = None) -> None:
        self.device = device
        if capacity_blocks is None:
            capacity_blocks = device.config.num_buffer_blocks
        if capacity_blocks < 1:
            raise StorageError(f"buffer pool needs at least one frame, got {capacity_blocks}")
        self.capacity_blocks = capacity_blocks
        self._frames: "OrderedDict[int, Frame]" = OrderedDict()
        self._clock = 0

    # ------------------------------------------------------------------ #
    # Core access path
    # ------------------------------------------------------------------ #
    def get(self, block_id: int, *, pin: bool = False) -> Frame:
        """Return the frame for ``block_id``, fetching it from disk if needed.

        Parameters
        ----------
        block_id:
            The block to access.
        pin:
            When ``True`` the frame's pin count is incremented and the caller
            must later call :meth:`unpin`.
        """
        self._clock += 1
        frame = self._frames.get(block_id)
        if frame is not None:
            self._frames.move_to_end(block_id)
            self.device.stats.record_cache_hit()
        else:
            if len(self._frames) >= self.capacity_blocks:
                self._ensure_capacity()
            frame = Frame(block_id, self.device.read_block(block_id))
            self._frames[block_id] = frame
        frame.last_access = self._clock
        if pin:
            frame.pin_count += 1
        return frame

    def put(self, block_id: int, data: bytes, *, pin: bool = False) -> Frame:
        """Install new contents for ``block_id`` in the pool and mark it dirty.

        The write to disk is deferred until the frame is evicted or flushed,
        mirroring a write-back cache.  The caller does not pay a read for a
        block it fully overwrites.
        """
        self._clock += 1
        frame = self._frames.get(block_id)
        if frame is None:
            self._ensure_capacity()
            frame = Frame(block_id=block_id, data=bytes(data))
            self._frames[block_id] = frame
        else:
            frame.data = bytes(data)
            self._frames.move_to_end(block_id)
        frame.dirty = True
        frame.last_access = self._clock
        if pin:
            frame.pin_count += 1
        return frame

    def write_through(self, block_id: int, data: bytes) -> None:
        """Write ``data`` to disk as ``block_id`` and keep no frame for it.

        What :meth:`put`, :meth:`flush_block` and :meth:`invalidate` do in
        turn, in one call: a block that is not resident first makes room as
        :meth:`put` does (evicting the least recently used unpinned frame,
        written back if dirty), a resident one is dropped; then the block
        costs one write.
        """
        self._clock += 1
        if (self._frames.pop(block_id, None) is None
                and len(self._frames) >= self.capacity_blocks):
            self._ensure_capacity()
        self.device.write_block(block_id, data)

    def unpin(self, block_id: int) -> None:
        """Decrement the pin count of a resident block."""
        frame = self._frames.get(block_id)
        if frame is None:
            raise StorageError(f"cannot unpin non-resident block {block_id}")
        if frame.pin_count <= 0:
            raise StorageError(f"block {block_id} is not pinned")
        frame.pin_count -= 1

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def flush_block(self, block_id: int) -> None:
        """Write back one dirty resident block (no-op if clean or absent)."""
        frame = self._frames.get(block_id)
        if frame is not None and frame.dirty:
            self.device.write_block(block_id, frame.data)
            frame.dirty = False

    def flush(self) -> None:
        """Write back every dirty resident block."""
        for frame in self._frames.values():
            if frame.dirty:
                self.device.write_block(frame.block_id, frame.data)
                frame.dirty = False

    def evict_all(self) -> None:
        """Flush and drop every unpinned frame (used between experiment runs)."""
        self.flush()
        pinned = {bid: f for bid, f in self._frames.items() if f.pin_count > 0}
        self._frames = OrderedDict(pinned)

    def invalidate(self, block_id: int) -> None:
        """Drop a block from the pool without writing it back.

        Used when a temporary file is deleted: its cached contents are
        worthless and must not be counted as future cache hits.
        """
        self._frames.pop(block_id, None)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def resident_blocks(self) -> int:
        """Number of frames currently occupied."""
        return len(self._frames)

    def is_resident(self, block_id: int) -> bool:
        """Return ``True`` when ``block_id`` is currently cached."""
        return block_id in self._frames

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _ensure_capacity(self) -> None:
        """Evict LRU unpinned frames until there is room for one more block."""
        while len(self._frames) >= self.capacity_blocks:
            victim_id = self._find_victim()
            victim = self._frames.pop(victim_id)
            if victim.dirty:
                self.device.write_block(victim.block_id, victim.data)

    def _find_victim(self) -> int:
        for block_id, frame in self._frames.items():  # iteration order = LRU order
            if frame.pin_count == 0:
                return block_id
        raise StorageError(
            "buffer pool exhausted: all "
            f"{self.capacity_blocks} frames are pinned"
        )
