"""Unit tests for :mod:`repro.em.buffer_pool`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.em import BlockDevice, BufferPool, EMConfig
from repro.errors import StorageError


@pytest.fixture
def device():
    return BlockDevice(EMConfig(block_size=64, buffer_size=4 * 64))


@pytest.fixture
def pool(device):
    return BufferPool(device, capacity_blocks=3)


def _write_through_device(device, payload=b"payload"):
    block = device.allocate()
    device.write_block(block, payload)
    return block


class TestBasicCaching:
    def test_first_get_reads_from_disk(self, device, pool):
        block = _write_through_device(device)
        device.stats.reset()
        frame = pool.get(block)
        assert bytes(frame.data) == b"payload"
        assert device.stats.block_reads == 1

    def test_frames_hold_the_blocks_bytes_uncopied(self, device, pool):
        # A missed block's frame is the device's immutable block image, and
        # a written frame goes back to the device as is.
        block = _write_through_device(device)
        assert pool.get(block).data is device.peek(block)
        payload = b"rewritten"
        pool.put(block, payload)
        pool.flush_block(block)
        assert pool.get(block).data is payload is device.peek(block)

    def test_second_get_is_a_cache_hit(self, device, pool):
        block = _write_through_device(device)
        pool.get(block)
        device.stats.reset()
        pool.get(block)
        assert device.stats.block_reads == 0
        assert device.stats.cache_hits == 1

    def test_capacity_must_be_positive(self, device):
        with pytest.raises(StorageError):
            BufferPool(device, capacity_blocks=0)

    def test_default_capacity_from_config(self, device):
        assert BufferPool(device).capacity_blocks == device.config.num_buffer_blocks


class TestWriteBack:
    def test_put_defers_the_disk_write(self, device, pool):
        block = device.allocate()
        device.stats.reset()
        pool.put(block, b"dirty")
        assert device.stats.block_writes == 0
        pool.flush()
        assert device.stats.block_writes == 1
        assert device.peek(block) == b"dirty"

    def test_flush_is_idempotent(self, device, pool):
        block = device.allocate()
        pool.put(block, b"dirty")
        pool.flush()
        writes = device.stats.block_writes
        pool.flush()
        assert device.stats.block_writes == writes

    def test_eviction_writes_back_dirty_victim(self, device, pool):
        dirty = device.allocate()
        pool.put(dirty, b"dirty")
        device.stats.reset()
        # Fill the pool with three more blocks to force eviction of `dirty`.
        for _ in range(3):
            pool.get(_write_through_device(device))
        assert device.peek(dirty) == b"dirty"
        assert device.stats.block_writes >= 1


class TestEvictionPolicy:
    def test_lru_victim_is_least_recently_used(self, device, pool):
        blocks = [_write_through_device(device, bytes([i])) for i in range(3)]
        for block in blocks:
            pool.get(block)
        pool.get(blocks[0])              # refresh block 0; block 1 is now LRU
        newcomer = _write_through_device(device)
        pool.get(newcomer)               # evicts block 1
        assert pool.is_resident(blocks[0])
        assert not pool.is_resident(blocks[1])
        assert pool.is_resident(blocks[2])

    def test_pinned_frames_are_not_evicted(self, device, pool):
        pinned = _write_through_device(device)
        pool.get(pinned, pin=True)
        others = [_write_through_device(device) for _ in range(3)]
        for block in others:
            pool.get(block)
        assert pool.is_resident(pinned)
        pool.unpin(pinned)

    def test_all_pinned_raises(self, device, pool):
        for _ in range(3):
            pool.get(_write_through_device(device), pin=True)
        with pytest.raises(StorageError):
            pool.get(_write_through_device(device))

    def test_unpin_requires_pinned_frame(self, device, pool):
        block = _write_through_device(device)
        pool.get(block)
        with pytest.raises(StorageError):
            pool.unpin(block)

    def test_unpin_non_resident_rejected(self, pool):
        with pytest.raises(StorageError):
            pool.unpin(999)


class TestInvalidation:
    def test_invalidate_drops_without_writeback(self, device, pool):
        block = device.allocate()
        device.write_block(block, b"old")
        pool.put(block, b"new")
        pool.invalidate(block)
        pool.flush()
        assert device.peek(block) == b"old"

    def test_evict_all_flushes_and_clears(self, device, pool):
        block = device.allocate()
        pool.put(block, b"data")
        pool.evict_all()
        assert pool.resident_blocks == 0
        assert device.peek(block) == b"data"

    def test_resident_blocks_counter(self, device, pool):
        assert pool.resident_blocks == 0
        pool.get(_write_through_device(device))
        assert pool.resident_blocks == 1


def _pool_state(pool):
    """Frames in LRU order with their contents and flags, the clock, the
    device's counters and blocks."""
    device = pool.device
    frames = [(block_id, bytes(frame.data), frame.dirty, frame.pin_count,
               frame.last_access) for block_id, frame in pool._frames.items()]
    return (frames, pool._clock,
            (device.stats.block_reads, device.stats.block_writes,
             device.stats.cache_hits),
            dict(device._blocks), device._next_id, list(device._free_ids))


class TestWriteThrough:
    """``write_through`` leaves what ``put``, ``flush_block`` and
    ``invalidate`` leave, in any state the pool can be in."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("gpuwn"), st.integers(0, 5)),
                    max_size=60),
           st.integers(1, 4))
    def test_same_state_as_put_flush_invalidate(self, ops, capacity):
        pools = []
        for _ in range(2):
            device = BlockDevice(EMConfig(block_size=64, buffer_size=4 * 64))
            for k in range(6):
                device.write_block(device.allocate(), bytes([k]))
            pools.append(BufferPool(device, capacity_blocks=capacity))
        for step, (op, block) in enumerate(ops):
            outcomes = []
            for through, pool in enumerate(pools):
                try:
                    if op == "g":
                        pool.get(block)
                    elif op == "p":
                        pool.put(block, bytes([step]))
                    elif op == "u":   # pin, or unpin a pinned frame
                        frame = pool._frames.get(block)
                        if frame is not None and frame.pin_count:
                            pool.unpin(block)
                        else:
                            pool.get(block, pin=True)
                    else:   # "w": an existing block, "n": a new one
                        if op == "n":
                            block = pool.device.allocate()
                        payload = bytes([100 + step % 100])
                        if through:
                            pool.write_through(block, payload)
                        else:
                            pool.put(block, payload)
                            pool.flush_block(block)
                            pool.invalidate(block)
                    outcomes.append(None)
                except StorageError as exc:   # every frame pinned
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert _pool_state(pools[0]) == _pool_state(pools[1])
