"""Unit tests for :mod:`repro.em.record_file`."""

import numpy as np
import pytest

from repro.em import OBJECT_CODEC, StructRecordCodec
from repro.errors import SerializationError, StorageError


@pytest.fixture
def small_codec():
    return StructRecordCodec("<dd")  # 16 bytes -> 32 records per 512-byte block


def _records(count):
    return [(float(i), float(i * 2)) for i in range(count)]


class TestWriteAndRead:
    def test_empty_file(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        assert len(file) == 0
        assert file.read_all() == []

    def test_roundtrip_less_than_one_block(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        file.write_all(_records(5))
        assert file.read_all() == _records(5)
        assert file.num_blocks == 1

    def test_roundtrip_many_blocks(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        file.write_all(_records(100))
        assert file.read_all() == _records(100)
        assert file.num_blocks == (100 + file.records_per_block - 1) // file.records_per_block

    def test_records_per_block_derived_from_config(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        assert file.records_per_block == 512 // 16

    def test_iteration_protocol(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        file.write_all(_records(40))
        assert list(file) == _records(40)

    def test_write_cost_is_one_write_per_block(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        tiny_ctx.reset_io()
        file.write_all(_records(96))  # exactly 3 blocks of 32
        tiny_ctx.pool.flush()
        assert tiny_ctx.stats.block_writes == 3

    def test_sequential_read_cost_is_one_read_per_block(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        file.write_all(_records(96))
        tiny_ctx.clear_cache()
        tiny_ctx.reset_io()
        file.read_all()
        assert tiny_ctx.stats.block_reads == 3

    def test_rereading_cached_file_is_free(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        file.write_all(_records(64))
        file.read_all()
        tiny_ctx.stats.reset()
        file.read_all()
        assert tiny_ctx.stats.block_reads == 0


class TestRandomAccess:
    def test_read_block_records(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        file.write_all(_records(70))
        per_block = file.records_per_block
        assert file.read_block_records(0) == _records(70)[:per_block]
        assert file.read_block_records(2) == _records(70)[2 * per_block:]

    def test_read_block_out_of_range(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        file.write_all(_records(10))
        with pytest.raises(StorageError):
            file.read_block_records(5)


class TestWriterSemantics:
    def test_writer_context_manager_flushes_partial_block(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        with file.writer() as writer:
            writer.append((1.0, 2.0))
        assert len(file) == 1

    def test_append_after_close_rejected(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        writer = file.writer()
        writer.close()
        with pytest.raises(StorageError):
            writer.append((1.0, 2.0))

    def test_appending_after_partial_block_rejected(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        file.write_all(_records(3))  # partial last block
        with pytest.raises(StorageError):
            file.writer()

    def test_appending_after_full_block_allowed(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        file.write_all(_records(32))  # exactly one full block
        file.write_all(_records(5))
        assert len(file) == 37

    def test_reader_peek(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        file.write_all(_records(3))
        reader = file.reader()
        assert reader.peek() == (0.0, 0.0)
        assert next(reader) == (0.0, 0.0)
        assert reader.peek() == (1.0, 2.0)

    def test_peek_at_eof_returns_none(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        assert file.reader().peek() is None


class TestDeletion:
    def test_delete_releases_blocks(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        file.write_all(_records(64))
        allocated_before = tiny_ctx.device.num_allocated_blocks
        file.delete()
        assert tiny_ctx.device.num_allocated_blocks == allocated_before - 2
        assert len(file) == 0

    def test_read_after_delete_rejected(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        file.write_all(_records(4))
        file.delete()
        with pytest.raises(StorageError):
            file.reader()

    def test_double_delete_is_noop(self, tiny_ctx, small_codec):
        file = tiny_ctx.create_file(small_codec)
        file.write_all(_records(4))
        file.delete()
        file.delete()

    def test_object_codec_file_roundtrip(self, tiny_ctx):
        file = tiny_ctx.create_file(OBJECT_CODEC)
        records = [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)]
        file.write_all(records)
        assert file.read_all() == records


class TestBlockArrays:
    """Whole blocks as float64 arrays: same bytes, same charges."""

    @pytest.mark.parametrize("count", [0, 1, 11, 12, 13, 40])
    @pytest.mark.parametrize("chunks", [1, 3, 7])
    def test_append_rows_matches_record_appends(self, tiny_ctx, count,
                                                chunks):
        from repro.em import EVENT_CODEC, MAX_INTERVAL_CODEC

        for codec in (MAX_INTERVAL_CODEC, EVENT_CODEC):
            fields = codec.float64_fields
            values = np.arange(count * fields, dtype=np.float64) / 4.0 - 3.0
            rows = values.reshape(count, fields)
            if count:
                rows[0, 0] = -np.inf
                rows[-1, -1] = np.inf
            records = [tuple(row) for row in rows.tolist()]

            before = tiny_ctx.stats.snapshot()
            by_record = tiny_ctx.create_file(codec)
            with by_record.writer() as writer:
                for record in records:
                    writer.append(record)
            record_io = tiny_ctx.io_since(before)

            before = tiny_ctx.stats.snapshot()
            by_rows = tiny_ctx.create_file(codec)
            with by_rows.writer() as writer:
                # Uneven pieces, so appends start mid-block.
                for piece in np.array_split(rows, chunks):
                    writer.append_rows(piece)
            rows_io = tiny_ctx.io_since(before)

            assert rows_io == record_io
            assert by_rows.num_records == by_record.num_records == count
            assert [tiny_ctx.device.peek(b) for b in by_rows.block_ids] == \
                [tiny_ctx.device.peek(b) for b in by_record.block_ids]

            tiny_ctx.clear_cache()
            before = tiny_ctx.stats.snapshot()
            arrays = [by_rows.read_block_array(i)
                      for i in range(by_rows.num_blocks)]
            array_io = tiny_ctx.io_since(before)
            tiny_ctx.clear_cache()
            before = tiny_ctx.stats.snapshot()
            assert by_record.read_all() == records
            assert tiny_ctx.io_since(before) == array_io
            assert array_io.block_reads == by_rows.num_blocks
            got = [tuple(r) for a in arrays for r in a.tolist()]
            assert got == records

    def test_mixed_record_and_row_appends_keep_order(self, tiny_ctx):
        from repro.em import MAX_INTERVAL_CODEC

        file = tiny_ctx.create_file(MAX_INTERVAL_CODEC)
        with file.writer() as writer:
            writer.append((0.0, 1.0, 2.0, 3.0))
            writer.append_rows(np.ones((20, 4)))
            writer.append((4.0, 5.0, 6.0, 7.0))
        records = file.read_all()
        assert records[0] == (0.0, 1.0, 2.0, 3.0)
        assert records[1:21] == [(1.0,) * 4] * 20
        assert records[21] == (4.0, 5.0, 6.0, 7.0)

    def test_array_paths_need_float64_records(self, tiny_ctx):
        from repro.em import MAX_INTERVAL_CODEC
        from repro.errors import SerializationError

        mixed = StructRecordCodec("<dq")   # a double and an int64
        assert mixed.float64_fields is None
        file = tiny_ctx.create_file(mixed)
        file.write_all([(float(i), i) for i in range(3)])
        with pytest.raises(SerializationError):
            file.read_block_array(0)
        with pytest.raises(SerializationError):
            file.read_rows()
        with pytest.raises(SerializationError):
            tiny_ctx.create_file(mixed).writer().append_rows(np.zeros((1, 2)))
        wide = tiny_ctx.create_file(MAX_INTERVAL_CODEC)
        with pytest.raises(SerializationError):
            wide.writer().append_rows(np.zeros((2, 5)))

    def test_write_all_packs_lists_and_arrays_like_records(self, tiny_ctx):
        from repro.em import EVENT_CODEC

        rows = np.arange(37 * 5, dtype=np.float64).reshape(37, 5) - 90.0
        rows[3, 2] = -0.0
        records = [tuple(r) for r in rows.tolist()]
        by_record = tiny_ctx.create_file(EVENT_CODEC)
        with by_record.writer() as writer:
            for record in records:
                writer.append(record)
        for source in (records, rows, iter(records)):
            file = tiny_ctx.create_file(EVENT_CODEC).write_all(source)
            assert [tiny_ctx.device.peek(b) for b in file.block_ids] == \
                [tiny_ctx.device.peek(b) for b in by_record.block_ids]
        with pytest.raises(SerializationError):
            tiny_ctx.create_file(EVENT_CODEC).write_all([(1.0, 2.0)])

    def test_read_rows_and_block_arrays(self, tiny_ctx):
        from repro.em import MAX_INTERVAL_CODEC

        records = [(float(i), -float(i), 0.5, 2.0) for i in range(40)]
        file = tiny_ctx.create_file(MAX_INTERVAL_CODEC).write_all(records)
        assert file.num_blocks == 3
        tiny_ctx.clear_cache()
        start = tiny_ctx.stats.snapshot()
        blocks = file.iter_block_arrays()
        first = next(blocks)               # read lazily, one per step
        assert tiny_ctx.stats.since(start).block_reads == 1
        assert [len(first)] + [len(b) for b in blocks] == [16, 16, 8]
        tiny_ctx.clear_cache()
        rows = file.read_rows()
        assert rows.dtype == np.float64 and rows.shape == (40, 4)
        assert [tuple(r) for r in rows.tolist()] == records
        empty = tiny_ctx.create_file(MAX_INTERVAL_CODEC)
        assert empty.read_rows().shape == (0, 4)
        assert empty.read_blocks() == []

    def test_read_blocks_and_reread_block(self, tiny_ctx):
        from repro.em import MAX_INTERVAL_CODEC

        records = [(float(i), -float(i), 0.5, 2.0) for i in range(40)]
        file = tiny_ctx.create_file(MAX_INTERVAL_CODEC).write_all(records)
        tiny_ctx.clear_cache()
        start = tiny_ctx.stats.snapshot()
        blocks = file.read_blocks()
        assert tiny_ctx.stats.since(start).block_reads == 3
        assert [len(b) for b in blocks] == [16, 16, 8]
        assert [tuple(r) for b in blocks for r in b.tolist()] == records
        # A re-read is a get like any read: a hit while the block is
        # resident, a charged read after it left the pool.
        hits = tiny_ctx.stats.cache_hits
        file.reread_block(2)
        assert tiny_ctx.stats.cache_hits == hits + 1
        tiny_ctx.clear_cache()
        start = tiny_ctx.stats.snapshot()
        file.reread_block(0)
        assert tiny_ctx.stats.since(start).block_reads == 1
        assert tiny_ctx.pool.is_resident(file.block_ids[0])
        with pytest.raises(StorageError):
            file.reread_block(3)

    def test_array_reads_of_a_deleted_file_are_rejected(self, tiny_ctx):
        from repro.em import MAX_INTERVAL_CODEC

        file = tiny_ctx.create_file(MAX_INTERVAL_CODEC)
        file.write_all([(1.0, 2.0, 3.0, 4.0)])
        file.delete()
        with pytest.raises(StorageError):
            file.read_rows()
        with pytest.raises(StorageError):
            next(file.iter_block_arrays())
        with pytest.raises(StorageError):
            file.read_blocks()
        with pytest.raises(StorageError):
            file.reread_block(0)
