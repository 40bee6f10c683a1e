"""Unit tests for :mod:`repro.em.external_sort`."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import record_passes
from external_cases import pool_state
from repro.em import (EVENT_CODEC, EMConfig, EMContext, ExternalSorter,
                      StructRecordCodec, external_sort)
from repro.errors import SerializationError


@pytest.fixture
def codec():
    return StructRecordCodec("<dd")


def _shuffled(count, seed=0):
    rng = random.Random(seed)
    records = [(float(i), float(-i)) for i in range(count)]
    rng.shuffle(records)
    return records


class TestExternalSort:
    def test_sort_empty_file(self, tiny_ctx, codec):
        file = tiny_ctx.create_file(codec)
        result = external_sort(tiny_ctx, file, codec)
        assert result.read_all() == []

    def test_sort_single_block(self, tiny_ctx, codec):
        file = tiny_ctx.create_file(codec)
        file.write_all(_shuffled(10))
        result = external_sort(tiny_ctx, file, codec)
        assert result.read_all() == sorted(_shuffled(10))

    def test_sort_many_runs(self, tiny_ctx, codec):
        # 2000 records of 16 bytes = 32000 bytes >> 4 KB buffer: multiple runs
        # and at least one multiway merge level.
        records = _shuffled(2000, seed=3)
        file = tiny_ctx.create_file(codec)
        file.write_all(records)
        result = external_sort(tiny_ctx, file, codec)
        assert result.read_all() == sorted(records)

    def test_sort_preserves_record_count_and_multiset(self, tiny_ctx, codec):
        records = [(float(random.Random(9).randint(0, 5)), 0.0) for _ in range(300)]
        file = tiny_ctx.create_file(codec)
        file.write_all(records)
        result = external_sort(tiny_ctx, file, codec)
        assert sorted(result.read_all()) == sorted(records)
        assert len(result) == len(records)

    def test_delete_input_releases_original(self, tiny_ctx, codec):
        file = tiny_ctx.create_file(codec)
        file.write_all(_shuffled(100))
        external_sort(tiny_ctx, file, codec, delete_input=True)
        assert len(file) == 0

    def test_input_preserved_by_default(self, tiny_ctx, codec):
        records = _shuffled(100)
        file = tiny_ctx.create_file(codec)
        file.write_all(records)
        external_sort(tiny_ctx, file, codec)
        assert file.read_all() == records

    def test_temporary_runs_are_cleaned_up(self, tiny_ctx, codec):
        file = tiny_ctx.create_file(codec)
        file.write_all(_shuffled(2000, seed=7))
        before_blocks = tiny_ctx.device.num_allocated_blocks
        result = external_sort(tiny_ctx, file, codec)
        # Only the input and the sorted output remain allocated.
        assert tiny_ctx.device.num_allocated_blocks == before_blocks + result.num_blocks

    def test_io_cost_is_a_few_linear_passes(self, tiny_ctx, codec):
        records = _shuffled(4000, seed=11)
        file = tiny_ctx.create_file(codec)
        file.write_all(records)
        blocks = file.num_blocks
        tiny_ctx.clear_cache()
        tiny_ctx.reset_io()
        external_sort(tiny_ctx, file, codec)
        total = tiny_ctx.stats.total_ios
        # Sorting should cost a small constant number of linear passes
        # (run formation + merge levels), not anything quadratic.
        assert total <= 12 * blocks

    def test_sorter_reuse(self, tiny_ctx, codec):
        sorter = ExternalSorter(tiny_ctx, codec)
        for seed in (1, 2):
            file = tiny_ctx.create_file(codec)
            data = _shuffled(150, seed=seed)
            file.write_all(data)
            assert sorter.sort(file).read_all() == sorted(data)

    def test_records_must_be_float64(self, tiny_ctx):
        # The runs move as float64 arrays; other records are rejected.
        mixed = StructRecordCodec("<dq")
        file = tiny_ctx.create_file(mixed).write_all([(1.0, 2), (0.0, 1)])
        with pytest.raises(SerializationError):
            external_sort(tiny_ctx, file, mixed)

    def test_large_memory_single_run_shortcut(self, codec):
        ctx = EMContext(EMConfig(block_size=4096, buffer_size=1024 * 1024))
        file = ctx.create_file(codec)
        data = _shuffled(500, seed=13)
        file.write_all(data)
        assert external_sort(ctx, file, codec).read_all() == sorted(data)


# ---------------------------------------------------------------------- #
# The block-array sort against the record-at-a-time reference
# ---------------------------------------------------------------------- #
#: Few distinct values, so records tie on leading fields; -0.0 and 0.0
#: compare equal but differ in bits, so their order shows in the bytes.
_VALUES = (-math.inf, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, math.inf)


def _sort_once(records, codec, block_size, buffer_blocks, sort):
    """Sort ``records`` with ``sort`` on a fresh context: (bytes, count,
    pool state)."""
    ctx = EMContext(EMConfig(block_size=block_size,
                             buffer_size=buffer_blocks * block_size))
    file = ctx.create_file(codec)
    file.write_all(records)
    ctx.clear_cache()
    result = sort(ctx, file, codec)
    ctx.pool.flush()
    return ([ctx.device.peek(b) for b in result.block_ids], len(result),
            pool_state(ctx))


class TestBlockArraySort:
    """The block-array sort writes what ``list.sort`` runs and a heap merge
    write (``record_passes.external_sort``)."""

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.sampled_from((2, 5)), st.sampled_from((256, 512)),
           st.sampled_from((2, 3, 6)))
    def test_same_bytes_and_io_as_the_record_path(self, data, fields,
                                                   block_size, buffer_blocks):
        codec = StructRecordCodec("<" + "d" * fields)
        records = data.draw(st.lists(
            st.tuples(*[st.sampled_from(_VALUES)] * fields), max_size=400))
        args = (records, codec, block_size, buffer_blocks)
        rows = _sort_once(*args, external_sort)
        expected = _sort_once(*args, record_passes.external_sort)
        assert rows == expected
        assert rows[1] == len(records)

    def test_many_runs_and_merge_levels(self):
        # 300 events of 40 B on 256 B blocks and a 2-block buffer: runs of
        # 12 records, two-way merges, five merge levels.
        rng = random.Random(4)
        records = [(float(rng.randint(0, 9)), rng.choice((1.0, -1.0)),
                    rng.choice(_VALUES), float(rng.randint(0, 3)), 1.0)
                   for _ in range(300)]
        args = (records, EVENT_CODEC, 256, 2)
        assert _sort_once(*args, external_sort) == \
            _sort_once(*args, record_passes.external_sort)

    def test_signed_zeros_keep_their_input_order(self, codec):
        # Equal records keep their input order, across runs (32 records
        # each here) and through the merge, as list.sort and the heap do.
        ctx = EMContext(EMConfig(block_size=256, buffer_size=512))
        file = ctx.create_file(codec)
        file.write_all([(0.0, 1.0), (-0.0, 1.0)] * 80)
        result = external_sort(ctx, file, codec).read_all()
        assert [math.copysign(1.0, r[0]) for r in result] == [1.0, -1.0] * 80
