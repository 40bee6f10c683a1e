"""Unit tests for :mod:`repro.core.slabfile`."""

import pytest

from repro.core import validate_slab_file_records, write_slab_file
from repro.errors import AlgorithmError

_RECORDS = [
    (0.0, 0.0, 10.0, 1.0),
    (1.0, 2.0, 4.0, 3.0),
    (2.0, 0.0, 10.0, 0.0),
]


class TestRoundtrip:
    def test_write_and_read(self, tiny_ctx):
        file = write_slab_file(tiny_ctx, _RECORDS)
        assert file.read_all() == _RECORDS
        assert len(file) == len(_RECORDS)

    def test_empty_slab_file(self, tiny_ctx):
        file = write_slab_file(tiny_ctx, [])
        assert file.read_all() == []
        assert len(file) == 0


class TestValidation:
    def test_valid_records_pass(self):
        validate_slab_file_records(_RECORDS)

    def test_non_increasing_y_rejected(self):
        with pytest.raises(AlgorithmError):
            validate_slab_file_records([(1.0, 0.0, 1.0, 0.0), (1.0, 0.0, 1.0, 0.0)])

    def test_inverted_interval_rejected(self):
        with pytest.raises(AlgorithmError):
            validate_slab_file_records([(0.0, 5.0, 1.0, 0.0)])

    def test_negative_sum_rejected(self):
        with pytest.raises(AlgorithmError):
            validate_slab_file_records([(0.0, 0.0, 1.0, -2.0)])

    def test_empty_is_valid(self):
        validate_slab_file_records([])
