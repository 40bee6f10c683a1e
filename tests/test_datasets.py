"""Unit tests for :mod:`repro.datasets` (specs, generators, CSV / EM I/O)."""

import pytest

from repro.datasets import (
    DEFAULT_DOMAIN,
    DatasetSpec,
    Distribution,
    NE_CARDINALITY,
    UX_CARDINALITY,
    dataset_to_em_file,
    generate_gaussian,
    generate_ne,
    generate_uniform,
    generate_ux,
    load_csv,
    load_dataset,
    save_csv,
)
from repro.datasets.synthetic import generate_from_spec
from repro.errors import DatasetError
from repro.geometry import WeightedPoint


class TestSpec:
    def test_name(self):
        spec = DatasetSpec(Distribution.UNIFORM, 1000)
        assert spec.name == "uniform-1000"

    def test_negative_cardinality_rejected(self):
        with pytest.raises(DatasetError):
            DatasetSpec(Distribution.UNIFORM, -1)

    def test_invalid_domain_rejected(self):
        with pytest.raises(DatasetError):
            DatasetSpec(Distribution.UNIFORM, 10, domain=0.0)

    def test_scaled(self):
        spec = DatasetSpec(Distribution.NE, 123_593).scaled(0.01)
        assert spec.cardinality == 1236
        assert spec.distribution is Distribution.NE

    def test_scaled_never_below_one(self):
        assert DatasetSpec(Distribution.UNIFORM, 10).scaled(0.0001).cardinality == 1

    def test_scaled_invalid_factor(self):
        with pytest.raises(DatasetError):
            DatasetSpec(Distribution.UNIFORM, 10).scaled(0.0)


class TestSyntheticGenerators:
    @pytest.mark.parametrize("generator", [generate_uniform, generate_gaussian])
    def test_cardinality_and_domain(self, generator):
        objs = generator(500, domain=1000.0, seed=3)
        assert len(objs) == 500
        assert all(0.0 <= o.x <= 1000.0 and 0.0 <= o.y <= 1000.0 for o in objs)

    @pytest.mark.parametrize("generator", [generate_uniform, generate_gaussian])
    def test_deterministic_given_seed(self, generator):
        assert generator(100, seed=9) == generator(100, seed=9)
        assert generator(100, seed=9) != generator(100, seed=10)

    def test_unit_weights_by_default(self):
        assert all(o.weight == 1.0 for o in generate_uniform(50, seed=1))

    def test_weighted_option(self):
        objs = generate_uniform(200, seed=1, weighted=True)
        assert any(o.weight > 1.0 for o in objs)
        assert all(1.0 <= o.weight <= 4.0 for o in objs)

    def test_gaussian_is_more_clustered_than_uniform(self):
        import numpy as np
        uniform = generate_uniform(2000, seed=5)
        gaussian = generate_gaussian(2000, seed=5)
        assert np.std([o.x for o in gaussian]) < np.std([o.x for o in uniform])

    def test_zero_cardinality(self):
        assert generate_uniform(0) == []

    def test_invalid_cardinality(self):
        with pytest.raises(DatasetError):
            generate_uniform(-5)

    def test_generate_from_spec_rejects_real(self):
        with pytest.raises(DatasetError):
            generate_from_spec(DatasetSpec(Distribution.UX, 10))


class TestRealStandins:
    def test_default_cardinalities_match_table2(self):
        assert UX_CARDINALITY == 19_499
        assert NE_CARDINALITY == 123_593

    def test_ux_generation(self):
        objs = generate_ux(2000, seed=17)
        assert len(objs) == 2000
        assert all(0.0 <= o.x <= DEFAULT_DOMAIN for o in objs)

    def test_ne_denser_than_ux_locally(self):
        """NE concentrates its points in a band, UX spreads them out."""
        import numpy as np
        ux = generate_ux(5000)
        ne = generate_ne(5000)
        # Distance from the main diagonal (the NE band) is much smaller for NE.
        ux_offsets = np.abs(np.array([o.x for o in ux]) - np.array([o.y for o in ux]))
        ne_offsets = np.abs(np.array([o.x for o in ne]) - np.array([o.y for o in ne]))
        assert np.median(ne_offsets) < np.median(ux_offsets)

    def test_deterministic(self):
        assert generate_ne(500) == generate_ne(500)

    def test_load_dataset_dispatch(self):
        for dist in Distribution:
            objs = load_dataset(DatasetSpec(dist, 64))
            assert len(objs) == 64


class TestCsvAndEMFiles:
    def test_csv_roundtrip(self, tmp_path):
        objs = [WeightedPoint(1.5, 2.5, 3.0), WeightedPoint(-1.0, 0.25)]
        path = tmp_path / "objects.csv"
        assert save_csv(path, objs) == 2
        assert load_csv(path) == objs

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_csv(tmp_path / "absent.csv")

    def test_load_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetError):
            load_csv(path)

    def test_load_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,weight\n1,notanumber,1\n")
        with pytest.raises(DatasetError):
            load_csv(path)

    def test_dataset_to_em_file(self, tiny_ctx):
        objs = generate_uniform(300, seed=2, domain=100.0)
        file = dataset_to_em_file(tiny_ctx, objs)
        assert len(file) == 300
        restored = [WeightedPoint(*record) for record in file.read_all()]
        assert restored == objs
