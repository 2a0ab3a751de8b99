"""Tests for the provided + extended synthetic data generators."""
import pytest

from repro import synth_data as sd


@pytest.fixture(scope="module")
def sc(spark):
    return spark


def test_part_unique_keys(sc):
    pdf = sd.part(sc, sf=0.001).toPandas()
    assert pdf["p_partkey"].is_unique


def test_lineitem_keyed_seed_determinism(sc):
    a = sd.lineitem_keyed(sc, sf=0.002, seed=5).toPandas()
    b = sd.lineitem_keyed(sc, sf=0.002, seed=5).toPandas()
    assert a.equals(b)
    c = sd.lineitem_keyed(sc, sf=0.002, seed=6).toPandas()
    assert not a.equals(c)


def test_customer_demographics_full_cross_product_capped(sc):
    df = sd.customer_demographics(sc, sf=2.0)
    full = 1
    for _, vals in sd._CD_DIMS:
        full *= len(vals)
    assert df.count() == full  # truncation never exceeds the true product


def test_catalog_returns_schema(sc):
    pdf = sd.catalog_returns(sc, sf=0.002).toPandas()
    assert pdf["cr_reason_sk"].between(1, 35).all()
    assert pdf["cr_order_number"].is_unique


def test_crop_raster_shape(sc):
    pdf = sd.crop_raster(sc, side=32).toPandas()
    assert len(pdf) == 32 * 32
    assert set(pdf["crop_type"]) <= set(sd._CROP_TYPES.tolist())


def test_synth_correlation_columns(sc):
    pdf = sd.synth_correlation(sc, n=100, n_value_cols=4).toPandas()
    assert list(pdf.columns) == ["key", "v0", "v1", "v2", "v3"]


def test_synth_correlation_value_domains(sc):
    pdf = sd.synth_correlation(sc, n=2000, n_value_cols=2, correlated=True).toPandas()
    assert pdf["v0"].between(0, 6).all()   # card 7
    assert pdf["v1"].between(0, 4).all()   # card 5
