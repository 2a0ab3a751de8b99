"""Smoke + shape tests for the Table I–V emitters at tiny scale."""
import pytest

from repro.core import deepmapping
from repro.core.model import TrainConfig
from repro.core.nn import ArchSpec
from repro.experiments.harness import ExperimentConfig
from repro.experiments.tables import (
    run_modification_experiment, table1, table2, table3, table5,
)

FAST = ExperimentConfig(
    batch_sizes=(200,), pool_fraction=0.3, repeats=1,
    dm_arch=ArchSpec((32,), {}), dm_train=TrainConfig(epochs=10, batch_size=256),
)
FAST_FIT = ExperimentConfig(
    batch_sizes=(200,), pool_fraction=None, repeats=1,
    dm_arch=ArchSpec((32,), {}), dm_train=TrainConfig(epochs=10, batch_size=256),
)
METHODS = ["AB", "ABC-Z", "DM-Z"]


class TestTable1:
    @pytest.fixture(scope="class")
    def res(self, spark, tmp_path_factory):
        return table1(
            spark, str(tmp_path_factory.mktemp("t1")), sf=0.003,
            workloads=["synth_single_high", "synth_multi_low"],
            methods=METHODS, cfg=FAST,
        )

    def test_rows_per_workload_method(self, res):
        assert len(res.rows) == 2 * len(METHODS)

    def test_paper_numbers_joined(self, res):
        r = next(x for x in res.rows
                 if x["workload"] == "synth_single_high" and x["method"] == "DM-Z")
        assert r["paper_storage_mb"] == 13

    def test_markdown_contains_measured_and_paper(self, res):
        assert "Table I" in res.markdown
        assert "synth_multi_low" in res.markdown
        assert "(13)" in res.markdown  # paper storage next to measured

    def test_dm_best_ratio_on_high_corr(self, res):
        by = {(r["workload"], r["method"]): r for r in res.rows}
        assert (
            by[("synth_single_high", "DM-Z")]["storage_mb"]
            < by[("synth_single_high", "ABC-Z")]["storage_mb"]
        )

    def test_to_frame(self, res):
        df = res.to_frame()
        assert {"workload", "method", "storage_mb"} <= set(df.columns)


class TestTable2:
    @pytest.fixture(scope="class")
    def res(self, spark, tmp_path_factory):
        return table2(
            spark, str(tmp_path_factory.mktemp("t2")), sf=0.003,
            workloads=["tpcds_customer_demographics"], methods=METHODS, cfg=FAST_FIT,
        )

    def test_structure(self, res):
        assert len(res.rows) == len(METHODS)
        assert "Table II" in res.markdown

    def test_cd_extreme_compression(self, res):
        """The paper's flagship: customer_demographics → ~0.6% ratio."""
        r = next(x for x in res.rows if x["method"] == "DM-Z")
        assert r["extra"]["compression_ratio"] < 0.1
        # row-level memorization: the tuple counts only if all 8 demographic
        # columns are right; at the test's 10-epoch budget ~0.97^8
        assert r["extra"]["memorized_fraction"] > 0.7


class TestModificationTables:
    N_BASE = 3000
    B = 300

    @pytest.fixture(scope="class")
    def cfg(self):
        return ExperimentConfig(
            batch_sizes=(self.B,), pool_fraction=0.3, repeats=1,
            dm_arch=ArchSpec((32,), {}), dm_train=TrainConfig(epochs=12, batch_size=256),
        )

    def test_insert_same_distribution(self, spark, tmp_path, cfg):
        rows = run_modification_experiment(
            spark, str(tmp_path), corr="high", op="insert_same",
            n_base=self.N_BASE, n_steps=3, batch_size=self.B,
            methods=["DM-Z", "DM-Z1", "AB", "ABC-Z"], cfg=cfg,
        )
        dm = {r["step"]: r for r in rows if r["method"] == "DM-Z"}
        ab = {r["step"]: r for r in rows if r["method"] == "AB"}
        # AB grows linearly with inserts; DM-Z grows far slower on
        # distribution-following high-correlation inserts (paper Tab. III)
        ab_growth = ab[3]["storage_mb"] - ab[0]["storage_mb"]
        dm_growth = dm[3]["storage_mb"] - dm[0]["storage_mb"]
        assert dm_growth < ab_growth / 3
        # DM-Z1 reported only from the retrain step on
        z1 = {r["step"]: r for r in rows if r["method"] == "DM-Z1"}
        assert z1[0]["storage_mb"] is None and z1[2]["storage_mb"] is not None

    def test_dm_z1_starts_from_dm_z_network(self, spark, tmp_path, cfg, monkeypatch):
        """One network is trained for DM-Z and DM-Z1; DM-Z1's retrain trains
        the only other one."""
        trained, real = [], deepmapping.train_model
        monkeypatch.setattr(
            deepmapping, "train_model", lambda *a, **k: trained.append(real(*a, **k)) or trained[-1]
        )
        rows = run_modification_experiment(
            spark, str(tmp_path), corr="high", op="insert_same",
            n_base=self.N_BASE, n_steps=2, batch_size=self.B,
            methods=["DM-Z", "DM-Z1"], cfg=cfg,
        )
        assert len(trained) == 2
        z1 = [r for r in rows if r["method"] == "DM-Z1" and r["storage_mb"] is not None]
        assert [r["step"] for r in z1] == [2] and "memorized" in z1[0]

    def test_insert_cross_distribution_grows_aux(self, spark, tmp_path, cfg):
        rows = run_modification_experiment(
            spark, str(tmp_path), corr="high", op="insert_cross",
            n_base=self.N_BASE, n_steps=2, batch_size=self.B,
            methods=["DM-Z"], cfg=cfg,
        )
        dm = {r["step"]: r for r in rows}
        # off-distribution inserts are mostly misclassified → aux grows
        assert dm[2]["aux_entries"] > dm[0]["aux_entries"]

    def test_delete_shrinks_everything(self, spark, tmp_path, cfg):
        rows = run_modification_experiment(
            spark, str(tmp_path), corr="low", op="delete",
            n_base=self.N_BASE, n_steps=3, batch_size=self.B,
            methods=["DM-Z", "AB"], cfg=cfg,
        )
        dm = {r["step"]: r for r in rows if r["method"] == "DM-Z"}
        ab = {r["step"]: r for r in rows if r["method"] == "AB"}
        assert dm[3]["storage_mb"] < dm[0]["storage_mb"]
        assert ab[3]["storage_mb"] < ab[0]["storage_mb"]
        assert dm[3]["aux_entries"] < dm[0]["aux_entries"]

    def test_table3_markdown(self, spark, tmp_path, cfg):
        res = table3(
            spark, str(tmp_path), n_base=self.N_BASE, batch_size=self.B,
            cfg=cfg, corrs=("high",), methods=["DM-Z", "AB"],
        )
        assert "Table III" in res.markdown
        assert any(r["method"] == "DM-Z" for r in res.rows)

    def test_table5_markdown(self, spark, tmp_path, cfg):
        res = table5(
            spark, str(tmp_path), n_base=self.N_BASE, batch_size=self.B,
            cfg=cfg, corrs=("low",), methods=["DM-Z", "ABC-Z"],
        )
        assert "Table V" in res.markdown
        steps = {r["step"] for r in res.rows}
        assert steps == set(range(7))
