"""Build a DeepMapping structure for one workload: generate the relation
with Spark, collect it to the driver and build there with
``DeepMapping.build``, optionally running MHAS first, and print the storage
breakdown (the data behind paper Fig. 6).

spark-submit jobs/build_deepmapping.py --workload tpch_orders --sf 0.05 --mhas
"""
import argparse
from dataclasses import replace

from _common import get_spark, workdir_of

from repro.core.deepmapping import DeepMapping, DeepMappingConfig
from repro.core.mhas import MHASConfig, mhas_search
from repro.workloads.datasets import get_workload, uncompressed_nbytes


def main() -> None:
    p = argparse.ArgumentParser(description="Build a DeepMapping structure")
    p.add_argument("--sf", type=float, default=0.05, help="scale factor")
    p.add_argument("--workload", default="tpch_orders")
    p.add_argument("--mhas", action="store_true", help="run MHAS architecture search")
    p.add_argument("--codec", default="z", choices=["z", "lzma"])
    p.add_argument("--workdir", default=None, help="partition-store directory")
    args = p.parse_args()
    spark = get_spark("repro-build-dm")
    wl = get_workload(args.workload)
    pdf = wl.pandas(spark, args.sf)
    ks = wl.key_space(pdf)
    key_cols, value_cols = list(wl.key_cols), list(wl.value_cols)
    raw = uncompressed_nbytes(pdf[key_cols + value_cols])  # size(D) in Eq. 1

    cfg = DeepMappingConfig(codec=args.codec)
    if args.mhas:
        res = mhas_search(
            pdf, key_cols, value_cols, raw, MHASConfig(n_iterations=30),
            config=cfg, key_space=ks,
        )
        cfg = replace(cfg, arch=res.best_arch)
        print(f"MHAS best arch: {res.best_arch} (ratio {res.best_ratio:.4f})")

    with workdir_of(args) as workdir:
        dm = DeepMapping.build(pdf, key_cols, value_cols, cfg, workdir=workdir, key_space=ks)
        print(f"workload={wl.name} rows={len(pdf)} raw_bytes={raw}")
        print(f"storage breakdown: {dm.storage_breakdown()}")
        print(f"total={dm.nbytes_disk} compression_ratio={dm.compression_ratio(raw):.4f}")
        print(f"memorized_fraction={dm.memorized_fraction:.3f}")


if __name__ == "__main__":
    main()
