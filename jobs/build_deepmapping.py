"""Build a DeepMapping structure for one workload: generate the relation
with Spark, collect it to the driver and build there with
``DeepMapping.build``, optionally running MHAS first, and print the storage
breakdown (the data behind paper Fig. 6).

spark-submit jobs/build_deepmapping.py --workload tpch_orders --sf 0.05 --mhas
"""
from dataclasses import replace

from _common import get_spark, make_parser, workdir_of

from repro.core.deepmapping import DeepMapping, DeepMappingConfig
from repro.core.mhas import MHASConfig, mhas_search
from repro.core.model import TrainConfig
from repro.core.nn import ArchSpec
from repro.workloads.datasets import get_workload, uncompressed_nbytes


def main() -> None:
    p = make_parser("Build a DeepMapping structure", default_sf=0.05)
    p.add_argument("--workload", default="tpch_orders")
    p.add_argument("--mhas", action="store_true", help="run MHAS architecture search")
    p.add_argument("--codec", default="z", choices=["z", "lzma"])
    args = p.parse_args()
    spark = get_spark("repro-build-dm")
    wl = get_workload(args.workload)
    pdf = wl.pandas(spark, args.sf)
    ks = wl.key_space(pdf)
    key_cols, value_cols = list(wl.key_cols), list(wl.value_cols)
    raw = uncompressed_nbytes(pdf[key_cols + value_cols])  # size(D) in Eq. 1

    cfg = DeepMappingConfig(arch=ArchSpec((128,), {}), train=TrainConfig(), codec=args.codec)
    if args.mhas:
        res = mhas_search(
            pdf, key_cols, value_cols, raw, MHASConfig(n_iterations=30),
            config=cfg, key_space=ks,
        )
        cfg = replace(cfg, arch=res.best_arch)
        print(f"MHAS best arch: {res.best_arch} (ratio {res.best_ratio:.4f})")

    dm = DeepMapping.build(
        pdf, key_cols, value_cols, cfg, workdir=workdir_of(args), key_space=ks,
    )
    bd = dm.storage_breakdown()
    print(f"workload={wl.name} rows={len(pdf)} raw_bytes={raw}")
    print(f"storage breakdown: {bd}")
    print(f"total={dm.nbytes_disk} compression_ratio={dm.compression_ratio(raw):.4f}")
    print(f"memorized_fraction={dm.memorized_fraction:.3f}")


if __name__ == "__main__":
    main()
