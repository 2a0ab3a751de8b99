"""Build a DeepMapping structure for one workload: generate the relation
with Spark, collect it to the driver and build there with
``DeepMapping.build``, optionally running MHAS first, and print the storage
breakdown (the data behind paper Fig. 6).

spark-submit jobs/build_deepmapping.py --workload tpch_orders --sf 0.05 --mhas
"""
from _common import get_spark, make_parser, workdir_of


from repro.core.deepmapping import DeepMapping, DeepMappingConfig
from repro.core.mhas import MHASConfig, mhas_search
from repro.core.model import TrainConfig
from repro.core.nn import ArchSpec
from repro.core.encoding import LabelCodec
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

    arch = ArchSpec((128,), {})
    if args.mhas:
        dense = ks.dense_index(pdf[list(wl.key_cols)].to_numpy())
        codecs = {c: LabelCodec(pdf[c]) for c in wl.value_cols}
        codes = {c: codecs[c].encode(pdf[c]) for c in wl.value_cols}
        n_classes = {c: codecs[c].n_classes for c in wl.value_cols}
        res = mhas_search(
            ks, dense, codes, n_classes,
            uncompressed_nbytes(pdf), MHASConfig(n_iterations=30),
        )
        arch = res.best_arch
        print(f"MHAS best arch: {arch} (estimated ratio {res.best_ratio:.4f})")

    cfg = DeepMappingConfig(arch=arch, train=TrainConfig(), codec=args.codec)
    dm = DeepMapping.build(
        pdf, list(wl.key_cols), list(wl.value_cols), cfg,
        workdir=workdir_of(args), key_space=ks,
    )
    bd = dm.storage_breakdown()
    raw = uncompressed_nbytes(pdf[list(wl.key_cols) + list(wl.value_cols)])
    print(f"workload={wl.name} rows={len(pdf)} raw_bytes={raw}")
    print(f"storage breakdown: {bd}")
    print(f"total={sum(bd.values())} compression_ratio={sum(bd.values())/raw:.4f}")
    print(f"memorized_fraction={dm.memorized_fraction:.3f}")


if __name__ == "__main__":
    main()
