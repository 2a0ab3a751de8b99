"""Reproduce paper Table II: storage and lookup latency for datasets that
fit the memory pool (spark-submit jobs/table2.py)."""
from _common import emit, get_spark, make_parser, workdir_of

from repro.experiments.tables import table2


def main() -> None:
    args = make_parser("Table II — fits-memory lookup").parse_args()
    spark = get_spark("repro-table2")
    with workdir_of(args) as workdir:
        emit(table2(spark, workdir), args.out)


if __name__ == "__main__":
    main()
