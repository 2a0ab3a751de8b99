"""Reproduce paper Table I: offline storage size and lookup latency for
datasets that exceed the memory pool (spark-submit jobs/table1.py)."""
from _common import emit, get_spark, make_parser, workdir_of

from repro.experiments.tables import table1


def main() -> None:
    args = make_parser("Table I — exceeds-memory lookup").parse_args()
    spark = get_spark("repro-table1")
    with workdir_of(args) as workdir:
        emit(table1(spark, workdir), args.out)


if __name__ == "__main__":
    main()
