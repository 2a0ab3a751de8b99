"""Reproduce paper Table V: deletions (spark-submit jobs/table5.py)."""
from _common import emit, get_spark, make_parser, workdir_of

from repro.experiments.tables import table5


def main() -> None:
    args = make_parser("Table V — delete").parse_args()
    spark = get_spark("repro-table5")
    with workdir_of(args) as workdir:
        emit(table5(spark, workdir), args.out)


if __name__ == "__main__":
    main()
