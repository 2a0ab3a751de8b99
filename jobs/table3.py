"""Reproduce paper Table III: insertions following the original
distribution (spark-submit jobs/table3.py)."""
from _common import emit, get_spark, make_parser, workdir_of

from repro.experiments.tables import table3


def main() -> None:
    args = make_parser("Table III — insert, same distribution").parse_args()
    spark = get_spark("repro-table3")
    with workdir_of(args) as workdir:
        emit(table3(spark, workdir), args.out)


if __name__ == "__main__":
    main()
