"""Reproduce paper Table IV: insertions NOT following the original
distribution (spark-submit jobs/table4.py)."""
from _common import emit, get_spark, make_parser, workdir_of

from repro.experiments.tables import table4


def main() -> None:
    args = make_parser("Table IV — insert, cross distribution").parse_args()
    spark = get_spark("repro-table4")
    with workdir_of(args) as workdir:
        emit(table4(spark, workdir), args.out)


if __name__ == "__main__":
    main()
