"""Shared spark-submit plumbing for the table jobs."""
from __future__ import annotations

import argparse
import contextlib
import os
import tempfile

from pyspark.sql import SparkSession


def make_parser(desc: str) -> argparse.ArgumentParser:
    """The deployment settings every table job takes; a table's experiment
    settings are the defaults of its function in ``repro.experiments.tables``."""
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--workdir", default=None, help="partition-store directory")
    p.add_argument("--out", default=None, help="write the markdown table here")
    return p


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .getOrCreate()
    )


def emit(result, out: str | None) -> None:
    print(result.markdown)
    if out:
        with open(out, "w") as f:
            f.write(result.markdown + "\n")
        print(f"\n[written to {out}]")


@contextlib.contextmanager
def workdir_of(args):
    """The partition-store directory for the job's ``with`` block:
    ``--workdir``, which is kept, or else a temporary directory that is
    removed when the block ends."""
    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
        yield args.workdir
    else:
        with tempfile.TemporaryDirectory(prefix="repro-job-") as d:
            yield d
