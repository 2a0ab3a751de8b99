"""Every spark-submit job under ``jobs/`` imports against the current API."""
import importlib
import pathlib

import pytest

JOBS = pathlib.Path(__file__).resolve().parent.parent / "jobs"


@pytest.mark.parametrize("name", sorted(p.stem for p in JOBS.glob("*.py")))
def test_job_imports(monkeypatch, name):
    monkeypatch.syspath_prepend(str(JOBS))
    module = importlib.import_module(name)
    assert name == "_common" or callable(module.main)
