"""Every spark-submit job under ``jobs/`` imports against the current API and
declares only the flags it reads, and every documented job command parses."""
import importlib
import pathlib
import re
import shlex
import sys
import tempfile
from types import SimpleNamespace

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
JOBS = ROOT / "jobs"
TABLE_JOBS = [f"table{n}" for n in range(1, 6)]
# flags the jobs used to accept and no longer declare, with a value each
REMOVED = {
    "--sf": "0.02", "--epochs": "5", "--train-batch": "1024", "--repeats": "2",
    "--batch-sizes": "100", "--n-base": "40000", "--batch-size": "5000",
}
BUILD_REMOVED = ["--out", "--epochs", "--train-batch", "--repeats", "--batch-sizes"]


class _Parsed(Exception):
    """Raised in place of starting Spark: the job's arguments parsed."""


def _main(monkeypatch, name, argv):
    """Run job ``name``'s ``main`` with ``argv`` up to where it starts Spark."""
    monkeypatch.syspath_prepend(str(JOBS))
    module = importlib.import_module(name)

    def get_spark(app):
        raise _Parsed

    monkeypatch.setattr(module, "get_spark", get_spark)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()


def _documented(path):
    """(job, argv) of every ``python jobs/<job>.py ...`` command in a doc."""
    text = (ROOT / path).read_text()
    return [
        (job, shlex.split(args))
        for job, args in re.findall(r"python jobs/(\w+)\.py([^`\n#]*)", text)
    ]


def _run_all():
    """job → argv of its line in ``exp_out/run_all.sh``, without redirects."""
    lines = (ROOT / "exp_out" / "run_all.sh").read_text().splitlines()
    return {
        m[1]: shlex.split(m[2])
        for m in (re.match(r"python (\w+)\.py([^>]*)", ln) for ln in lines) if m
    }


def _settings(argv):
    """``argv`` without the deployment flags ``--out`` and ``--workdir``."""
    out, it = [], iter(argv)
    for a in it:
        if a in ("--out", "--workdir"):
            next(it)
        else:
            out.append(a)
    return out


@pytest.mark.parametrize("name", sorted(p.stem for p in JOBS.glob("*.py")))
def test_job_imports(monkeypatch, name):
    monkeypatch.syspath_prepend(str(JOBS))
    module = importlib.import_module(name)
    assert name == "_common" or callable(module.main)


@pytest.mark.parametrize("name", TABLE_JOBS)
def test_table_job_help_lists_only_deployment_flags(monkeypatch, capsys, name):
    with pytest.raises(SystemExit) as e:
        _main(monkeypatch, name, ["--help"])
    assert e.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
        "--help", "--workdir", "--out",
    }


@pytest.mark.parametrize("flag", REMOVED)
@pytest.mark.parametrize("name", TABLE_JOBS)
def test_table_job_rejects_removed_flag(monkeypatch, capsys, name, flag):
    with pytest.raises(SystemExit) as e:
        _main(monkeypatch, name, [flag, REMOVED[flag]])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag", BUILD_REMOVED)
def test_build_job_rejects_unread_flag(monkeypatch, capsys, flag):
    with pytest.raises(SystemExit) as e:
        _main(monkeypatch, "build_deepmapping", [flag, "1"])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("doc", ["README.md", "EXPERIMENTS.md", "DESIGN.md"])
def test_documented_commands_parse_and_match_run_all(monkeypatch, doc):
    """Every documented job command parses, and a table's command carries
    the settings of the ``run_all.sh`` line that wrote its committed table."""
    commands = _documented(doc)
    run_all = _run_all()
    assert set(TABLE_JOBS) <= {job for job, _ in commands} and set(run_all) == set(TABLE_JOBS)
    for job, argv in commands:
        with pytest.raises(_Parsed):
            _main(monkeypatch, job, argv)
        if job in run_all:
            assert _settings(argv) == _settings(run_all[job]), (doc, job)


@pytest.mark.parametrize("name", TABLE_JOBS)
def test_table_job_removes_its_temporary_workdir(monkeypatch, tmp_path, name):
    """Without ``--workdir`` a job writes its partitions to a temporary
    directory and removes it when the job ends; a given ``--workdir`` is
    kept."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    monkeypatch.syspath_prepend(str(JOBS))
    module = importlib.import_module(name)
    used = []

    def table(spark, workdir):
        used.append(workdir)
        (pathlib.Path(workdir) / "part-0.bin").write_bytes(b"x" * 1024)
        return SimpleNamespace(markdown="| table |")

    monkeypatch.setattr(module, "get_spark", lambda app: None)
    monkeypatch.setattr(module, name, table)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"])
    module.main()
    assert pathlib.Path(used[0]).parent == tmp_path and used[0].startswith(str(tmp_path / "repro-job-"))
    assert not list(tmp_path.glob("repro-job-*"))

    kept = tmp_path / "kept"
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--workdir", str(kept)])
    module.main()
    assert used[1] == str(kept) and (kept / "part-0.bin").exists()
