"""Run one DeepMapping benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lookup-mem --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from its
``src/``. The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines above it print the same metrics with their units and
the environment. A full record (environment, every metric, the tail's
percentile and sample count) goes to ``perfbench/_run/``, and the spans of a
traced run beside it. Exits non-zero when any answer was wrong.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# the installed OpenBLAS is built with MAX_THREADS=2; pin it before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "2"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "repro").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # a plain source checkout
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import bench
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in bench.SPECS:
        print(f"unknown workload {args.workload!r}; known: {sorted(bench.SPECS)}", file=sys.stderr)
        return 2

    out_dir = HERE / "_run"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer() if args.trace else None
    r = bench.Run(args.workload, args.seed, args.seconds, str(work), tracer)
    try:
        if tracer is not None:
            bench.install(tracer)
        if args.workload == "modify-mix":
            bench.run_modify(r)
        else:
            bench.run_lookup(r)
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.dump(str(out_dir / f"spans-{tag}.jsonl"))
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(r.metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    env = environment(args.seed)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "attempted": r.attempted, "failed": r.failed,
        "error_rate": r.failed / max(1, r.attempted), "metrics": r.metrics, "info": r.info,
    }
    (out_dir / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"# {args.workload} seed={args.seed} nproc={env['nproc']} "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} commit={env['git_commit']} "
          f"src={env['src_sha256']}")
    print(f"# tail = p{r.info.get('tail_percentile', 0):.1f} of {r.info.get('samples', 0)} requests;"
          f" error_rate = {r.failed}/{r.attempted}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed,
        "metrics": metrics,
    }))
    return 0 if r.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
