"""Benchmark of the noah pipeline, run from a source checkout.

    python3 bench/run.py --workload {supernet,search,pipeline} --seed N \
        --seconds S --trace {0,1}

Imports `noah` from `src/` next to this directory, builds the inputs from the
seed, sets up (several times, reporting the median), then repeats the
workload in a closed loop for `--seconds` seconds and checks every output.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with nothing wrapped. With `--trace 1` they are the per-layer
metrics: calls into noah's public functions are wrapped and timed (see
tracing.py), alternating traced and untraced repetitions so that the tracing
overhead is measured in the same process. The line before it records the
machine, the library builds and the sample counts behind each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

# Two OpenBLAS threads gave no speed-up at these matrix sizes on a 2-core
# machine and doubled the run-to-run spread, so unless the caller chooses,
# BLAS runs one thread. This must be set before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def import_noah():
    sys.path.insert(0, str(ROOT / "src"))
    import noah.pipeline

    source = Path(noah.pipeline.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"noah was imported from {source}, not from {ROOT / 'src'}")


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Exit through the finally blocks below, which remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_noah()
    import workloads as W
    from tracing import Tracer

    wl = W.WORKLOADS[args.workload]
    inputs = W.Inputs()
    tracer = Tracer() if args.trace else None
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        if tracer:
            tracer.install()
        record = W.run_workload(wl, inputs, args.seed, args.seconds, workdir, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        metrics, counts = W.per_layer(record, tracer)
        names = SPEC["per_layer"]
    else:
        metrics, counts = W.end_to_end(record), {}
        names = SPEC["end_to_end"]
    checks = record["checks"]
    details = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "inputs": {
            **vars(inputs),
            "train": len(record["cases"][0].dataset.splits["train"][1]),
            "val": len(record["cases"][0].dataset.splits["val"][1]),
            "budget": record["reps"][0].budget,
        },
        "environment": environment(),
        "setups": len(record["setups"]),
        "repetitions": len(record["reps"]),
        "traced_repetitions": sum(r.traced for r in record["reps"]),
        "cases": [
            {"seed": case.run.seed, "best": rep.quality[0], "best_fitness": rep.quality[1],
             "retrain_val_acc": rep.quality[2]}
            for case, rep in zip(record["cases"], record["reps"])
        ],
        "final_losses": sorted({(t.case, t.final_loss) for t in record["trainings"]}),
        "samples": counts,
        "failures": checks.failures,
    }
    print(json.dumps({"details": details}, sort_keys=True, default=str))
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
