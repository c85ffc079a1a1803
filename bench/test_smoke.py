"""Smoke check of the benchmark: every workload at tiny sizes, untraced and
traced, reports every metric that BENCHMARK.json names and passes its output
checks; without the sources beside it, the benchmark fails without a result.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as R  # noqa: E402

R.import_noah()

import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY_INPUTS = W.Inputs(num_classes=4, samples=200)
TINY_SEARCH = {
    "generations": 1,
    "initial_population": 4,
    "parent_count": 2,
    "per_gen_random": 1,
    "per_gen_crossover": 1,
    "per_gen_mutation": 1,
}
TINY = {
    "backbone": {"num_layers": 2, "embed_dim": 16, "num_heads": 2, "mlp_hidden": 32},
    "search_space": {"depth_choices": [1, 2], "dim_choices": [1, 2], "budget": 400},
    "pretrain": {"samples": 64, "num_classes": 4},
    "supernet_hyper": {"total_epochs": 10, "base_lr": 5e-3, "batch_size": 16},
    "subnet_hyper": {"total_epochs": 4, "base_lr": 5e-3, "batch_size": 16},
    "evolution": TINY_SEARCH,
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_at_tiny_size(name, trace, tmp_path):
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        record = W.run_workload(
            W.WORKLOADS[name], TINY_INPUTS, 0, 0.0, tmp_path, tracer, overrides=TINY
        )
    finally:
        if tracer:
            tracer.uninstall()
    assert record["checks"].failures == []
    assert record["checks"].attempted >= 1
    if tracer:
        assert tracer.missing == []
        metrics, _ = W.per_layer(record, tracer)
        expected = [m["name"] for m in R.SPEC["per_layer"]]
        expected = [n for n in expected if not n.startswith("evolution.prefix_ratio.L")]
    else:
        metrics = W.end_to_end(record)
        expected = [m["name"] for m in R.SPEC["end_to_end"]]
        assert all(metrics[n] > 0 for n in expected)
    assert set(expected) <= set(metrics)
    assert all(math.isfinite(metrics[n]) for n in expected)


def test_fails_without_sources(tmp_path):
    shutil.copy(R.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "supernet", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
