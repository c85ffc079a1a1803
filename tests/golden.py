"""Golden TINY run: the outputs of one small, fixed recipe of every stage.

The recipe is the TINY test backbone (2 layers, width 16), pretrained for 2
epochs on 96 images, on ``gen_synthetic("pattern-class", 8, 400, seed=3)``:
2 supernet epochs, 2 search generations, then 2-epoch warm and from-scratch
retrains of the best config. Pretraining runs at base_lr 1e-2: at the default
1e-3 every candidate scores chance, and the pinned fitnesses tell no two
networks apart. ``golden/tiny_run.json`` holds its outputs, in three groups:

* ``exact``: every search-trace candidate (encoding, fitness, params,
  source), ``best_so_far`` and each generation's work counters (fresh
  encodings, networks scored, cache hits, blocks run), the best config,
  ``evaluate_checkpoint`` of the saved supernet and retrained-subnet
  checkpoints, and the retrain and scratch accuracies. These are equal under
  every OpenBLAS kernel tried.
* ``losses``: per-epoch training losses of every stage, compared to
  ``LOSS_RTOL``; OpenBLAS kernels move them by ~1e-8 relative.
* ``digest``: sha256 of the name-sorted weight arrays' dtypes, shapes and
  bytes (not of the files, so it does not depend on the checkpoint format).
  It changes with the OpenBLAS kernel, so it is compared only on request.

``test_golden.py`` compares ``exact`` and ``losses``. From the repository
root, with ``PYTHONPATH=src``:

    python tests/golden.py            # compare, as the test does
    python tests/golden.py --digest   # also compare the weights, bit for bit
    python tests/golden.py --write    # regenerate the fixture
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from noah import pipeline as P
from noah.config import config_from_dict
from noah.data import gen_synthetic

FIXTURE = Path(__file__).with_name("golden") / "tiny_run.json"
LOSS_RTOL = 1e-6
# What ``exact.trace`` keeps of each search generation: its candidates and
# best so far, and the work counters.
TRACE_KEYS = ("candidates", "best_so_far", "fresh", "scored", "cache_hits",
              "block_trunks", "block_forwards")
RECIPE = {
    "seed": 3,
    "backbone": {"num_layers": 2, "embed_dim": 16, "num_heads": 2, "mlp_hidden": 32},
    "pretrain": {"epochs": 2, "samples": 96, "base_lr": 1e-2},
    "search_space": {"depth_choices": [1, 2], "dim_choices": [1, 2], "budget": 10**6},
    "supernet_hyper": {"base_lr": 3e-3, "total_epochs": 2, "warmup_epochs": 0, "batch_size": 16},
    "subnet_hyper": {"base_lr": 3e-3, "total_epochs": 2, "warmup_epochs": 0, "batch_size": 16},
    "evolution": {"generations": 2, "initial_population": 6, "parent_count": 3,
                  "per_gen_random": 3, "per_gen_crossover": 3, "per_gen_mutation": 3},
}


def weights_digest(weights) -> str:
    h = hashlib.sha256()
    for name in sorted(weights):
        arr = weights[name].data
        h.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run_recipe(workdir: Path) -> dict:
    """The recipe's outputs; checkpoints are written to ``workdir``."""
    run = config_from_dict(RECIPE)
    dataset = gen_synthetic("pattern-class", 8, 400, seed=3)
    sn, logs = P.train_supernet_stage(run, dataset)
    best, trace = P.evolve_stage(run, sn, dataset)
    retrained, retrain_log = P.retrain_stage(run, sn, best, dataset)
    scratch, scratch_log = P.scratch_stage(run, sn, best, dataset)
    P.save_model_weights(workdir / "supernet.noah", sn.weights)
    P.save_model_weights(workdir / "subnet.noah", retrained.weights)
    reloaded = {
        name: P.evaluate_checkpoint(workdir / f"{name}.noah", best, run, dataset, "val")
        for name in ("supernet", "subnet")
    }
    return {
        "exact": {
            "trace": [{key: g[key] for key in TRACE_KEYS} for g in trace.generations],
            "best_config": best.encode(),
            "supernet_checkpoint_fitness": reloaded["supernet"],
            "subnet_checkpoint_val_acc": reloaded["subnet"],
            "retrain_val_acc": [r["val_acc"] for r in retrain_log],
            "scratch_val_acc": [r["val_acc"] for r in scratch_log],
        },
        "losses": {
            stage: [r["train_loss"] for r in log]
            for stage, log in (("pretrain", logs["pretrain"]), ("supernet", logs["train"]),
                               ("retrain", retrain_log), ("scratch", scratch_log))
        },
        "digest": {name: weights_digest(model.weights) for name, model in
                   (("supernet", sn), ("subnet", retrained), ("scratch", scratch))},
    }


def mismatches(got: dict, want: dict, digest: bool = False) -> list[str]:
    """One line per output of ``got`` that differs from the fixture ``want``."""
    problems = [
        f"exact.{key}: got {got['exact'][key]!r}, fixture {value!r}"
        for key, value in want["exact"].items() if got["exact"][key] != value
    ]
    for stage, value in want["losses"].items():
        losses = got["losses"][stage]
        if len(losses) != len(value) or not np.allclose(losses, value, rtol=LOSS_RTOL, atol=0):
            problems.append(f"losses.{stage}: got {losses}, fixture {value} (rtol {LOSS_RTOL})")
    if digest:
        problems += [
            f"digest.{name}: got {got['digest'][name]}, fixture {value}"
            for name, value in want["digest"].items() if got["digest"][name] != value
        ]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the fixture")
    parser.add_argument("--digest", action="store_true",
                        help="also compare the weights' sha256 (same machine and kernel)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        got = run_recipe(Path(workdir))
    if args.write:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
        return 0
    problems = mismatches(got, json.loads(FIXTURE.read_text()), digest=args.digest)
    print("\n".join(problems) or f"matches {FIXTURE}" + (", digest included" * args.digest))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
