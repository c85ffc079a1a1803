"""Command-line entry point.

``noah run --config run.json --data FILE --out OUT`` trains the supernet,
searches it and retrains the best subnet. ``FILE`` is a dataset file written
by ``data.save_dataset``; without ``--data`` the config's ``dataset.path`` is
used. One Python call makes such a file, a pattern-class task with 8 classes
and 1,000 images::

    save_dataset(gen_synthetic("pattern-class", 8, 1000, seed=3), "data.npz")

``OUT`` receives:

* ``config.json``: the resolved run config, defaults filled in;
* ``supernet.noah`` and ``subnet.noah``: the trained supernet and the
  retrained best subnet (``checkpoint`` format, an ``np.savez`` archive);
* ``search_trace.jsonl``: the search trace, as JSON lines: one ``meta`` line
  (``schedule``, ``budget``, ``seed``), then one ``generation`` line per
  generation with its index (``generation``), ``candidates``,
  ``best_so_far``, ``fresh``, ``scored``, ``cache_hits``, ``block_trunks``
  and ``block_forwards``;
* ``report.txt``: the search summary from ``evolution.report``.

Checkpoints and datasets from before both became ``np.savez`` archives no
longer load: an old ``.noah`` file raises ``CheckpointError`` (``bad_magic``),
and an old dataset directory with its ``manifest.json`` is a usage error
naming the path.

``noah run`` sets no BLAS variable. The search scores its candidates on two
threads only when OpenBLAS is limited to one thread before launch:
``OPENBLAS_NUM_THREADS=1``, or ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``,
whichever OpenBLAS reads first (see ``supernet.eval_workers``; the search
logs the thread count it uses). On the
benchmark's ``search`` config (2 cores, seed 21), ``evolve_stage`` took
1.47-1.70 s with the variable unset and 1.15-1.29 s with it set, to the same
best fitness. What it does to training time is unmeasured.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import pipeline as P
from .checkpoint import atomic_write
from .config import ConfigError, load_run_config, write_resolved
from .data import DataError, load_dataset
from .evolution import report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="noah", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_cmd = commands.add_parser(
        "run", help="train the supernet, search it, and retrain the best subnet"
    )
    run_cmd.add_argument("--config", required=True, help="run config JSON file")
    run_cmd.add_argument("--data", help="dataset file (overrides dataset.path)")
    run_cmd.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    try:
        run = load_run_config(args.config)
        run.dataset.path = args.data or run.dataset.path
        if run.dataset.path is None:
            raise ConfigError("no dataset: pass --data or set dataset.path")
        dataset = load_dataset(run.dataset.path)
        missing = {"train", "val"} - set(dataset.splits)
        if missing:
            raise DataError(f"{run.dataset.path}: no {sorted(missing)} split")
        empty = [name for name in ("train", "val") if len(dataset.splits[name][1]) == 0]
        if empty:
            raise DataError(f"{run.dataset.path}: empty {empty} split")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, DataError, OSError) as exc:
        parser.error(str(exc))

    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    write_resolved(run, out)
    sn, _ = P.train_supernet_stage(run, dataset)
    P.save_model_weights(out / "supernet.noah", sn.weights)
    best, trace = P.evolve_stage(run, sn, dataset)
    trace.save(out / "search_trace.jsonl")
    text = report(trace)
    with atomic_write(out / "report.txt") as f:
        f.write(text.encode())
    model, retrain_log = P.retrain_stage(run, sn, best, dataset)
    P.save_model_weights(out / "subnet.noah", model.weights)
    print(text)
    if retrain_log:
        print(f"retrained {best.encode()}: val_acc {retrain_log[-1]['val_acc']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
