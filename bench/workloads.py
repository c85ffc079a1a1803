"""The benchmark's workloads, run through noah's public entry points.

Every workload is a closed loop: one client runs a repetition, checks its
outputs, and starts the next only when the previous one has finished. All of
them share one input set (`Inputs`) and one seed, which drives the data, the
run seed and the search; the random frozen backbone is the config default.
Why each workload exists is recorded in BENCHMARK.json. They differ in where
the time goes:

* `supernet` trains the supernet from a random frozen backbone in every
  repetition; a short search, a checkpoint round trip and a one-epoch
  retrain follow, so that every end-to-end metric is measured. Set-up
  generates the data and warms up with one epoch of training.
* `search` trains the supernet briefly during set-up; each repetition is an
  evolutionary search shaped like the default schedule, then the same short
  tail.
* `pipeline` runs every stage in each repetition, pseudo-pretraining
  included: pretrain, supernet, search, checkpoint round trip, retrain.
  Set-up is the same as on `supernet`.

Configurations are built with `config_from_dict` and set no key that the
roadmap plans to remove (`evolution.workers`, `runtime.*`).
"""

from __future__ import annotations

import copy
import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from noah import data as D
from noah import pipeline as P
from noah import space as S
from noah.config import config_from_dict

CASES = 3  # derived seeds per run, each set up once and run at least once
# Where the repetitions train the supernet themselves, set-up ends with one
# discarded epoch of it, so that first-call costs (allocator growth, BLAS
# start-up) land in set-up rather than in the first measured repetition.
WARMUP = {"pretrain": {"epochs": 0}, "supernet_hyper": {"total_epochs": 1}}
STEP_SAMPLES = 100  # traced optimizer-step intervals needed for a p90 with ten beyond it
SPLIT_TOLERANCE = 0.1  # traced forward + backward + AdamW must cover a step to within this

TAIL_SEARCH = {
    "generations": 1,
    "initial_population": 10,
    "parent_count": 10,
    "per_gen_random": 3,
    "per_gen_crossover": 3,
    "per_gen_mutation": 3,
}
DEFAULT_SHAPED_SEARCH = {
    "generations": 3,
    "initial_population": 20,
    "parent_count": 10,
    "per_gen_random": 10,
    "per_gen_crossover": 10,
    "per_gen_mutation": 10,
}


@dataclass(frozen=True)
class Inputs:
    task: str = "pattern-class"
    num_classes: int = 8
    samples: int = 1000  # split 800 train / 200 val
    image_shape: tuple = (1, 16, 16)


@dataclass(frozen=True)
class Workload:
    name: str
    doc: dict  # config_from_dict document, without the seed
    train_in_setup: bool  # supernet trained once per set-up, not per repetition


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="supernet",
            doc={
                "pretrain": {"epochs": 0},
                "supernet_hyper": {"base_lr": 5e-3, "total_epochs": 6, "warmup_epochs": 1},
                "subnet_hyper": {"base_lr": 4e-3, "total_epochs": 1, "warmup_epochs": 1},
                "evolution": TAIL_SEARCH,
            },
            train_in_setup=False,
        ),
        Workload(
            name="search",
            doc={
                "pretrain": {"epochs": 0},
                "supernet_hyper": {"base_lr": 5e-3, "total_epochs": 5, "warmup_epochs": 1},
                "subnet_hyper": {"base_lr": 4e-3, "total_epochs": 1, "warmup_epochs": 1},
                "evolution": DEFAULT_SHAPED_SEARCH,
            },
            train_in_setup=True,
        ),
        Workload(
            name="pipeline",
            doc={
                "pretrain": {"epochs": 2, "warmup_epochs": 1},
                "supernet_hyper": {"base_lr": 4e-3, "total_epochs": 4, "warmup_epochs": 1},
                "subnet_hyper": {"base_lr": 4e-3, "total_epochs": 2, "warmup_epochs": 1},
                "evolution": TAIL_SEARCH,
            },
            train_in_setup=False,
        ),
    )
}


def merged(doc: dict, overrides: dict) -> dict:
    """`doc` with `overrides` applied section by section."""
    out = copy.deepcopy(doc)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merged(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


class Checks:
    """Output checks, each one an attempted operation that passes or fails."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Training:
    case: int  # index of the derived seed
    seconds: float
    samples: int
    final_loss: float
    traced: bool


@dataclass
class Repetition:
    case: int
    seconds: float
    search_s: float
    fresh_evals: int
    quality: tuple  # (best config, best fitness, retrain val acc)
    budget: int
    traced: bool


@dataclass
class Case:
    """Inputs derived from one seed: the run config, the data, and on the
    `search` workload the supernet trained during set-up."""

    run: object
    dataset: object
    supernet: object = None


@contextmanager
def _tracing(tracer, on: bool):
    if tracer is None:
        yield
        return
    before, tracer.enabled = tracer.enabled, on
    try:
        yield
    finally:
        tracer.enabled = before


def _train(case_index, run, dataset, checks: Checks, traced: bool):
    start = time.perf_counter()
    sn, logs = P.train_supernet_stage(run, dataset)
    seconds = time.perf_counter() - start
    losses = [r["train_loss"] for part in ("pretrain", "train") for r in logs[part]]
    final = logs["train"][-1]["train_loss"]
    checks.expect(all(math.isfinite(v) for v in losses), "non-finite training loss")
    checks.expect(
        final < math.log(dataset.num_classes),
        f"final supernet loss {final:.4f} not below ln({dataset.num_classes})",
    )
    samples = (
        run.pretrain.epochs * run.pretrain.samples
        + run.supernet_hyper.total_epochs * len(dataset.splits["train"][1])
    )
    return sn, Training(case_index, seconds, samples, final, traced)


def _search_checks(best, trace, sn, checks: Checks) -> float:
    recorded = trace.generations[-1]["best_so_far"]
    violations = S.validate(best, sn.spec)
    checks.expect(
        not violations and best.encode() == recorded["config"],
        f"best config {best.encode()} fails validation: {violations}",
    )
    top = max(c["fitness"] for c in trace.all_candidates())
    checks.expect(
        recorded["fitness"] == top,
        f"best fitness {recorded['fitness']} is not the trace maximum {top}",
    )
    return recorded["fitness"]


def _repetition(case_index, case: Case, workdir: Path, checks: Checks, traced: bool):
    run, dataset = case.run, case.dataset
    start = time.perf_counter()
    trainings = []
    sn = case.supernet
    if sn is None:
        sn, training = _train(case_index, run, dataset, checks, traced)
        trainings.append(training)
    search_start = time.perf_counter()
    best, trace = P.evolve_stage(run, sn, dataset)
    search_s = time.perf_counter() - search_start
    fitness = _search_checks(best, trace, sn, checks)

    path = workdir / "supernet.noah"
    P.save_model_weights(path, sn.weights)
    reloaded = P.evaluate_checkpoint(path, best, run, dataset, "val")
    checks.expect(
        reloaded == fitness,
        f"checkpoint fitness {reloaded} differs from the searched {fitness}",
    )

    _, retrain_log = P.retrain_stage(run, sn, best, dataset)
    val_acc = retrain_log[-1]["val_acc"]
    checks.expect(
        all(math.isfinite(r["train_loss"]) for r in retrain_log)
        and val_acc > 1.0 / dataset.num_classes,
        f"retrain val accuracy {val_acc} not above chance",
    )
    seconds = time.perf_counter() - start
    fresh = len({c["config"] for c in trace.all_candidates()})
    rep = Repetition(
        case_index, seconds, search_s, fresh, (best.encode(), fitness, val_acc),
        sn.spec.budget, traced,
    )
    return rep, trainings, trace


def run_workload(
    wl: Workload,
    inputs: Inputs,
    seed: int,
    seconds: float,
    workdir: Path,
    tracer=None,
    overrides: dict | None = None,
) -> dict:
    """Set up, then repeat the workload for `seconds`; returns the raw record.

    The seed is expanded into CASES derived seeds, each with its own data,
    prompt-bank initialisation, sampled subnets and search. Quality metrics are averaged over
    the cases, which narrows their spread from one seed to the next; every
    case is set up and run at least once, and a case that runs again must
    reproduce its outputs exactly. With a tracer, odd-numbered set-ups and
    repetitions run traced and the others untraced, so that the tracing
    overhead is measured in the same process.
    """
    checks = Checks()
    cases: list[Case] = []
    setups: list[tuple[float, bool]] = []
    trainings: list[Training] = []
    doc = merged(wl.doc, overrides or {})
    warmup = config_from_dict(merged(doc, WARMUP))
    extra = 1 if tracer is not None and wl.train_in_setup else 0  # two traced trainings
    for i in range(CASES + extra):
        index = i % CASES
        derived = seed * CASES + index
        run = config_from_dict(doc | {"seed": derived})
        traced = tracer is not None and i % 2 == 1
        with _tracing(tracer, traced):
            start = time.perf_counter()
            dataset = D.gen_synthetic(
                inputs.task, inputs.num_classes, inputs.samples, derived, inputs.image_shape
            )
            case = Case(run, dataset)
            if wl.train_in_setup:
                case.supernet, training = _train(index, run, dataset, checks, traced)
                trainings.append(training)
            else:
                with _tracing(tracer, False):
                    P.train_supernet_stage(warmup, dataset)
            setups.append((time.perf_counter() - start, traced))
        if i < CASES:
            cases.append(case)

    reps: list[Repetition] = []
    traces = []
    deadline = time.perf_counter() + seconds
    while True:
        index = len(reps) % CASES
        traced = tracer is not None and len(reps) % 2 == 1
        with _tracing(tracer, traced):
            rep, rep_trainings, trace = _repetition(index, cases[index], workdir, checks, traced)
        if len(reps) >= CASES:
            earlier = reps[len(reps) - CASES]
            checks.expect(
                rep.quality == earlier.quality,
                f"case {index} gave {rep.quality}, earlier {earlier.quality}",
            )
        else:
            traces.append(trace)
        reps.append(rep)
        trainings.extend(rep_trainings)
        if len(reps) < CASES or time.perf_counter() < deadline:
            continue
        if tracer is None or wl.train_in_setup or len(tracer.step_intervals) >= STEP_SAMPLES:
            break

    for index in range(CASES):
        losses = {t.final_loss for t in trainings if t.case == index}
        checks.expect(len(losses) == 1, f"case {index}: supernet training not repeatable")
    return {
        "cases": cases,
        "checks": checks,
        "setups": setups,
        "trainings": trainings,
        "reps": reps,
        "traces": traces,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _per_case(items, value) -> list[float]:
    """Median of `value` over the untraced items of each case, case by case."""
    by_case: dict[int, list[float]] = {}
    for item in items:
        if not item.traced:
            by_case.setdefault(item.case, []).append(value(item))
    return [statistics.median(v) for _, v in sorted(by_case.items())]


def end_to_end(record: dict) -> dict[str, float]:
    """The end-to-end metrics. Each case contributes the median of its
    untraced repetitions; times sum or average over the cases, which cancels
    work that differs between cases, and quality is the mean over them."""
    reps, trainings = record["reps"], record["trainings"]
    first_reps = reps[:CASES]
    first_trainings = {t.case: t for t in reversed(trainings)}.values()
    train_s = _per_case(trainings, lambda t: t.seconds)
    search_s = _per_case(reps, lambda r: r.search_s)
    return {
        "setup_s": _median([s for s, traced in record["setups"] if not traced]),
        "peak_rss_mb": record["peak_rss_mb"],
        "supernet_samples_per_s": sum(t.samples for t in first_trainings) / sum(train_s),
        "supernet_final_loss": statistics.fmean(t.final_loss for t in first_trainings),
        "search_s": statistics.fmean(search_s),
        "eval_ms_per_candidate": 1000.0 * sum(search_s) / sum(r.fresh_evals for r in first_reps),
        "search_best_fitness": statistics.fmean(r.quality[1] for r in first_reps),
        "pipeline_s": statistics.fmean(_per_case(reps, lambda r: r.seconds)),
        "retrain_val_acc": statistics.fmean(r.quality[2] for r in first_reps),
    }


def search_counts(traces, num_layers: int) -> dict[str, float]:
    """Exact counts from a search trace: fresh evaluations, cache hits, and
    distinct active-gene prefixes per layer among each generation's fresh
    candidates (the most that per-generation prefix reuse could share)."""
    seen: set[str] = set()
    candidates = fresh_total = 0
    distinct = [0] * num_layers
    for generation in (g for trace in traces for g in trace.generations):
        if generation["generation"] == 0:
            seen = set()
        fresh = []
        for c in generation["candidates"]:
            candidates += 1
            if c["config"] not in seen:
                seen.add(c["config"])
                fresh.append(S.SubnetConfig.decode(c["config"]))
        fresh_total += len(fresh)
        for layer in range(num_layers):
            distinct[layer] += len(
                {
                    tuple(cfg.active_dim(m, j) for j in range(layer + 1) for m in S.MODULES)
                    for cfg in fresh
                }
            )
    out = {
        "evolution.fresh_evals": float(fresh_total),
        "evolution.candidates": float(candidates),
        "evolution.cache_hit_ratio": (candidates - fresh_total) / candidates,
    }
    for layer in range(num_layers):
        out[f"evolution.prefix_ratio.L{layer}"] = distinct[layer] / fresh_total
    return out


LAYER_TIMES = (  # metric, span name, self time only
    ("tensor.backward_ms", "tensor.backward", False),
    ("tensor.gelu_ms", "tensor.gelu", False),
    ("tensor.layer_norm_ms", "tensor.layer_norm", False),
    ("tensor.softmax_ms", "tensor.softmax", False),
    ("tensor.matmul_ms", "tensor.matmul", False),
    ("backbone.forward_ms", "backbone.forward", False),
    ("backbone.attn_ms", "backbone.attn", True),
    ("backbone.mlp_ms", "backbone.block", True),
    ("backbone.embed_ms", "backbone.forward", True),
    ("prompts.adapter_ms", "prompts.adapter", False),
    ("prompts.lora_ms", "prompts.lora", False),
    ("prompts.vpt_ms", "prompts.vpt", False),
    ("optim.adamw_ms", "optim.adamw", False),
)
EVAL_TIMES = tuple(row for row in LAYER_TIMES if row[1] not in ("tensor.backward", "optim.adamw"))


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(record: dict, tracer) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from the traced set-ups and repetitions, plus the
    sample counts they rest on. Times inside supernet training are per
    optimizer step; times inside the search are per fresh candidate."""
    t = tracer
    out: dict[str, float] = {}
    steps = t.count("supernet", "optim.adamw")
    for metric, span, self_only in LAYER_TIMES:
        out[metric] = 1000.0 * t.seconds("supernet", span, self_only) / max(steps, 1)
    out["tensor.tensors_per_step"] = t.count("supernet", "tensor.tensors") / max(steps, 1)
    pretrain_steps = t.count("pretrain", "optim.adamw")
    for metric, span in (("pretrain.backward_ms", "tensor.backward"), ("pretrain.adamw_ms", "optim.adamw")):
        out[metric] = 1000.0 * t.seconds("pretrain", span) / max(pretrain_steps, 1)

    intervals = t.step_intervals
    out["supernet.step_ms"] = 1000.0 * _median(intervals)
    out["supernet.step_ms.p90"] = 1000.0 * _percentile(intervals, 0.9) if intervals else 0.0
    split = sum(out[m] for m in ("backbone.forward_ms", "tensor.backward_ms", "optim.adamw_ms"))
    mean_step = 1000.0 * statistics.fmean(intervals) if intervals else 0.0
    out["supernet.step_split_ratio"] = split / mean_step if mean_step else 0.0
    record["checks"].expect(
        abs(out["supernet.step_split_ratio"] - 1.0) <= SPLIT_TOLERANCE,
        f"forward + backward + AdamW cover {out['supernet.step_split_ratio']:.3f} of a step",
    )

    evals = t.durations.get(("search", "supernet.evaluate"), [])
    out["supernet.evaluate_ms"] = 1000.0 * _median(evals)
    for metric, span, self_only in EVAL_TIMES:
        out["eval." + metric] = 1000.0 * t.seconds("search", span, self_only) / max(len(evals), 1)

    out.update(search_counts(record["traces"], record["cases"][0].run.backbone.num_layers))
    searches = t.count("search", "search.stage")
    search_wall = t.seconds("search", "search.stage")
    out["evolution.overhead_ms"] = (
        1000.0 * (search_wall - t.seconds("search", "supernet.evaluate")) / max(searches, 1)
    )

    def per_call(stage, span, scale=1.0):
        return scale * t.seconds(stage, span) / max(t.count(stage, span), 1)

    out["checkpoint.save_ms"] = per_call("save", "save.stage", 1000.0)
    out["checkpoint.load_ms"] = per_call("reload", "checkpoint.load", 1000.0)
    out["data.gen_s"] = per_call("data", "data.stage")
    out["pipeline.pretrain_s"] = per_call("pretrain", "pretrain.stage")
    out["pipeline.supernet_s"] = (
        t.seconds("supernet", "supernet.stage") - t.seconds("pretrain", "pretrain.stage")
    ) / max(t.count("supernet", "supernet.stage"), 1)
    out["pipeline.search_s"] = per_call("search", "search.stage")
    out["pipeline.retrain_s"] = per_call("retrain", "retrain.stage")

    # Compare like with like: cases whose supernet trained both ways.
    trainings = record["trainings"]
    both = {x.case for x in trainings if x.traced} & {x.case for x in trainings if not x.traced}
    trainings = [x for x in trainings if x.case in both] or trainings

    def throughput(traced):
        return _median([x.samples / x.seconds for x in trainings if x.traced == traced])

    untraced, traced = throughput(False), throughput(True)
    out["trace.samples_per_s_untraced"] = untraced
    out["trace.samples_per_s_traced"] = traced
    out["trace.overhead_pct"] = 100.0 * (untraced / traced - 1.0) if traced else 0.0

    counts = {
        "optimizer_steps": steps,
        "step_intervals": len(intervals),
        "fresh_evaluations_timed": len(evals),
        "traced_searches": searches,
        "missing_spans": list(t.missing),
    }
    return out, counts
