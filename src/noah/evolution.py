"""Budget-constrained evolutionary search over subnet genes.

Generation 0 is a uniform budget-filtered population. Every later generation
selects the top-k of everything evaluated so far and produces crossover
children, mutants, and fresh uniform samples; candidates over budget are
resampled. Fitness values are cached by canonical encoding, so duplicates
cost nothing. Ties break toward fewer parameters, then lexicographic
encoding, which makes the whole search deterministic given one seed.

The fitness function is called once per generation, in the calling thread,
with that generation's fresh configs: deduplicated, none seen before, in
production order. It returns one value per config, in the same order, so an
evaluator can share work across a generation's candidates (the supernet's
shared-prefix walk does).
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .checkpoint import atomic_write
from .space import (
    SearchSpaceSpec,
    SpaceError,
    SubnetConfig,
    crossover,
    mutate,
    sample_within_budget,
    spec_count,
)

log = logging.getLogger("noah.evolution")


class EvolutionError(RuntimeError):
    pass


@dataclass(frozen=True)
class EvolutionSchedule:
    generations: int = 5
    initial_population: int = 50
    parent_count: int = 10
    per_gen_random: int = 50
    per_gen_crossover: int = 50
    per_gen_mutation: int = 50
    mutation_prob: float = 0.2
    max_tries: int = 100

    def __post_init__(self):
        if self.generations < 0 or self.initial_population <= 0:
            raise EvolutionError("generations must be >= 0 and initial population positive")
        if not 0 < self.parent_count <= self.initial_population:
            raise EvolutionError(
                f"parent_count {self.parent_count} outside (0, {self.initial_population}]"
            )
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise EvolutionError("mutation_prob outside [0, 1]")
        if min(self.per_gen_random, self.per_gen_crossover, self.per_gen_mutation) < 0:
            raise EvolutionError("per-generation production sizes must be >= 0")


class SearchTrace:
    """Per-generation record of every candidate and the best-so-far curve."""

    def __init__(self, meta: dict):
        self.meta = meta
        self.generations: list[dict] = []

    def add_generation(self, record: dict) -> None:
        self.generations.append(record)

    def best_so_far_curve(self) -> list[float]:
        return [g["best_so_far"]["fitness"] for g in self.generations]

    def all_candidates(self) -> list[dict]:
        return [c for g in self.generations for c in g["candidates"]]

    def save(self, path) -> None:
        with atomic_write(path) as f:
            f.write((json.dumps({"type": "meta", **self.meta}, sort_keys=True) + "\n").encode())
            for record in self.generations:
                line = json.dumps({"type": "generation", **record}, sort_keys=True) + "\n"
                f.write(line.encode())

    @staticmethod
    def load(path) -> "SearchTrace":
        lines = Path(path).read_text().splitlines()
        if not lines:
            raise EvolutionError(f"empty trace file {path}")
        records = []
        for number, line in enumerate(lines, 1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EvolutionError(f"{path}:{number}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise EvolutionError(f"{path}:{number}: record is not a JSON object")
            records.append(record)
        meta = records[0]
        if meta.pop("type", None) != "meta":
            raise EvolutionError(f"{path} does not start with a meta record")
        trace = SearchTrace(meta)
        for record in records[1:]:
            if record.pop("type", None) != "generation":
                raise EvolutionError("unexpected record type in trace")
            trace.add_generation(record)
        return trace


def _rank_key(entry: tuple[str, float, int]):
    enc, fitness, params = entry
    return (-fitness, params, enc)


def evolve(
    fitness_fn: Callable[[list[SubnetConfig]], Sequence[float]],
    spec: SearchSpaceSpec,
    schedule: EvolutionSchedule,
    rng: np.random.Generator,
    seed_note: int | None = None,
    counts: dict[str, int] | None = None,
) -> tuple[SubnetConfig, SearchTrace]:
    """Run the search; returns the best config and the full trace.

    Fitness is any deterministic map from a list of configs to one value per
    config (higher is better); production code passes inherited-weight
    validation accuracy. Each generation record holds ``fresh`` (configs sent
    to ``fitness_fn``) and ``cache_hits`` (candidates answered without it,
    repeats within the generation included). ``counts`` is a tally the
    fitness function adds to; each record also holds how much every key of
    it grew during that generation.
    """
    cache: dict[str, float] = {}
    trace = SearchTrace(
        meta={"schedule": asdict(schedule), "budget": spec.budget, "seed": seed_note}
    )

    def sample_under_budget() -> SubnetConfig:
        try:
            return sample_within_budget(spec, rng, schedule.max_tries)
        except SpaceError as exc:
            raise EvolutionError(f"budget infeasible: {exc}") from exc

    def produce(make: Callable[[], SubnetConfig]) -> SubnetConfig:
        for _ in range(schedule.max_tries):
            candidate = make()
            if spec_count(spec, candidate) <= spec.budget:
                return candidate
        log.debug("production capped out; falling back to a budget-shrunk sample")
        return sample_under_budget()

    def evaluate_batch(batch: list[tuple[str, SubnetConfig]]) -> dict:
        fresh = {}
        for _, config in batch:
            enc = config.encode()
            if enc not in cache:
                fresh.setdefault(enc, config)
        before = dict(counts or {})
        if fresh:
            values = fitness_fn(list(fresh.values()))
            for enc, value in zip(fresh, values, strict=True):
                cache[enc] = float(value)
        record = {"fresh": len(fresh), "cache_hits": len(batch) - len(fresh)}
        for key, value in (counts or {}).items():
            record[key] = value - before.get(key, 0)
        record["candidates"] = [
            {
                "source": source,
                "config": config.encode(),
                "fitness": cache[config.encode()],
                "params": spec_count(spec, config),
            }
            for source, config in batch
        ]
        return record

    def top_k() -> list[SubnetConfig]:
        entries = [
            (enc, fitness, spec_count(spec, SubnetConfig.decode(enc)))
            for enc, fitness in cache.items()
        ]
        entries.sort(key=_rank_key)
        return [SubnetConfig.decode(enc) for enc, _, _ in entries[: schedule.parent_count]]

    def best_entry() -> dict:
        enc, fitness, params = min(
            ((e, f, spec_count(spec, SubnetConfig.decode(e))) for e, f in cache.items()),
            key=_rank_key,
        )
        return {"config": enc, "fitness": fitness, "params": params}

    batch = [("init", sample_under_budget()) for _ in range(schedule.initial_population)]
    trace.add_generation({"generation": 0, **evaluate_batch(batch), "best_so_far": best_entry()})
    for gen in range(1, schedule.generations + 1):
        parents = top_k()
        batch = []
        for _ in range(schedule.per_gen_crossover):
            def cross():
                if len(parents) >= 2:
                    i, j = rng.choice(len(parents), size=2, replace=False)
                else:
                    i = j = 0
                return crossover(parents[int(i)], parents[int(j)], rng)
            batch.append(("crossover", produce(cross)))
        for _ in range(schedule.per_gen_mutation):
            def mut():
                parent = parents[int(rng.integers(len(parents)))]
                return mutate(parent, spec, schedule.mutation_prob, rng)
            batch.append(("mutation", produce(mut)))
        for _ in range(schedule.per_gen_random):
            batch.append(("random", sample_under_budget()))
        trace.add_generation(
            {"generation": gen, **evaluate_batch(batch), "best_so_far": best_entry()}
        )
    best = best_entry()
    log.info("search done: best %s fitness %.4f (%d params)",
             best["config"], best["fitness"], best["params"])
    return SubnetConfig.decode(best["config"]), trace


# ---------------------------------------------------------------------------
# reporting


def report(trace: SearchTrace, top_k: int = 10) -> tuple[str, dict]:
    """Human-readable summary plus a structured dict: best config, fitness
    curve, and per-module per-layer average dimensions among the final top-k."""
    if not trace.generations:
        raise EvolutionError("empty trace")
    final = trace.generations[-1]["best_so_far"]
    best = SubnetConfig.decode(final["config"])

    ranked = sorted(
        {c["config"]: (c["fitness"], c["params"]) for c in trace.all_candidates()}.items(),
        key=lambda kv: (-kv[1][0], kv[1][1], kv[0]),
    )
    top = [SubnetConfig.decode(enc) for enc, _ in ranked[:top_k]]
    layer_count = top[0].num_layers
    averages = {
        m: [
            float(np.mean([cfg.active_dim(m, layer) for cfg in top]))
            for layer in range(layer_count)
        ]
        for m in ("adapter", "lora", "vpt")
    }

    summary = {
        "best": final,
        "best_document": best.to_dict(),
        "fitness_curve": trace.best_so_far_curve(),
        "evaluations_per_generation": [len(g["candidates"]) for g in trace.generations],
        "top_k": [enc for enc, _ in ranked[:top_k]],
        "average_dims_top_k": averages,
    }

    lines = [
        "search report",
        f"  best config : {final['config']}",
        f"  fitness     : {final['fitness']:.4f}",
        f"  params      : {final['params']}",
        "  best-so-far : " + ", ".join(f"{v:.4f}" for v in summary["fitness_curve"]),
        f"  average dims over top-{len(top)} configs (per layer):",
    ]
    for m in ("adapter", "lora", "vpt"):
        dims = ", ".join(f"{v:.1f}" for v in averages[m])
        lines.append(f"    {m:<7}: {dims}")
    return "\n".join(lines) + "\n", summary
