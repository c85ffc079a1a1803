"""Budget-constrained evolutionary search over subnet genes.

Generation 0 and each generation's random candidates are exact draws from
``sample_uniform`` restricted to the budget (``space.budget_sampler``). Each
later generation selects the top-k of everything evaluated so far and adds
crossover children and mutants, each redrawn while over budget, up to
``MAX_TRIES`` times before a budget sample takes its place. Each network is
scored once, by its ``active_dims()``, and fitness and parameter count are
cached by encoding, so a repeated encoding or a twin (another encoding of a
network, a depth over dims of 0) costs nothing. Ranking and the trace are
kept by encoding. Ties break toward fewer parameters, then lexicographic
encoding, which makes the whole search deterministic given one seed.

The fitness function is called once per generation, in the calling thread,
with the networks new among that generation's fresh encodings: each one's
first config in production order. It returns one value per config, in the
same order, so an evaluator can share work across a generation's candidates
(the supernet's shared-prefix walk does). It may use threads internally, as
``supernet.evaluate`` does, provided it has joined them when it returns.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .checkpoint import atomic_write
from .space import (
    MODULES,
    SearchSpaceSpec,
    SpaceError,
    SubnetConfig,
    budget_sampler,
    count_params,
    crossover,
    mutate,
)

log = logging.getLogger("noah.evolution")


# Draws a crossover or mutation child gets to fit the budget before
# production takes a budget sample in its place.
MAX_TRIES = 100
# Configs whose per-layer dims the report averages: the fittest ones seen.
TOP_K = 10


class EvolutionError(RuntimeError):
    pass


@dataclass(frozen=True)
class EvolutionSchedule:
    """Population sizes and rates of one search. It is also the run config's
    ``evolution`` section: every field is a config key."""

    generations: int = 5
    initial_population: int = 50
    parent_count: int = 10
    per_gen_random: int = 50
    per_gen_crossover: int = 50
    per_gen_mutation: int = 50
    mutation_prob: float = 0.2

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
    """Per-generation record of every candidate and the best-so-far curve.

    ``save`` writes it for people to read, as JSON lines: one ``meta`` line
    (``schedule``, ``budget``, ``seed``), then one ``generation`` line per
    generation with the record ``evolve`` built. No noah code reads it back.
    """

    def __init__(self, meta: dict):
        self.meta = meta
        self.generations: list[dict] = []

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


def _ranked(entries: dict[str, tuple[float, int]]) -> list[tuple[str, float, int]]:
    """(encoding, fitness, params) for each ``encoding -> (fitness, params)``
    entry, best first: higher fitness, then fewer parameters, then the
    encoding."""
    return sorted(
        ((enc, fitness, params) for enc, (fitness, params) in entries.items()),
        key=lambda e: (-e[1], e[2], e[0]),
    )


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
    config (higher is better) that depends on a config only through
    ``active_dims()``; production code passes inherited-weight validation
    accuracy, whose forward reads nothing else. Each generation record holds
    ``fresh`` (encodings not seen before), ``scored`` (networks sent to
    ``fitness_fn``) and ``cache_hits`` (candidates of an encoding seen
    before, repeats within the generation included). ``counts`` is a tally
    the fitness function adds to; each record also holds how much every key
    of it grew during that generation.
    """
    cache: dict[str, tuple[float, int]] = {}  # encoding -> (fitness, params)
    scores: dict[tuple, float] = {}  # active dims -> fitness
    trace = SearchTrace(
        meta={"schedule": asdict(schedule), "budget": spec.budget, "seed": seed_note}
    )

    try:
        sample = budget_sampler(spec)
    except SpaceError as exc:
        raise EvolutionError(f"budget infeasible: {exc}") from exc

    def produce(make: Callable[[], SubnetConfig]) -> SubnetConfig:
        for _ in range(MAX_TRIES):
            candidate = make()
            if count_params(candidate, spec.embed_dim) <= spec.budget:
                return candidate
        log.debug("production capped out; taking a budget sample instead")
        return sample(rng)

    def run_generation(gen: int, batch: list[tuple[str, SubnetConfig]]) -> list[tuple]:
        """Score the batch, record it with the best so far, and return the
        ranking of everything evaluated."""
        encodings = [config.encode() for _, config in batch]
        fresh = {}
        for enc, (_, config) in zip(encodings, batch):
            if enc not in cache:
                fresh.setdefault(enc, config)
        new = {}  # active dims -> first config of a network not scored yet
        for config in fresh.values():
            if config.active_dims() not in scores:
                new.setdefault(config.active_dims(), config)
        before = dict(counts or {})
        if new:
            values = fitness_fn(list(new.values()))
            for network, value in zip(new, values, strict=True):
                scores[network] = float(value)
        for enc, config in fresh.items():
            cache[enc] = (scores[config.active_dims()], count_params(config, spec.embed_dim))
        record = {"generation": gen, "fresh": len(fresh), "scored": len(new),
                  "cache_hits": len(batch) - len(fresh)}
        for key, value in (counts or {}).items():
            record[key] = value - before.get(key, 0)
        record["candidates"] = [
            {"source": source, "config": enc, "fitness": cache[enc][0], "params": cache[enc][1]}
            for enc, (source, _) in zip(encodings, batch)
        ]
        ranking = _ranked(cache)
        enc, fitness, params = ranking[0]
        record["best_so_far"] = {"config": enc, "fitness": fitness, "params": params}
        trace.generations.append(record)
        return ranking

    batch = [("init", sample(rng)) for _ in range(schedule.initial_population)]
    ranking = run_generation(0, batch)
    for gen in range(1, schedule.generations + 1):
        parents = [SubnetConfig.decode(enc) for enc, _, _ in ranking[: schedule.parent_count]]
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
            batch.append(("random", sample(rng)))
        ranking = run_generation(gen, batch)
    best = trace.generations[-1]["best_so_far"]
    log.info("search done: %d networks scored for %d fresh encodings; best %s fitness %.4f "
             "(%d params)", len(scores), len(cache), best["config"], best["fitness"],
             best["params"])
    return SubnetConfig.decode(best["config"]), trace


# ---------------------------------------------------------------------------
# reporting


def report(trace: SearchTrace) -> str:
    """The search summary for people to read: the best config, its fitness
    and params, the best-so-far curve, and per-module per-layer average
    dimensions among the ``TOP_K`` fittest configs."""
    if not trace.generations:
        raise EvolutionError("empty trace")
    final = trace.generations[-1]["best_so_far"]
    ranked = _ranked({c["config"]: (c["fitness"], c["params"]) for c in trace.all_candidates()})
    top = [SubnetConfig.decode(enc) for enc, _, _ in ranked[:TOP_K]]
    lines = [
        "search report",
        f"  best config : {final['config']}",
        f"  fitness     : {final['fitness']:.4f}",
        f"  params      : {final['params']}",
        "  best-so-far : " + ", ".join(f"{v:.4f}" for v in trace.best_so_far_curve()),
        f"  average dims over top-{len(top)} configs (per layer):",
    ]
    for m in MODULES:
        dims = ", ".join(
            f"{np.mean([cfg.active_dim(m, layer) for cfg in top]):.1f}"
            for layer in range(top[0].num_layers)
        )
        lines.append(f"    {m:<7}: {dims}")
    return "\n".join(lines) + "\n"
