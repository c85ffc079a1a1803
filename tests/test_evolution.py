import itertools
import json

import numpy as np
import pytest

from noah import evolution as E
from noah import space as S


def toy_spec(budget=400):
    return S.SearchSpaceSpec(
        num_layers=2,
        depth_choices=(1, 2),
        dim_choices={m: (1, 2) for m in S.MODULES},
        embed_dim=16,
        budget=budget,
    )


_W = np.random.default_rng(1234).uniform(0.2, 1.0, (3, 2))


def toy_fitness(cfg: S.SubnetConfig) -> float:
    """Deterministic synthetic fitness of the network: like any fitness
    ``evolve`` takes, it reads a config only through ``active_dims()``."""
    active = cfg.active_dims()
    score = 0.0
    for mi, dims in enumerate(active):
        for i, d in enumerate(dims):
            score += float(_W[mi, i]) * d
        score += 0.1 * sum(d > 0 for d in dims)
    score += 0.25 * active[0][0] * active[2][0]
    return score


def toy_batch(configs: list[S.SubnetConfig]) -> list[float]:
    return [toy_fitness(c) for c in configs]


def enumerate_valid(spec: S.SearchSpaceSpec):
    """Brute-force oracle: every canonical config in the gene space."""
    per_module = []
    for m in S.MODULES:
        options = []
        for depth in (0,) + spec.depth_choices:
            dim_set = spec.dim_gene_choices(m)
            for within in itertools.product(dim_set, repeat=depth):
                dims = tuple(within) + (0,) * (spec.num_layers - depth)
                options.append(S.ModuleGene(depth, dims))
        per_module.append(options)
    for genes in itertools.product(*per_module):
        cfg = S.SubnetConfig(*genes)
        if not S.validate(cfg, spec):
            yield cfg


def small_schedule(**kw):
    defaults = dict(generations=3, initial_population=16, parent_count=4,
                    per_gen_random=8, per_gen_crossover=8, per_gen_mutation=8)
    defaults.update(kw)
    return E.EvolutionSchedule(**defaults)


class TestEvolve:
    def test_zero_generations_returns_best_initial(self):
        spec = toy_spec()
        schedule = small_schedule(generations=0)
        best, trace = E.evolve(toy_batch, spec, schedule, np.random.default_rng(0))
        assert len(trace.generations) == 1
        fits = [c["fitness"] for c in trace.generations[0]["candidates"]]
        assert trace.generations[0]["best_so_far"]["fitness"] == max(fits)
        assert toy_fitness(best) == max(fits)

    def test_budget_never_violated(self):
        spec = toy_spec(budget=300)
        _, trace = E.evolve(toy_batch, spec, small_schedule(), np.random.default_rng(1))
        for c in trace.all_candidates():
            assert c["params"] <= 300
            assert S.count_params(S.SubnetConfig.decode(c["config"]), spec.embed_dim) == c["params"]

    def test_elitism_and_monotone_curve(self):
        spec = toy_spec()
        _, trace = E.evolve(toy_batch, spec, small_schedule(), np.random.default_rng(2))
        curve = trace.best_so_far_curve()
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        gen0_best = trace.generations[0]["best_so_far"]["fitness"]
        assert curve[-1] >= gen0_best

    def test_deterministic_trace_bytes(self, tmp_path):
        spec = toy_spec()
        paths = []
        for run in range(2):
            _, trace = E.evolve(
                toy_batch, spec, small_schedule(), np.random.default_rng(42), seed_note=42
            )
            p = tmp_path / f"t{run}.jsonl"
            trace.save(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_duplicates_hit_cache(self):
        """One fitness call per generation that has a network not scored
        before: it holds those networks, each as its first fresh encoding in
        production order. A twin, and a repeated encoding, is traced with its
        network's fitness. Seed 3 draws twins."""
        spec = toy_spec()
        calls, fitness = [], {}  # active dims -> value returned for it

        def counting_fitness(configs):
            calls.append([c.encode() for c in configs])
            values = toy_batch(configs)
            fitness.update(zip((c.active_dims() for c in configs), values))
            return values

        _, trace = E.evolve(counting_fitness, spec, small_schedule(), np.random.default_rng(3))
        seen, scored, rest = set(), set(), iter(calls)
        for generation in trace.generations:
            batch = [c["config"] for c in generation["candidates"]]
            fresh = list(dict.fromkeys(e for e in batch if e not in seen))
            new = {}
            for enc in fresh:
                network = S.SubnetConfig.decode(enc).active_dims()
                if network not in scored:
                    new.setdefault(network, enc)
            call = next(rest) if new else []
            assert call == list(new.values())
            assert generation["scored"] == len(call)
            assert generation["fresh"] == len(fresh)
            assert generation["cache_hits"] == len(batch) - len(fresh)
            seen |= set(fresh)
            scored |= set(new)
            for c in generation["candidates"]:
                assert c["fitness"] == fitness[S.SubnetConfig.decode(c["config"]).active_dims()]
        assert next(rest, None) is None
        assert any(g["scored"] < g["fresh"] for g in trace.generations)  # twins drawn
        assert len(trace.all_candidates()) > len(seen)  # some candidates repeated

    def test_finds_near_optimum_on_toy_space(self):
        spec = toy_spec(budget=350)
        ranked = sorted((toy_fitness(c) for c in enumerate_valid(spec)), reverse=True)
        cutoff = ranked[max(1, len(ranked) // 100) - 1]
        hits = 0
        for seed in range(5):
            best, _ = E.evolve(toy_batch, spec, small_schedule(generations=5),
                               np.random.default_rng(seed))
            hits += toy_fitness(best) >= cutoff
        assert hits >= 4

    def test_infeasible_budget_raises_before_any_fitness_call(self):
        calls = []
        with pytest.raises(E.EvolutionError, match="budget infeasible: no config fits budget 100"):
            E.evolve(calls.append, toy_spec(budget=100), small_schedule(), np.random.default_rng(6))
        assert calls == []

    def test_tie_break_prefers_fewer_params(self):
        spec = toy_spec()
        best, trace = E.evolve(
            lambda configs: [1.0] * len(configs), spec, small_schedule(), np.random.default_rng(5)
        )
        # constant fitness: the cheapest evaluated config must win
        cheapest = min(c["params"] for c in trace.all_candidates())
        assert S.count_params(best, spec.embed_dim) == cheapest


class TestTraceFile:
    def test_roundtrip(self, tmp_path):
        """The file is the meta record, then one record per generation."""
        spec = toy_spec()
        _, trace = E.evolve(toy_batch, spec, small_schedule(), np.random.default_rng(6))
        p = tmp_path / "trace.jsonl"
        trace.save(p)
        assert [json.loads(line) for line in p.read_text().splitlines()] == [
            {"type": "meta", **trace.meta},
            *({"type": "generation", **record} for record in trace.generations),
        ]

    def test_failed_save_keeps_previous_file(self, tmp_path):
        spec = toy_spec()
        _, trace = E.evolve(toy_batch, spec, small_schedule(), np.random.default_rng(11))
        p = tmp_path / "trace.jsonl"
        trace.save(p)
        before = p.read_bytes()
        trace.generations[1]["bad"] = object()  # not JSON: raises after two lines are written
        with pytest.raises(TypeError):
            trace.save(p)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_lines_are_json(self, tmp_path):
        spec = toy_spec()
        _, trace = E.evolve(toy_batch, spec, small_schedule(generations=1),
                            np.random.default_rng(7))
        p = tmp_path / "trace.jsonl"
        trace.save(p)
        lines = p.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "meta"
        assert all(json.loads(line)["type"] == "generation" for line in lines[1:])


def report_line(text: str, label: str) -> str:
    """What follows ``label :`` in a report line."""
    (line,) = [line for line in text.splitlines() if line.strip().startswith(label)]
    return line.split(":", 1)[1].strip()


class TestReport:
    def test_single_generation_counts(self):
        spec = toy_spec()
        schedule = small_schedule(generations=0, initial_population=12)
        _, trace = E.evolve(toy_batch, spec, schedule, np.random.default_rng(8))
        text = E.report(trace)
        best = trace.generations[0]["best_so_far"]
        assert report_line(text, "best config") == best["config"]
        assert report_line(text, "best-so-far") == f"{best['fitness']:.4f}"
        distinct = {c["config"] for c in trace.generations[0]["candidates"]}
        assert f"top-{min(E.TOP_K, len(distinct))} configs" in text

    def test_monotone_curve_in_summary(self):
        spec = toy_spec()
        _, trace = E.evolve(toy_batch, spec, small_schedule(), np.random.default_rng(9))
        curve = trace.best_so_far_curve()
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        assert report_line(E.report(trace), "best-so-far") == ", ".join(
            f"{v:.4f}" for v in curve
        )

    def test_averages_recomputable_from_trace_file(self, tmp_path):
        spec = toy_spec()
        _, trace = E.evolve(toy_batch, spec, small_schedule(), np.random.default_rng(10))
        p = tmp_path / "trace.jsonl"
        trace.save(p)
        text = E.report(trace)

        # independent recomputation from the file
        records = [json.loads(line) for line in p.read_text().splitlines()[1:]]
        seen = {}
        for rec in records:
            for c in rec["candidates"]:
                seen[c["config"]] = (c["fitness"], c["params"])
        ranked = sorted(seen.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))[:E.TOP_K]
        assert len(ranked) == E.TOP_K
        for m in ("adapter", "lora", "vpt"):
            vals = [
                np.mean([S.SubnetConfig.decode(enc).active_dim(m, layer) for enc, _ in ranked])
                for layer in range(2)
            ]
            assert report_line(text, m) == ", ".join(f"{v:.1f}" for v in vals)

    def test_empty_trace_rejected(self):
        with pytest.raises(E.EvolutionError):
            E.report(E.SearchTrace({"seed": 0}))
