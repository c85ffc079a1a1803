import itertools
import json
import re

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
        spec = toy_spec()
        _, trace = E.evolve(toy_batch, spec, small_schedule(), np.random.default_rng(6))
        p = tmp_path / "trace.jsonl"
        trace.save(p)
        loaded = E.SearchTrace.load(p)
        assert loaded.meta == trace.meta
        assert loaded.generations == trace.generations

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

    @pytest.mark.parametrize("bad_line", ["{not json", "[1, 2]"])
    def test_malformed_line_rejected(self, tmp_path, bad_line):
        spec = toy_spec()
        _, trace = E.evolve(toy_batch, spec, small_schedule(generations=1),
                            np.random.default_rng(7))
        p = tmp_path / "trace.jsonl"
        trace.save(p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines + [bad_line]) + "\n")
        with pytest.raises(E.EvolutionError, match=f":{len(lines) + 1}: "):
            E.SearchTrace.load(p)

    def test_unexpected_record_type_names_path_and_line(self, tmp_path):
        spec = toy_spec()
        _, trace = E.evolve(toy_batch, spec, small_schedule(generations=1),
                            np.random.default_rng(7))
        p = tmp_path / "trace.jsonl"
        trace.save(p)
        lines = p.read_text().splitlines()
        lines.insert(2, json.dumps({"type": "meta", "seed": 1}))
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(E.EvolutionError, match=rf"^{re.escape(str(p))}:3: unexpected record type 'meta'"):
            E.SearchTrace.load(p)

    @pytest.mark.parametrize("key", ["candidates", "best_so_far"])
    def test_generation_without_key_names_path_and_line(self, tmp_path, key):
        _, trace = E.evolve(toy_batch, toy_spec(), small_schedule(generations=1),
                            np.random.default_rng(7))
        p = tmp_path / "trace.jsonl"
        del trace.generations[1][key]
        trace.save(p)
        with pytest.raises(E.EvolutionError, match=rf"^{re.escape(str(p))}:3: .*'{key}'"):
            E.SearchTrace.load(p)

    def test_candidates_not_a_list_names_path_and_line(self, tmp_path):
        """``"candidates": 5`` used to escape as a bare TypeError."""
        _, trace = E.evolve(toy_batch, toy_spec(), small_schedule(generations=1),
                            np.random.default_rng(7))
        trace.generations[1]["candidates"] = 5
        p = tmp_path / "trace.jsonl"
        trace.save(p)
        with pytest.raises(E.EvolutionError,
                           match=rf"^{re.escape(str(p))}:3: candidates is not a list"):
            E.SearchTrace.load(p)

    @pytest.mark.parametrize("where", ["candidate 1", "best_so_far"])
    def test_entry_without_params_names_path_and_line(self, tmp_path, where):
        """A candidate or best-so-far entry without ``params`` fails at load,
        not as a bare KeyError in ``report``."""
        _, trace = E.evolve(toy_batch, toy_spec(), small_schedule(generations=1),
                            np.random.default_rng(7))
        record = trace.generations[1]
        del (record["candidates"][1] if where == "candidate 1" else record["best_so_far"])["params"]
        p = tmp_path / "trace.jsonl"
        trace.save(p)
        with pytest.raises(E.EvolutionError,
                           match=rf"^{re.escape(str(p))}:3: {where} lacks \['params'\]"):
            E.SearchTrace.load(p)

    def test_lines_are_json(self, tmp_path):
        spec = toy_spec()
        _, trace = E.evolve(toy_batch, spec, small_schedule(generations=1),
                            np.random.default_rng(7))
        p = tmp_path / "trace.jsonl"
        trace.save(p)
        lines = p.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "meta"
        assert all(json.loads(line)["type"] == "generation" for line in lines[1:])


class TestReport:
    def test_single_generation_counts(self):
        spec = toy_spec()
        schedule = small_schedule(generations=0, initial_population=12)
        _, trace = E.evolve(toy_batch, spec, schedule, np.random.default_rng(8))
        text, summary = E.report(trace)
        assert summary["evaluations_per_generation"] == [12]
        assert "best config" in text

    def test_monotone_curve_in_summary(self):
        spec = toy_spec()
        _, trace = E.evolve(toy_batch, spec, small_schedule(), np.random.default_rng(9))
        _, summary = E.report(trace)
        curve = summary["fitness_curve"]
        assert all(a <= b for a, b in zip(curve, curve[1:]))

    def test_averages_recomputable_from_trace_file(self, tmp_path):
        spec = toy_spec()
        _, trace = E.evolve(toy_batch, spec, small_schedule(), np.random.default_rng(10))
        p = tmp_path / "trace.jsonl"
        trace.save(p)
        _, summary = E.report(trace)

        # independent recomputation from the file
        records = [json.loads(line) for line in p.read_text().splitlines()[1:]]
        seen = {}
        for rec in records:
            for c in rec["candidates"]:
                seen[c["config"]] = (c["fitness"], c["params"])
        ranked = sorted(seen.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))[:E.TOP_K]
        assert len(ranked) == E.TOP_K
        for m_idx, m in enumerate(("adapter", "lora", "vpt")):
            for layer in range(2):
                vals = []
                for enc, _ in ranked:
                    cfg = S.SubnetConfig.decode(enc)
                    vals.append(cfg.active_dim(m, layer))
                assert summary["average_dims_top_k"][m][layer] == pytest.approx(np.mean(vals))

    def test_corrupt_config_in_loaded_trace_is_a_space_error(self, tmp_path):
        """A top candidate whose lora depth exceeds its dims used to end the
        report in an IndexError."""
        _, trace = E.evolve(toy_batch, toy_spec(), small_schedule(generations=1),
                            np.random.default_rng(8))
        bad = "A1;1,0|L2;1|V0;0,0"
        trace.generations[-1]["candidates"][0].update(config=bad, fitness=99.0)
        p = tmp_path / "trace.jsonl"
        trace.save(p)
        with pytest.raises(S.SpaceError, match=re.escape(repr(bad))):
            E.report(E.SearchTrace.load(p))

    def test_empty_trace_rejected(self):
        with pytest.raises(E.EvolutionError):
            E.report(E.SearchTrace({"seed": 0}))
