import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noah import space as S


def desk_spec(budget=10**9, **kw):
    return S.SearchSpaceSpec(num_layers=4, budget=budget, **kw)


def vitb_spec():
    return S.SearchSpaceSpec(
        num_layers=12,
        depth_choices=(3, 6, 9, 12),
        dim_choices={m: (1, 5, 10) for m in S.MODULES},
        embed_dim=768,
    )


# ---------------------------------------------------------------------------
# sampling


class TestSampleUniform:
    def test_samples_are_valid(self):
        spec = desk_spec()
        rng = np.random.default_rng(0)
        for _ in range(200):
            cfg = S.sample_uniform(spec, rng)
            assert S.validate(cfg, spec) == []

    def test_depth_frequencies_uniform(self):
        spec = desk_spec()
        rng = np.random.default_rng(1)
        n = 10_000
        counts = {d: 0 for d in spec.depth_choices}
        for _ in range(n):
            cfg = S.sample_uniform(spec, rng)
            counts[cfg.adapter.depth] += 1
        p = 1.0 / len(spec.depth_choices)
        four_sigma = 4.0 * np.sqrt(p * (1 - p) / n)
        for d, c in counts.items():
            assert abs(c / n - p) < four_sigma, f"depth {d}: {c / n}"

    def test_dim_frequencies_uniform_within_depth(self):
        spec = desk_spec()
        rng = np.random.default_rng(2)
        n = 10_000
        counts = {v: 0 for v in spec.dim_choices["vpt"]}
        total = 0
        for _ in range(n):
            g = S.sample_uniform(spec, rng).vpt
            for i in range(g.depth):
                counts[g.dims[i]] += 1
                total += 1
        p = 1.0 / len(spec.dim_choices["vpt"])
        four_sigma = 4.0 * np.sqrt(p * (1 - p) / total)
        for v, c in counts.items():
            assert abs(c / total - p) < four_sigma, f"dim {v}: {c / total}"

    def test_seeded_rng_repeats(self):
        spec = desk_spec()
        seq1 = [S.sample_uniform(spec, np.random.default_rng(42)).encode() for _ in range(1)]
        runs = [
            [S.sample_uniform(spec, rng).encode() for _ in range(20)]
            for rng in (np.random.default_rng(7), np.random.default_rng(7))
        ]
        assert runs[0] == runs[1]
        assert seq1  # smoke: encoding non-empty


# ---------------------------------------------------------------------------
# parameter counting


def oracle_count(cfg: S.SubnetConfig, embed_dim: int) -> int:
    """Instantiate every trainable tensor the subnet would own and sum sizes."""
    arrays = []
    d = embed_dim
    for m in S.MODULES:
        g = cfg.gene(m)
        for layer in range(g.depth):
            r = g.dims[layer]
            if r == 0:
                continue
            if m == "adapter":
                arrays += [np.zeros((d, r)), np.zeros(r), np.zeros((r, d)), np.zeros(d)]
            elif m == "lora":
                for _ in ("q", "k"):
                    arrays += [np.zeros((d, r)), np.zeros((r, d))]
            else:
                arrays += [np.zeros((r, d))]
    return sum(a.size for a in arrays)


class TestCountParams:
    def test_all_zero_config(self):
        assert S.count_params(S.SubnetConfig.empty(4), 64) == 0

    def test_vitb_adapter_r8(self):
        cfg = S.SubnetConfig.uniform("adapter", dim=8, depth=12, num_layers=12)
        assert S.count_params(cfg, 768) == 156_768
        assert S.count_params(cfg, 768) == oracle_count(cfg, 768)

    def test_vitb_lora_r8(self):
        cfg = S.SubnetConfig.uniform("lora", dim=8, depth=12, num_layers=12)
        assert S.count_params(cfg, 768) == 294_912
        assert S.count_params(cfg, 768) == oracle_count(cfg, 768)

    def test_matches_oracle_on_random_configs(self):
        spec = desk_spec()
        rng = np.random.default_rng(3)
        for _ in range(50):
            cfg = S.sample_uniform(spec, rng)
            assert S.count_params(cfg, spec.embed_dim) == oracle_count(cfg, spec.embed_dim)

    def test_monotone_in_dims_and_depth(self):
        spec = desk_spec()
        rng = np.random.default_rng(4)
        ladder = spec.dim_gene_choices("adapter")
        for _ in range(100):
            cfg = S.sample_uniform(spec, rng)
            base = S.count_params(cfg, spec.embed_dim)
            m = S.MODULES[rng.integers(3)]
            g = cfg.gene(m)
            if g.depth == 0:
                continue
            layer = int(rng.integers(g.depth))
            cur = g.dims[layer]
            bigger = [v for v in ladder if v > cur]
            if not bigger:
                continue
            dims = tuple(bigger[0] if i == layer else v for i, v in enumerate(g.dims))
            genes = {name: cfg.gene(name) for name in S.MODULES}
            genes[m] = S.ModuleGene(g.depth, dims)
            assert S.count_params(S.SubnetConfig(**genes), spec.embed_dim) >= base


# ---------------------------------------------------------------------------
# validation


class TestValidate:
    def test_sampled_config_ok(self):
        spec = desk_spec()
        cfg = S.sample_uniform(spec, np.random.default_rng(5))
        assert S.validate(cfg, spec) == []

    def test_non_canonical_flagged(self):
        spec = desk_spec()
        bad = S.SubnetConfig(
            adapter=S.ModuleGene(1, (5, 5, 0, 0)),
            lora=S.ModuleGene(0, (0, 0, 0, 0)),
            vpt=S.ModuleGene(0, (0, 0, 0, 0)),
        )
        codes = [v.code for v in S.validate(bad, spec)]
        assert "non-canonical" in codes

    def test_over_budget_flagged(self):
        spec = desk_spec(budget=100)
        big = S.SubnetConfig(
            adapter=S.ModuleGene(4, (10, 10, 10, 10)),
            lora=S.ModuleGene(4, (10, 10, 10, 10)),
            vpt=S.ModuleGene(4, (10, 10, 10, 10)),
        )
        codes = [v.code for v in S.validate(big, spec)]
        assert codes == ["over_budget"]

    def test_bad_depth_choice(self):
        spec = desk_spec(depth_choices=(2, 4))
        cfg = S.SubnetConfig.uniform("vpt", dim=5, depth=3, num_layers=4)
        codes = [v.code for v in S.validate(cfg, spec)]
        assert "depth_choice" in codes


class TestBudgetSampling:
    def test_never_over_budget(self):
        spec = desk_spec(budget=1500)
        rng = np.random.default_rng(6)
        for _ in range(200):
            cfg = S.sample_within_budget(spec, rng)
            assert S.spec_count(spec, cfg) <= spec.budget

    def test_shrink_fallback_reaches_tight_budget(self):
        # budget below any single active module layer forces the shrink path
        spec = desk_spec(budget=10)
        cfg = S.sample_within_budget(spec, np.random.default_rng(7), max_tries=5)
        assert S.spec_count(spec, cfg) <= 10


# ---------------------------------------------------------------------------
# crossover / mutation


class TestCrossover:
    def test_identical_parents_idempotent(self):
        spec = desk_spec()
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = S.sample_uniform(spec, rng)
            assert S.crossover(a, a, rng) == a

    def test_child_genes_come_from_parents(self):
        spec = desk_spec()
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = S.sample_uniform(spec, rng)
            b = S.sample_uniform(spec, rng)
            child = S.crossover(a, b, rng)
            for m in S.MODULES:
                assert child.gene(m).depth in (a.gene(m).depth, b.gene(m).depth)
                for i in range(child.gene(m).depth):
                    assert child.gene(m).dims[i] in (a.gene(m).dims[i], b.gene(m).dims[i])

    def test_fifty_fifty_inheritance(self):
        full = desk_spec()
        a = S.SubnetConfig.uniform("adapter", 5, 4, 4)
        a = S.SubnetConfig(a.adapter, S.ModuleGene(4, (5, 5, 5, 5)), S.ModuleGene(4, (5, 5, 5, 5)))
        b = S.SubnetConfig(
            S.ModuleGene(4, (10, 10, 10, 10)),
            S.ModuleGene(4, (10, 10, 10, 10)),
            S.ModuleGene(4, (10, 10, 10, 10)),
        )
        assert S.validate(a, full) == [] and S.validate(b, full) == []
        rng = np.random.default_rng(10)
        n = 1000
        from_a = np.zeros(12)  # 3 modules x 4 dim genes
        for _ in range(n):
            child = S.crossover(a, b, rng)
            k = 0
            for m in S.MODULES:
                for i in range(4):
                    from_a[k] += child.gene(m).dims[i] == 5
                    k += 1
        four_sigma = 4.0 * np.sqrt(0.25 / n)
        assert np.all(np.abs(from_a / n - 0.5) < four_sigma)


class TestMutate:
    def test_p_zero_identity(self):
        spec = desk_spec()
        rng = np.random.default_rng(11)
        for _ in range(20):
            cfg = S.sample_uniform(spec, rng)
            assert S.mutate(cfg, spec, 0.0, rng) == cfg

    def test_p_one_stays_in_choice_sets(self):
        spec = desk_spec()
        rng = np.random.default_rng(12)
        for _ in range(50):
            cfg = S.mutate(S.sample_uniform(spec, rng), spec, 1.0, rng)
            assert S.validate(cfg, spec) == []

    def test_change_rate_matches_analytic_expectation(self):
        # single depth choice pins the depth gene so only dim genes move
        spec = desk_spec(depth_choices=(4,))
        start = S.SubnetConfig(
            S.ModuleGene(4, (5, 5, 5, 5)),
            S.ModuleGene(4, (5, 5, 5, 5)),
            S.ModuleGene(4, (5, 5, 5, 5)),
        )
        p = 0.2
        n_choices = len(spec.dim_gene_choices("adapter"))  # dim choices plus 0
        expected = p * (1.0 - 1.0 / n_choices)
        rng = np.random.default_rng(13)
        trials = 10_000
        changed = 0
        total = trials * 12
        for _ in range(trials):
            out = S.mutate(start, spec, p, rng)
            for m in S.MODULES:
                for i in range(4):
                    changed += out.gene(m).dims[i] != 5
        four_sigma = 4.0 * np.sqrt(expected * (1 - expected) / total)
        assert abs(changed / total - expected) < four_sigma


# ---------------------------------------------------------------------------
# encoding round trips


@st.composite
def configs(draw):
    spec = desk_spec()
    genes = {}
    for m in S.MODULES:
        depth = draw(st.sampled_from((0,) + spec.depth_choices))
        dim_set = spec.dim_gene_choices(m)
        dims = tuple(
            draw(st.sampled_from(dim_set)) if i < depth else 0 for i in range(4)
        )
        genes[m] = S.ModuleGene(depth, dims)
    return S.SubnetConfig(**genes)


class TestEncoding:
    @given(configs())
    @settings(max_examples=100, deadline=None)
    def test_encode_decode_bijection(self, cfg):
        assert S.SubnetConfig.decode(cfg.encode()) == cfg

    @given(configs())
    @settings(max_examples=50, deadline=None)
    def test_dict_document_roundtrip(self, cfg):
        doc = json.loads(json.dumps(cfg.to_dict()))
        genes = {m: S.ModuleGene(doc[m]["depth"], tuple(doc[m]["dims"])) for m in S.MODULES}
        assert doc["num_layers"] == cfg.num_layers
        assert S.SubnetConfig(**genes) == cfg

    def test_dict_is_keyed_by_module(self):
        cfg = S.SubnetConfig.uniform("lora", 5, 2, 4)
        assert cfg.to_dict() == {
            "num_layers": 4,
            "adapter": {"depth": 0, "dims": [0, 0, 0, 0]},
            "lora": {"depth": 2, "dims": [5, 5, 0, 0]},
            "vpt": {"depth": 0, "dims": [0, 0, 0, 0]},
        }
