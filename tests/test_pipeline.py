import math

import pytest

from noah import backbone as B
from noah import pipeline as P
from noah import tensor as T
from noah.config import ConfigError, config_from_dict
from noah.data import gen_synthetic

TINY = {
    "seed": 3,
    "backbone": {"num_layers": 2, "embed_dim": 16, "num_heads": 2, "mlp_hidden": 32},
    "pretrain": {"epochs": 0},
    "search_space": {"depth_choices": [1, 2], "dim_choices": [1, 2], "budget": 10**6},
    "supernet_hyper": {"base_lr": 3e-3, "total_epochs": 1, "warmup_epochs": 0, "batch_size": 16},
    "subnet_hyper": {"base_lr": 3e-3, "total_epochs": 1, "warmup_epochs": 0, "batch_size": 16},
    "evolution": {"generations": 2, "initial_population": 6, "parent_count": 3,
                  "per_gen_random": 3, "per_gen_crossover": 3, "per_gen_mutation": 3},
}


def tiny_run():
    return config_from_dict(TINY), gen_synthetic("pattern-class", 4, 40, seed=3)


class TestConfig:
    def test_evolution_workers_key_rejected(self):
        doc = {"evolution": {**TINY["evolution"], "workers": 4}}
        with pytest.raises(ConfigError, match="workers"):
            config_from_dict(doc)


class TestSearch:
    def test_grad_mode_restored_after_search(self, tmp_path):
        run, dataset = tiny_run()
        sn, _ = P.train_supernet_stage(run, dataset)
        best, trace = P.evolve_stage(run, sn, dataset)
        assert T.grad_enabled()
        _, log = P.retrain_stage(run, sn, best, dataset)
        assert math.isfinite(log[-1]["train_loss"])

        # the whole-forward checkpoint path agrees with the shared-prefix walk
        path = tmp_path / "supernet.noah"
        P.save_model_weights(path, sn.weights)
        fitness = trace.generations[-1]["best_so_far"]["fitness"]
        assert P.evaluate_checkpoint(path, best, run, dataset, "val") == fitness

    def test_trace_counts_block_forwards(self, monkeypatch):
        run, dataset = tiny_run()
        sn, _ = P.train_supernet_stage(run, dataset)
        calls = []
        block_forward = B.block_forward

        def counting(*args, **kwargs):
            calls.append(args[1])
            return block_forward(*args, **kwargs)

        monkeypatch.setattr(B, "block_forward", counting)
        _, trace = P.evolve_stage(run, sn, dataset)
        assert sum(g["block_forwards"] for g in trace.generations) == len(calls)
        for g in trace.generations:
            assert g["fresh"] + g["cache_hits"] == len(g["candidates"])
            # at most one block per layer per fresh config; the val split is one batch slice
            assert g["block_forwards"] <= g["fresh"] * run.backbone.num_layers
            assert (g["block_forwards"] > 0) == (g["fresh"] > 0)
