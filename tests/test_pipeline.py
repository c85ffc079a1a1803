import copy
import json
import math
import re

import numpy as np
import pytest

from noah import backbone as B
from noah import pipeline as P
from noah import space as S
from noah import supernet as SN
from noah import tensor as T
from noah.cli import main
from noah.config import ConfigError, config_from_dict, load_run_config
from noah.data import gen_synthetic, save_dataset
from noah.evolution import SearchTrace

from gradcheck import records_graph

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


def tiny_run(**sections):
    doc = copy.deepcopy(TINY)
    for name, values in sections.items():
        doc[name] = {**doc.get(name, {}), **values}
    return config_from_dict(doc), gen_synthetic("pattern-class", 4, 40, seed=3)


class TestConfig:
    @pytest.mark.parametrize(
        "section, key",
        [
            ("evolution", "workers"),
            ("evolution", "mutation_scope"),
            ("evolution", "max_tries"),
            ("search_space", "budget_includes_head"),
            ("runtime", "adapter_skip"),
            ("runtime", "lora_scale"),
            ("runtime", "decay_vpt"),
        ],
    )
    def test_removed_key_rejected(self, section, key):
        """Keys of removed features fail up front, not silently."""
        doc = {section: {**TINY.get(section, {}), key: 4}}
        with pytest.raises(ConfigError, match=rf"{section}: unknown keys \['{key}'\]"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value, cause",
        [
            pytest.param(*case, id=f"{case[0]}={case[1]}")
            for case in [
                ("evolution.parent_count", 0, r"parent_count 0 outside \(0, 6\]"),
                ("evolution.generations", "x", "generations must be an integer, got 'x'"),
                ("evolution.per_gen_random", 1.5, "per_gen_random must be an integer, got 1.5"),
                ("evolution.generations", 2.0, "generations must be an integer, got 2.0"),
                ("evolution.parent_count", True, "parent_count must be an integer, got True"),
                ("supernet_hyper.total_epochs", 1.5, "total_epochs must be an integer, got 1.5"),
                ("subnet_hyper.batch_size", 2.5, "batch_size must be an integer, got 2.5"),
                ("subnet_hyper.base_lr", -1, "base_lr and batch_size must be positive"),
                ("subnet_hyper.base_lr", True, "base_lr must be a number, got True"),
                ("search_space.budget", 2.5, "budget must be an integer, got 2.5"),
                ("backbone.num_heads", 0, "num_heads must be a positive integer, got 0"),
                ("backbone.num_layers", 0, "num_layers must be a positive integer, got 0"),
                ("backbone.patch_size", 0, "patch_size must be a positive integer, got 0"),
                ("backbone.num_heads", 3, "embed_dim 16 not divisible by num_heads 3"),
                ("backbone.embed_dim", 16.0, "embed_dim must be an integer, got 16.0"),
                ("seed", True, "seed must be an integer, got True"),
                ("pretrain.batch_size", 0, "base_lr and batch_size must be positive"),
                ("pretrain.base_lr", -1, "base_lr and batch_size must be positive"),
                ("pretrain.num_classes", 1, "num_classes must be at least 2, got 1"),
            ]
        ],
    )
    def test_bad_value_names_its_section(self, key, value, cause):
        """A bad value fails at load as a ConfigError naming its section
        (a top-level value names itself)."""
        doc = copy.deepcopy(TINY)
        section, _, name = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[name] = value
        prefix = f"{section}: " if section else ""
        with pytest.raises(ConfigError, match=f"^{prefix}{cause}"):
            config_from_dict(doc)

    def test_pretrain_warmup_clamped_to_epochs(self):
        run = config_from_dict({"pretrain": {"epochs": 1, "warmup_epochs": 2}})
        assert run.pretrain.to_hyper().warmup_epochs == 1

    @pytest.mark.parametrize(
        "values, cause",
        [
            ({"depth_choices": [0, 1]}, "depth choices must be positive"),
            ({"depth_choices": [1, 3]}, r"depth choices \(1, 3\) exceed num_layers 2"),
            ({"dim_choices": [0, 1]}, "dim choices for adapter must be positive"),
            ({"dim_choices": []}, "missing dim choices for adapter"),
            ({"dim_choices": {"adapter": [1], "lora": [], "vpt": [1]}},
             "missing dim choices for lora"),
        ],
    )
    def test_bad_search_space_rejected_at_load(self, values, cause):
        """Search-space choices fail when the config loads, before pretraining."""
        doc = copy.deepcopy(TINY)
        doc["search_space"].update(values)
        with pytest.raises(ConfigError, match=rf"^search_space: {cause}"):
            config_from_dict(doc)


class TestStages:
    def test_baseline_matches_budget(self):
        run, dataset = tiny_run(search_space={"budget": 100})
        model, log, config = P.baseline_stage(run, dataset, "lora")
        # lora at dim 2 or at depth 2 exceeds 100 parameters
        assert config == S.SubnetConfig.uniform("lora", 1, 1, 2)
        assert S.spec_count(model.spec, config) <= 100
        assert set(model.trainable()) == {
            "lora.L0.q.w_down", "lora.L0.q.w_up", "lora.L0.k.w_down", "lora.L0.k.w_up",
            "head.w", "head.b",
        }
        assert len(log) == run.subnet_hyper.total_epochs
        assert all(0.0 <= r["val_acc"] <= 1.0 for r in log)

    def test_retrain_from_scratch(self):
        run, dataset = tiny_run()
        scratch_run, _ = tiny_run(runtime={"retrain_from_scratch": True})
        sn, _ = P.train_supernet_stage(run, dataset)
        before = {n: t.data.copy() for n, t in sn.weights.items()}
        config, _ = P.evolve_stage(run, sn, dataset)
        warm, warm_log = P.retrain_stage(run, sn, config, dataset)
        fresh, fresh_log = P.retrain_stage(scratch_run, sn, config, dataset)
        assert {n: t.shape for n, t in fresh.weights.items()} == {
            n: t.shape for n, t in warm.weights.items()
        }
        assert fresh_log[0]["train_loss"] != warm_log[0]["train_loss"]
        assert "val_acc" in fresh_log[-1]
        for name, data in before.items():  # retraining never writes into the supernet
            assert np.array_equal(sn.weights[name].data, data), name

    def test_retrained_checkpoint_reproduces_logged_val_acc(self, tmp_path):
        run, dataset = tiny_run(subnet_hyper={"total_epochs": 2})
        sn, _ = P.train_supernet_stage(run, dataset)
        config, _ = P.evolve_stage(run, sn, dataset)
        model, log = P.retrain_stage(run, sn, config, dataset)
        path = tmp_path / "subnet.noah"
        P.save_model_weights(path, model.weights)
        assert P.evaluate_checkpoint(path, config, run, dataset, "val") == log[-1]["val_acc"]

    @pytest.mark.parametrize("encoding,tensor", [
        ("A2;1,1|L0;0,0|V0;0,0", "adapter.L1.w_down"),  # a layer the checkpoint lacks
        ("A1;1,0|L0;0,0|V1;2,0", "vpt.L0.P"),  # a module the checkpoint lacks
        ("A1;2,0|L0;0,0|V0;0,0", "adapter.L0.w_down"),  # wider than stored
    ])
    def test_config_that_does_not_fit_checkpoint_named(self, tmp_path, encoding, tensor):
        run, dataset = tiny_run()
        cfg = P.backbone_config(run, dataset)
        backbone, _ = P.build_frozen_backbone(run, cfg)
        sn = SN.build_supernet(backbone, cfg, P.search_spec(run, backbone),
                               np.random.default_rng(0))
        stored = S.SubnetConfig.decode("A1;1,0|L0;0,0|V0;0,0")
        path = tmp_path / "subnet.noah"
        P.save_model_weights(path, SN.extract_subnet(sn, stored).weights)
        config = S.SubnetConfig.decode(encoding)
        with pytest.raises(ConfigError, match=re.escape(encoding) + ".*" + re.escape(tensor)):
            P.evaluate_checkpoint(path, config, run, dataset, "val")

    def test_supernet_checkpoint_round_trip(self, tmp_path):
        run, dataset = tiny_run()
        sn, _ = P.train_supernet_stage(run, dataset)
        path = tmp_path / "supernet.noah"
        P.save_model_weights(path, sn.weights)
        loaded = P.supernet_from_checkpoint(path, run, dataset)
        assert loaded.cfg == sn.cfg and loaded.spec == sn.spec
        assert set(loaded.weights) == set(sn.weights)
        for name, t in sn.weights.items():
            assert loaded.weights[name].data.tobytes() == t.data.tobytes(), name
            assert loaded.weights[name].requires_grad == t.requires_grad, name
        images, _ = dataset.normalized("val")
        config = S.sample_uniform(sn.spec, np.random.default_rng(0))
        assert (loaded.forward(images, config).data.tobytes()
                == sn.forward(images, config).data.tobytes())


class TestCli:
    def test_run_writes_every_output(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(TINY))
        save_dataset(gen_synthetic("pattern-class", 4, 40, seed=3), tmp_path / "data")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--data", str(tmp_path / "data"),
                     "--out", str(out)]) == 0

        resolved = load_run_config(out / "config.json")
        assert resolved.seed == TINY["seed"]
        assert resolved.dataset.path == str(tmp_path / "data")
        trace = SearchTrace.load(out / "search_trace.jsonl")
        best = S.SubnetConfig.decode(trace.generations[-1]["best_so_far"]["config"])
        dataset = gen_synthetic("pattern-class", 4, 40, seed=3)
        fitness = trace.generations[-1]["best_so_far"]["fitness"]
        assert P.evaluate_checkpoint(out / "supernet.noah", best, resolved, dataset,
                                     "val") == fitness
        subnet = P.supernet_from_checkpoint(out / "subnet.noah", resolved, dataset)
        assert S.spec_count(subnet.spec, best) == sum(
            t.size for n, t in subnet.trainable().items() if not n.startswith("head.")
        )
        report = (out / "report.txt").read_text()
        assert report and report in capsys.readouterr().out

    @pytest.mark.parametrize("data", [None, "train-only"])
    def test_unusable_dataset_is_a_usage_error(self, tmp_path, data):
        """Rejected before any training: no dataset given, or no val split."""
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(TINY))
        argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "out")]
        if data is not None:
            dataset = gen_synthetic("pattern-class", 4, 40, seed=3)
            del dataset.splits["val"]
            save_dataset(dataset, tmp_path / data)
            argv += ["--data", str(tmp_path / data)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_bad_config_value_is_a_usage_error(self, tmp_path):
        """A value the config loader rejects exits 2 before any output."""
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({**TINY, "evolution": {"parent_count": 0}}))
        save_dataset(gen_synthetic("pattern-class", 4, 40, seed=3), tmp_path / "data")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(config_path), "--data", str(tmp_path / "data"),
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestSearch:
    def test_grad_mode_restored_after_search(self, tmp_path):
        run, dataset = tiny_run()
        sn, _ = P.train_supernet_stage(run, dataset)
        best, trace = P.evolve_stage(run, sn, dataset)
        assert records_graph()
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
        block_trunk = B.block_trunk

        def counting(*args, **kwargs):
            calls.append(args[1])
            return block_trunk(*args, **kwargs)

        monkeypatch.setattr(B, "block_trunk", counting)
        _, trace = P.evolve_stage(run, sn, dataset)
        assert sum(g["block_trunks"] for g in trace.generations) == len(calls)
        for g in trace.generations:
            assert g["fresh"] + g["cache_hits"] == len(g["candidates"])
            # at most one block per layer per fresh config; the val split is one batch slice
            assert g["block_forwards"] <= g["fresh"] * run.backbone.num_layers
            assert (g["block_forwards"] > 0) == (g["fresh"] > 0)
            assert g["block_trunks"] <= g["block_forwards"]
            assert (g["block_trunks"] > 0) == (g["fresh"] > 0)


def nan_checks_on() -> bool:
    try:
        T.add(T.Tensor([1.0]), T.Tensor([np.inf]))
    except T.GradientError:
        return True
    return False


class TestDebugValidation:
    """``runtime.debug_validation`` checks op outputs inside a stage only."""

    @pytest.mark.parametrize("stage", ["supernet", "baseline"])
    def test_flag_restored_after_stage(self, stage):
        run, dataset = tiny_run(runtime={"debug_validation": True})
        if stage == "supernet":
            P.train_supernet_stage(run, dataset)
        else:
            P.baseline_stage(run, dataset, "adapter")
        assert not nan_checks_on()

    def test_flag_restored_when_stage_raises(self, monkeypatch):
        run, dataset = tiny_run(runtime={"debug_validation": True})
        seen = []

        def failing_training(*args, **kwargs):
            seen.append(nan_checks_on())
            raise RuntimeError("training failed")

        monkeypatch.setattr(P, "train_model", failing_training)
        with pytest.raises(RuntimeError, match="training failed"):
            P.train_supernet_stage(run, dataset)
        assert seen == [True] and not nan_checks_on()
