import copy
import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from noah import backbone as B
from noah import pipeline as P
from noah import space as S
from noah import supernet as SN
from noah import tensor as T
from noah.checkpoint import load_arrays, save_arrays
from noah.cli import main
from noah.config import ConfigError, config_from_dict, load_run_config
from noah.data import (
    channel_stats, gen_mixed_base_task, gen_synthetic, load_dataset, normalize_images,
    save_dataset,
)
from noah.optim import AdamW, batch_slices, full_region, lr_at

from gradcheck import reference_forward

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


def untrained_supernet(run, dataset):
    cfg = P.backbone_config(run, dataset)
    weights, spec, _ = P.build_frozen_backbone(run, cfg)
    return SN.build_supernet(weights, cfg, spec, np.random.default_rng(run.seed))


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
            ("runtime", "debug_validation"),
            ("runtime", "retrain_from_scratch"),
        ],
    )
    def test_removed_key_rejected(self, section, key):
        """Keys of removed features fail up front, not silently; so does the
        removed ``runtime`` section itself."""
        doc = {section: {**TINY.get(section, {}), key: 4}}
        cause = (r"unknown top-level keys \['runtime'\]" if section == "runtime"
                 else rf"{section}: unknown keys \['{key}'\]")
        with pytest.raises(ConfigError, match=cause):
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
            ({"depth_choices": [1.5]}, r"depth choices must be integers, got \[1.5\]"),
            ({"depth_choices": [True]}, r"depth choices must be integers, got \[True\]"),
            ({"dim_choices": [True, 2.5]},
             r"dim choices for adapter must be integers, got \[True, 2.5\]"),
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
        run, dataset = tiny_run()
        sn = untrained_supernet(run, dataset)
        # below the smallest search config (129 params), which the stages reject
        config = P.matched_budget_single_module(dataclasses.replace(sn.spec, budget=100), "lora")
        model, log = P.scratch_stage(run, sn, config, dataset)
        # lora at dim 2 or at depth 2 exceeds 100 parameters
        assert config == S.SubnetConfig.uniform("lora", 1, 1, 2)
        assert S.count_params(config, model.spec.embed_dim) <= 100
        assert set(model.trainable()) == {
            "lora.L0.q.w_down", "lora.L0.q.w_up", "lora.L0.k.w_down", "lora.L0.k.w_up",
            "head.w", "head.b",
        }
        assert len(log) == run.subnet_hyper.total_epochs
        assert all(0.0 <= r["val_acc"] <= 1.0 for r in log)

    def test_baseline_shares_the_supernet_backbone_and_head(self, monkeypatch):
        """From-scratch training runs on the supernet's own backbone objects,
        from a copy of its head, and writes nothing into the supernet."""
        run, dataset = tiny_run()
        sn, _ = P.train_supernet_stage(run, dataset)
        before = {n: t.data.copy() for n, t in sn.weights.items()}
        heads = {}

        def first_head(model, *args, **kwargs):
            heads.update({n: model.weights[n].data.copy() for n in B.HEAD_NAMES})
            return SN.train_model(model, *args, **kwargs)

        monkeypatch.setattr(P, "train_model", first_head)
        model, _ = P.scratch_stage(run, sn, P.matched_budget_single_module(sn.spec, "adapter"),
                                   dataset)
        for name, t in model.weights.items():
            if name.startswith("backbone."):
                assert t is sn.weights[name], name
        for name in B.HEAD_NAMES:
            assert heads[name].tobytes() == before[name].tobytes(), name
            assert model.weights[name] is not sn.weights[name], name
        for name, data in before.items():
            assert np.array_equal(sn.weights[name].data, data), name

    @pytest.mark.parametrize("module", S.MODULES)
    def test_matched_baseline_is_largest_fit(self, module):
        """Over every budget of a small spec, the matched design has the most
        parameters of any fitting single-module design, ties to the deeper."""
        base = S.SearchSpaceSpec(3, (1, 2, 3), {m: (1, 2, 4) for m in S.MODULES}, embed_dim=4)
        designs = {
            (dim, depth): S.count_params(S.SubnetConfig.uniform(module, dim, depth, 3), 4)
            for dim in (1, 2, 4) for depth in (1, 2, 3)
        }
        for budget in range(min(designs.values()), max(designs.values()) + 1):
            spec = dataclasses.replace(base, budget=budget)
            config = P.matched_budget_single_module(spec, module)
            gene = getattr(config, module)
            dim, depth = gene.dims[0], gene.depth
            assert config == S.SubnetConfig.uniform(module, dim, depth, 3)
            fitting = [(count, d) for (_, d), count in designs.items() if count <= budget]
            assert (designs[dim, depth], depth) == max(fitting)
        with pytest.raises(ConfigError, match=f"admits no {module} design"):
            P.matched_budget_single_module(
                dataclasses.replace(base, budget=min(designs.values()) - 1), module)

    def test_matched_baseline_default_budget(self):
        spec = S.SearchSpaceSpec(4, budget=1517)
        matched = {m: P.matched_budget_single_module(spec, m) for m in S.MODULES}
        assert matched == {m: S.SubnetConfig.uniform(m, 5, depth, 4)
                           for m, depth in (("adapter", 2), ("lora", 1), ("vpt", 4))}
        counts = [S.count_params(matched[m], spec.embed_dim) for m in S.MODULES]
        assert counts == [1418, 1280, 1280]

    def test_pretraining_matches_reference_loop(self):
        """Pretraining is a train_model run of a model with no prompt tensors:
        bit for bit the plain loop below, of AdamW over every weight with a
        plain per-layer forward without prompts."""
        run, dataset = tiny_run(pretrain={"epochs": 2, "samples": 96, "num_classes": 6,
                                          "batch_size": 16, "warmup_epochs": 1})
        cfg = P.backbone_config(run, dataset)
        weights, spec, log = P.build_frozen_backbone(run, cfg)

        pt, hyper = run.pretrain, run.pretrain.to_hyper()
        rng = np.random.default_rng(pt.seed)
        pre_cfg = dataclasses.replace(cfg, num_classes=pt.num_classes)
        ref = B.init_backbone(pre_cfg, rng)
        images, labels = gen_mixed_base_task(pt.num_classes, pt.samples, pt.seed,
                                             cfg.image_shape, pt.noise)
        images = normalize_images(images, *channel_stats(images))
        labels = labels.astype(np.int64)

        optimizer = AdamW(ref, hyper)
        n = len(labels)
        total_steps = math.ceil(n / hyper.batch_size) * hyper.total_epochs
        ref_log, step = [], 0
        for epoch in range(hyper.total_epochs):
            order = rng.permutation(n)
            losses = []
            for lo, hi in batch_slices(n, hyper.batch_size):
                lr = lr_at(step, total_steps, hyper)
                idx = order[lo:hi]
                logits = reference_forward(ref, pre_cfg, images[idx])
                loss = T.cross_entropy(logits, labels[idx])
                T.backward(loss)
                optimizer.step(lr, {name: full_region(t) for name, t in ref.items()})
                optimizer.zero_grad()
                losses.append(loss.item())
                step += 1
            ref_log.append({"epoch": epoch, "lr": lr, "train_loss": float(np.mean(losses))})
        B.freeze_backbone(ref)
        B.reinit_head(ref, cfg, rng)

        assert spec == P.search_spec(run, weights)
        assert [{k: r[k] for k in ("epoch", "lr", "train_loss")} for r in log] == ref_log
        assert [len(r["configs"]) for r in log] == [6, 6]  # 96 samples / batch 16
        assert set(weights) == set(ref)
        for name, t in weights.items():
            assert t.data.tobytes() == ref[name].data.tobytes(), name
            assert t.requires_grad == (not name.startswith("backbone.")), name
        assert weights["head.w"].shape == (cfg.embed_dim, dataset.num_classes)

    def test_infeasible_budget_fails_before_supernet_training(self, monkeypatch):
        run, dataset = tiny_run(search_space={"budget": 50})
        monkeypatch.setattr(P, "build_supernet", lambda *a: pytest.fail("supernet built"))
        with pytest.raises(ConfigError, match="budget 50: the smallest has 129 params"):
            P.train_supernet_stage(run, dataset)

    def test_infeasible_budget_fails_before_pretraining(self, monkeypatch):
        run, dataset = tiny_run(pretrain={"epochs": 3, "samples": 32},
                                search_space={"budget": 50})
        monkeypatch.setattr(P, "train_model", lambda *a, **k: pytest.fail("model trained"))
        with pytest.raises(ConfigError, match="budget 50: the smallest has 129 params"):
            P.train_supernet_stage(run, dataset)

    def test_retrain_from_scratch(self):
        run, dataset = tiny_run()
        sn, _ = P.train_supernet_stage(run, dataset)
        before = {n: t.data.copy() for n, t in sn.weights.items()}
        config, _ = P.evolve_stage(run, sn, dataset)
        warm, warm_log = P.retrain_stage(run, sn, config, dataset)
        fresh, fresh_log = P.scratch_stage(run, sn, config, dataset)
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
        backbone, spec, _ = P.build_frozen_backbone(run, cfg)
        sn = SN.build_supernet(backbone, cfg, spec, np.random.default_rng(0))
        stored = S.SubnetConfig.decode("A1;1,0|L0;0,0|V0;0,0")
        path = tmp_path / "subnet.noah"
        P.save_model_weights(path, SN.extract_subnet(sn, stored).weights)
        config = S.SubnetConfig.decode(encoding)
        with pytest.raises(ConfigError, match=re.escape(encoding) + ".*" + re.escape(tensor)):
            P.evaluate_checkpoint(path, config, run, dataset, "val")

    def test_nan_head_in_checkpoint_raises_naming_the_config(self, tmp_path):
        """A NaN head is an error naming the config, not an argmax of class 0
        on every row (chance, 0.25, on four classes)."""
        run, dataset = tiny_run()
        sn = untrained_supernet(run, dataset)
        sn.weights["head.w"].data[...] = np.nan
        path = tmp_path / "supernet.noah"
        P.save_model_weights(path, sn.weights)
        config = S.sample_uniform(sn.spec, np.random.default_rng(0))
        with pytest.raises(T.GradientError,
                           match="non-finite logits for config " + re.escape(config.encode())):
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
        save_dataset(gen_synthetic("pattern-class", 8, 1000, seed=3), tmp_path / "data.npz")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--data", str(tmp_path / "data.npz"),
                     "--out", str(out)]) == 0

        resolved = load_run_config(out / "config.json")
        assert resolved.seed == TINY["seed"]
        assert resolved.dataset.path == str(tmp_path / "data.npz")
        final = json.loads((out / "search_trace.jsonl").read_text().splitlines()[-1])
        best = S.SubnetConfig.decode(final["best_so_far"]["config"])
        dataset = load_dataset(tmp_path / "data.npz")
        fitness = final["best_so_far"]["fitness"]
        assert P.evaluate_checkpoint(out / "supernet.noah", best, resolved, dataset,
                                     "val") == fitness
        subnet = P.supernet_from_checkpoint(out / "subnet.noah", resolved, dataset)
        assert S.count_params(best, subnet.spec.embed_dim) == sum(
            t.size for n, t in subnet.trainable().items() if not n.startswith("head.")
        )
        report = (out / "report.txt").read_text()
        assert report and report in capsys.readouterr().out

    @pytest.mark.parametrize("data", [None, "train-only", "empty-train", "empty-val"])
    def test_unusable_dataset_is_a_usage_error(self, tmp_path, capsys, data):
        """Rejected before any training: no dataset given, no val split, or a
        train or val split with no rows."""
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(TINY))
        argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "out")]
        if data is not None:
            dataset = gen_synthetic("pattern-class", 4, 40, seed=3)
            if data == "train-only":
                del dataset.splits["val"]
            else:
                split = data.removeprefix("empty-")
                images, labels = dataset.splits[split]
                dataset.splits[split] = (images[:0], labels[:0])
            save_dataset(dataset, tmp_path / data)
            argv += ["--data", str(tmp_path / data)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        if data is not None and data.startswith("empty-"):
            assert f"{tmp_path / data}: empty ['{split}'] split" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_file_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        """``--out`` naming an existing file exits 2 naming it, before any
        training."""
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(TINY))
        save_dataset(gen_synthetic("pattern-class", 4, 40, seed=3), tmp_path / "data.npz")
        out = tmp_path / "out"
        out.write_text("not a directory")
        monkeypatch.setattr(P, "train_model", lambda *a, **k: pytest.fail("model trained"))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(config_path), "--data", str(tmp_path / "data.npz"),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    def test_bad_manifest_is_a_usage_error(self, tmp_path, capsys):
        """A manifest whose generator is not an object, or whose normalization
        has two means for one channel, exits 2, naming the file and the key."""
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(TINY))
        cases = [
            ({"generator": "ab"}, "generator must be an object"),
            ({"normalization": {"mean": [0.5, 0.5], "std": [0.25]}},
             "normalization needs one mean and one std per channel"),
        ]
        path = tmp_path / "data.npz"
        for edit, cause in cases:
            save_dataset(gen_synthetic("pattern-class", 4, 40, seed=3), path)
            arrays = load_arrays(path)
            manifest = json.loads(arrays["manifest"].item())
            arrays["manifest"] = np.array(json.dumps({**manifest, **edit}))
            save_arrays(path, arrays)
            with pytest.raises(SystemExit) as exc:
                main(["run", "--config", str(config_path), "--data", str(path),
                      "--out", str(tmp_path / "out")])
            assert exc.value.code == 2
            assert f"{path}: {cause}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_config_is_a_usage_error(self, tmp_path, capsys, kind):
        """A config path that is a directory, or a file that is not UTF-8,
        exits 2 naming the path, not with a traceback."""
        config_path = tmp_path / "run.json"
        if kind == "directory":
            config_path.mkdir()
        else:
            config_path.write_bytes(b'{"seed": "\xff"}')
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"{config_path}: unreadable config file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_config_value_is_a_usage_error(self, tmp_path):
        """A value the config loader rejects exits 2 before any output."""
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({**TINY, "evolution": {"parent_count": 0}}))
        save_dataset(gen_synthetic("pattern-class", 4, 40, seed=3), tmp_path / "data.npz")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(config_path), "--data", str(tmp_path / "data.npz"),
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestSearch:
    def test_search_retrain_and_checkpoint_agree(self, tmp_path):
        run, dataset = tiny_run()
        sn, _ = P.train_supernet_stage(run, dataset)
        best, trace = P.evolve_stage(run, sn, dataset)
        _, log = P.retrain_stage(run, sn, best, dataset)
        assert math.isfinite(log[-1]["train_loss"])

        # the whole-forward checkpoint path agrees with the shared-prefix walk
        path = tmp_path / "supernet.noah"
        P.save_model_weights(path, sn.weights)
        fitness = trace.generations[-1]["best_so_far"]["fitness"]
        assert P.evaluate_checkpoint(path, best, run, dataset, "val") == fitness

    def test_fitness_scores_each_network_once(self, monkeypatch):
        """``evaluate`` receives each network once per search, so a twin,
        another encoding of a network already scored, never reaches it.
        Seed 3 draws twins."""
        run, dataset = tiny_run()
        sn, _ = P.train_supernet_stage(run, dataset)
        sent = []
        evaluate = P.evaluate

        def recording(model, images, labels, configs, **kwargs):
            sent.extend(configs)
            return evaluate(model, images, labels, configs, **kwargs)

        monkeypatch.setattr(P, "evaluate", recording)
        _, trace = P.evolve_stage(run, sn, dataset)
        assert any(g["scored"] < g["fresh"] for g in trace.generations)
        networks = [config.active_dims() for config in sent]
        assert len(set(networks)) == len(networks) == sum(g["scored"] for g in trace.generations)

    def test_trace_equals_evaluating_every_config(self):
        """Every candidate, a twin included, is traced with the accuracy
        ``evaluate`` gives its config alone. Seed 3 draws twins."""
        run, dataset = tiny_run()
        sn, _ = P.train_supernet_stage(run, dataset)
        _, trace = P.evolve_stage(run, sn, dataset)
        assert any(g["scored"] < g["fresh"] for g in trace.generations)
        images, labels = dataset.normalized("val")
        for c in trace.all_candidates():
            config = S.SubnetConfig.decode(c["config"])
            assert c["fitness"] == SN.evaluate(sn, images, labels, [config])[0], c["config"]

    def test_trace_counts_block_forwards(self, monkeypatch):
        # one worker: the trace counts one walk per evaluation, while this
        # counts every block_trunk call, of every slice
        monkeypatch.setattr("noah.supernet.eval_workers", lambda: 1)
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
            assert g["scored"] <= g["fresh"]
            # at most one block per layer per scored network; the val split is one batch slice
            assert g["block_forwards"] <= g["scored"] * run.backbone.num_layers
            assert (g["block_forwards"] > 0) == (g["scored"] > 0)
            assert g["block_trunks"] <= g["block_forwards"]
            assert (g["block_trunks"] > 0) == (g["scored"] > 0)


def traced_peak(fn) -> int:
    """Peak bytes that Python's allocators traced while ``fn`` ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrainingMemory:
    """Training holds one step's autodiff graph at a time, and a graph keeps
    no activation that its backward does not read."""

    def tiny_supernet(self):
        run = config_from_dict(TINY)
        dataset = gen_synthetic("pattern-class", 4, 80, seed=3)
        model = untrained_supernet(run, dataset)
        images, labels = dataset.normalized("train")
        return run.supernet_hyper, model, images, labels

    def test_four_steps_peak_near_one_step(self):
        hyper, model, images, labels = self.tiny_supernet()
        bs = hyper.batch_size
        images, labels = images[: 4 * bs], labels[: 4 * bs]
        config = model.spec.full_config()

        def one_step():
            T.backward(T.cross_entropy(model.forward(images[:bs], config), labels[:bs]))

        step = traced_peak(one_step)
        for t in model.weights.values():
            t.grad = None
        log = []
        train = traced_peak(lambda: log.extend(SN.train_model(
            model, images, labels, hyper, np.random.default_rng(1), lambda: config)))
        assert len(log[0]["configs"]) == 4
        assert train < 1.2 * step, f"4 steps peaked at {train} B, one step at {step} B"

    def test_nodes_hold_no_activation_tensor(self):
        _, model, images, labels = self.tiny_supernet()
        loss = T.cross_entropy(model.forward(images[:8], model.spec.full_config()), labels[:8])
        nodes, stack = set(), [loss._node]
        while stack:
            node = stack.pop()
            nodes.add(node)
            for entry in node.inputs:
                if isinstance(entry, T.Node) and entry not in nodes:
                    stack.append(entry)
                elif isinstance(entry, T.Tensor):
                    assert entry.requires_grad and entry._node is None
        assert len(nodes) > 20
        for node in nodes:
            for cell in node.backward.__closure__ or ():
                value = cell.cell_contents
                values = value if isinstance(value, (tuple, list)) else (value,)
                assert not any(isinstance(v, T.Tensor) for v in values), node.backward
