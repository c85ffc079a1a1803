import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noah import optim as O
from noah import supernet as SN
from noah import tensor as T
from noah.backbone import BackboneConfig, init_backbone, freeze_backbone
from noah.optim import OptimHyper, TrainingDivergedError, batch_slices
from noah.prompts import active_slices, bank_regions, tensor_names
from noah.space import (
    MODULES, ModuleGene, SearchSpaceSpec, SubnetConfig, count_params, mutate, sample_uniform,
)
from noah.tensor import Tensor

from gradcheck import backbone_hash, records_graph, reference_forward


def tiny_setup(num_classes=3, seed=0):
    cfg = BackboneConfig(num_layers=2, embed_dim=16, num_heads=2, mlp_hidden=32,
                         patch_size=4, image_shape=(1, 8, 8), num_classes=num_classes)
    spec = SearchSpaceSpec(
        num_layers=2, depth_choices=(1, 2),
        dim_choices={m: (1, 2, 4) for m in ("adapter", "lora", "vpt")},
        embed_dim=16, budget=10**9,
    )
    rng = np.random.default_rng(seed)
    weights = init_backbone(cfg, rng)
    freeze_backbone(weights)
    sn = SN.build_supernet(weights, cfg, spec, rng)
    return cfg, spec, sn


def rand_data(cfg, n, seed=1):
    rng = np.random.default_rng(seed)
    images = rng.uniform(-1, 1, (n,) + cfg.image_shape).astype(np.float32)
    labels = rng.integers(0, cfg.num_classes, n).astype(np.int64)
    return images, labels


def hyper(epochs, **kw):
    defaults = dict(base_lr=1e-3, total_epochs=epochs, warmup_epochs=min(1, epochs), batch_size=8)
    defaults.update(kw)
    return OptimHyper(**defaults)


def randomized_setup(seed):
    """tiny_setup with trained-ish banks: random up-projections and VPT rows,
    so every active prompt module changes the output."""
    cfg, spec, sn = tiny_setup(seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name, t in sn.weights.items():
        if "w_up" in name or name.endswith(".P"):
            t.data[...] = rng.standard_normal(t.shape).astype(np.float32) * 0.2
    return cfg, spec, sn, rng


def train_uniform(sn, images, labels, hyper, rng):
    """Supernet training: one uniformly sampled subnet per step."""
    return SN.train_model(sn, images, labels, hyper, rng, lambda: sample_uniform(sn.spec, rng))


def all_weights_snapshot(sn):
    return {n: t.data.copy() for n, t in sn.weights.items()}


class TestTraining:
    def test_zero_epochs_changes_nothing(self):
        cfg, spec, sn = tiny_setup()
        images, labels = rand_data(cfg, 16)
        before = all_weights_snapshot(sn)
        log = train_uniform(sn, images, labels, hyper(0, warmup_epochs=0), np.random.default_rng(2))
        assert log == []
        for name, arr in before.items():
            assert np.array_equal(sn.weights[name].data, arr), name

    def test_backbone_hash_unchanged_by_training(self):
        cfg, spec, sn = tiny_setup()
        images, labels = rand_data(cfg, 24)
        h0 = backbone_hash(sn.weights)
        train_uniform(sn, images, labels, hyper(5), np.random.default_rng(3))
        assert backbone_hash(sn.weights) == h0

    def test_log_carries_sampled_config_stream(self):
        cfg, spec, sn = tiny_setup()
        images, labels = rand_data(cfg, 16)
        log = train_uniform(sn, images, labels, hyper(2), np.random.default_rng(4))
        assert len(log) == 2
        for epoch, record in enumerate(log):
            assert set(record) == {"epoch", "lr", "train_loss", "configs"}
            assert record["epoch"] == epoch
            assert len(record["configs"]) == 2  # 16 samples / batch 8
            for enc in record["configs"]:
                SubnetConfig.decode(enc)

    def test_gradient_locality_single_step(self):
        cfg, spec, sn = tiny_setup()
        images, labels = rand_data(cfg, 8)
        config = SubnetConfig(
            adapter=ModuleGene(1, (2, 0)), lora=ModuleGene(0, (0, 0)), vpt=ModuleGene(1, (2, 0))
        )
        before = all_weights_snapshot(sn)

        # one manual training step on a pinned config
        from noah.optim import AdamW
        opt = AdamW(sn.trainable(), hyper(1))
        loss = T.cross_entropy(sn.forward(images, config), labels)
        T.backward(loss)
        regions = SN.training_regions(sn)(config)
        opt.step(1e-3, regions)

        for name, arr in before.items():
            now = sn.weights[name].data
            if name.startswith("backbone."):
                assert np.array_equal(now, arr), name
            elif name in regions:
                untouched = np.ones(arr.shape, bool)
                untouched[regions[name]] = False
                assert np.array_equal(now[untouched], arr[untouched]), name
            else:
                assert np.array_equal(now, arr), name

    def test_training_loss_decreases_on_learnable_task(self):
        cfg, spec, sn = tiny_setup(num_classes=2, seed=5)
        rng = np.random.default_rng(6)
        n = 32
        labels = (np.arange(n) % 2).astype(np.int64)
        images = rng.uniform(-0.2, 0.2, (n,) + cfg.image_shape).astype(np.float32)
        images[labels == 1] += 0.8  # brightness-separable classes
        log = train_uniform(sn, images, labels, hyper(15, base_lr=3e-3), np.random.default_rng(7))
        assert log[-1]["train_loss"] < 0.5 * log[0]["train_loss"]

    def test_one_backward_per_step_through_optim(self, monkeypatch):
        """The bench tracer times backward by wrapping ``noah.optim.backward``,
        so training must look it up there on every step."""
        cfg, spec, sn = tiny_setup()
        images, labels = rand_data(cfg, 20)
        calls = []

        def counting(loss):
            calls.append(loss)
            T.backward(loss)

        monkeypatch.setattr(O, "backward", counting)
        log = train_uniform(sn, images, labels, hyper(1), np.random.default_rng(4))
        assert len(calls) == len(log[0]["configs"]) == 3  # 20 samples / batch 8

    def test_empty_split_rejected(self):
        cfg, spec, sn = tiny_setup()
        images, labels = rand_data(cfg, 0)
        with pytest.raises(ValueError, match="empty training split"):
            train_uniform(sn, images, labels, hyper(1), np.random.default_rng(4))

    def test_divergence_names_the_step_config(self):
        cfg, spec, sn = tiny_setup()
        images, labels = rand_data(cfg, 8)
        sn.weights["head.w"].data[...] = np.inf
        config = sample_uniform(spec, np.random.default_rng(8))
        # inf logits give the NaN loss
        with np.errstate(invalid="ignore"), pytest.raises(
            TrainingDivergedError, match=re.escape(f"step 0 with config {config.encode()}")
        ):
            SN.train_model(sn, images, labels, hyper(1), np.random.default_rng(9), lambda: config)


class TestEvaluate:
    def test_memorization_with_hand_set_head(self):
        cfg, spec, sn = tiny_setup(num_classes=2, seed=8)
        images, _ = rand_data(cfg, 2, seed=9)
        labels = np.array([0, 1])
        config = SubnetConfig.empty(2)
        # an identity head reads out the normed class-token features exactly
        d = cfg.embed_dim
        sn.weights["head.w"] = Tensor(np.eye(d, dtype=np.float32), requires_grad=True)
        sn.weights["head.b"] = Tensor(np.zeros(d, np.float32), requires_grad=True)
        feats = sn.forward(images, config).data
        w = np.stack([feats[0] - feats[1], feats[1] - feats[0]], axis=1)
        sn.weights["head.w"] = Tensor(w.astype(np.float32), requires_grad=True)
        sn.weights["head.b"] = Tensor(np.zeros(2, np.float32), requires_grad=True)
        assert SN.evaluate(sn, images, labels, [config]) == [1.0]

    def test_random_head_matches_chance(self):
        cfg, spec, sn = tiny_setup(num_classes=4, seed=10)
        rng = np.random.default_rng(11)
        n = 2000
        images = rng.uniform(-1, 1, (n,) + cfg.image_shape).astype(np.float32)
        labels = rng.integers(0, 4, n).astype(np.int64)  # independent of images
        [acc] = SN.evaluate(sn, images, labels, [sample_uniform(spec, rng)])
        p = 0.25
        three_sigma = 3 * np.sqrt(p * (1 - p) / n)
        assert abs(acc - p) < three_sigma

    def test_deterministic_and_side_effect_free(self):
        cfg, spec, sn = tiny_setup(seed=12)
        images, labels = rand_data(cfg, 40, seed=13)
        config = sample_uniform(spec, np.random.default_rng(14))
        before = all_weights_snapshot(sn)
        a1 = SN.evaluate(sn, images, labels, [config])
        a2 = SN.evaluate(sn, images, labels, [config])
        assert a1 == a2
        for name, arr in before.items():
            assert np.array_equal(sn.weights[name].data, arr)

    def test_empty_split_rejected(self):
        cfg, spec, sn = tiny_setup()
        with pytest.raises(ValueError, match="empty"):
            SN.evaluate(sn, np.zeros((0,) + cfg.image_shape, np.float32), np.zeros(0, np.int64),
                        [SubnetConfig.empty(2)])

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_nonpositive_batch_size_rejected_before_any_forward(self, batch_size, monkeypatch):
        cfg, spec, sn = tiny_setup()
        images, labels = rand_data(cfg, 8)
        calls = []
        monkeypatch.setattr(SN, "model_forward", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"batch_size must be positive, got {batch_size}"):
            SN.evaluate(sn, images, labels, [SubnetConfig.empty(2)], batch_size=batch_size)
        assert calls == []


def dims_config(adapter, lora, vpt):
    """A config from per-layer dims; each depth reaches the last nonzero dim."""
    genes = [
        ModuleGene(max((j + 1 for j, d in enumerate(dims) if d), default=0), dims)
        for dims in (adapter, lora, vpt)
    ]
    return SubnetConfig(*genes)


def walk_configs():
    """Two-layer configs covering the shapes of the shared-prefix walk."""
    return [
        dims_config((2, 4), (1, 0), (2, 0)),
        dims_config((2, 1), (1, 0), (2, 0)),  # shares layer 0 with the first
        dims_config((2, 4), (1, 0), (2, 0)),  # duplicate of the first
        dims_config((2, 4), (1, 0), (2, 4)),  # deeper VPT: prompts carried into layer 1
        dims_config((2, 4), (1, 0), (2, 1)),  # same depth, fewer layer-1 prompt rows
        dims_config((4, 4), (2, 2), (4, 4)),  # nothing shared
        dims_config((0, 0), (0, 0), (0, 0)),  # empty subnet
        dims_config((0, 0), (0, 0), (1, 0)),  # VPT only
    ]


def labels_for(sn, images, config):
    """Centre the head bias on ``config``'s mean logits, so predictions
    spread over the classes, and return its predictions as labels: ``config``
    scores 1.0 and a block run with the wrong prefix changes accuracies."""
    logits = sn.forward(images, config).data
    sn.weights["head.b"].data[...] -= logits.mean(axis=0)
    return sn.forward(images, config).data.argmax(axis=1)


SLICE = 16  # evaluation batch size: 37 samples make two full slices and a ragged one


def whole_forward_accuracies(sn, images, labels, configs, batch_size=SLICE):
    """Accuracy of each config from a plain per-layer forward of that config
    alone per batch slice, cut as ``evaluate`` cuts them."""
    expected = []
    for c in configs:
        correct = 0
        for lo, hi in batch_slices(len(labels), batch_size):
            logits = reference_forward(sn.weights, sn.cfg, images[lo:hi], c).data
            correct += int((logits.argmax(axis=1) == labels[lo:hi]).sum())
        expected.append(correct / len(labels))
    return expected


def active(c, layers):
    """Active dims of every module over the first ``layers`` layers."""
    return tuple(c.active_dim(m, j) for j in range(layers) for m in MODULES)


class TestSharedWalk:
    def test_batch_equals_one_config_at_a_time(self):
        cfg, spec, sn, rng = randomized_setup(seed=30)
        configs = walk_configs() + [sample_uniform(spec, rng) for _ in range(12)]
        images, _ = rand_data(cfg, 40, seed=31)
        labels = labels_for(sn, images, configs[3])
        alone = [SN.evaluate(sn, images, labels, [c])[0] for c in configs]
        assert len(set(alone)) > 2
        assert SN.evaluate(sn, images, labels, configs) == alone

    def test_equals_whole_forward_across_batch_slices(self):
        cfg, spec, sn, _ = randomized_setup(seed=32)
        configs = walk_configs()
        images, _ = rand_data(cfg, 37, seed=33)
        labels = labels_for(sn, images, configs[0])
        expected = whole_forward_accuracies(sn, images, labels, configs)
        assert len(set(expected)) > 2

        counts = {}
        got = SN.evaluate(sn, images, labels, configs, batch_size=SLICE, counts=counts)
        assert got == expected
        prefixes = sum(len({active(c, layer + 1) for c in configs}) for layer in range(2))
        assert counts["block_forwards"] == prefixes  # one walk, whatever the slicing

    def test_adapter_variants_share_one_trunk(self):
        cfg, spec, sn, _ = randomized_setup(seed=36)
        lora, vpt = (1, 2), (2, 1)
        configs = [
            dims_config(adapter, lora, vpt)
            for adapter in (
                (2, 4), (4, 4), (1, 4), (0, 4),  # differ at layer 0 only
                (2, 1), (2, 2), (2, 0),  # differ from the first at layer 1 only
            )
        ]
        images, _ = rand_data(cfg, 37, seed=37)
        labels = labels_for(sn, images, configs[0])
        expected = whole_forward_accuracies(sn, images, labels, configs)
        assert len(set(expected)) > 2

        counts = {}
        got = SN.evaluate(sn, images, labels, configs, batch_size=SLICE, counts=counts)
        assert got == expected
        trunk_keys = sum(
            len({(active(c, layer), c.active_dim("lora", layer), c.active_dim("vpt", layer))
                 for c in configs})
            for layer in range(2)
        )
        assert counts["block_trunks"] == trunk_keys == 1 + 4
        assert counts["block_trunks"] < counts["block_forwards"] == 4 + 7


@st.composite
def twins(draw):
    """A canonical two-layer config and its twin: one module's depth raised
    over dims of 0, which re-encodes the same network."""
    module = draw(st.sampled_from(MODULES))
    genes = {}
    for m in MODULES:
        depth = draw(st.integers(0, 1 if m == module else 2))
        dims = tuple(draw(st.sampled_from((0, 1, 2, 4))) if i < depth else 0 for i in range(2))
        genes[m] = ModuleGene(depth, dims)
    raised = draw(st.integers(genes[module].depth + 1, 2))
    twin = {**genes, module: ModuleGene(raised, genes[module].dims)}
    return SubnetConfig(**genes), SubnetConfig(**twin)


class TestTwins:
    @given(twins())
    @settings(max_examples=30, deadline=None)
    def test_twin_is_the_same_network(self, pair):
        config, twin = pair
        cfg, spec, sn, _ = randomized_setup(seed=38)
        images, _ = rand_data(cfg, 6, seed=39)
        assert twin.encode() != config.encode()
        assert twin.active_dims() == config.active_dims()
        assert count_params(twin, cfg.embed_dim) == count_params(config, cfg.embed_dim)
        assert np.array_equal(sn.forward(images, twin).data, sn.forward(images, config).data)


class TestEvaluateWorkers:
    """``evaluate`` with its worker count patched: the calling thread alone,
    or it and one or two started threads."""

    @pytest.fixture(params=[1, 2, 3], ids=["1worker", "2workers", "3workers"])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(SN, "eval_workers", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("n,batch_size", [(37, SLICE), (SLICE, SLICE), (2, 1)],
                             ids=["3slices", "1slice", "fewer_slices_than_workers"])
    def test_equals_whole_forward(self, workers, n, batch_size, monkeypatch):
        cfg, spec, sn, _ = randomized_setup(seed=50)
        configs = walk_configs()
        images, _ = rand_data(cfg, n, seed=51)
        labels = labels_for(sn, images, configs[0])
        expected = whole_forward_accuracies(sn, images, labels, configs, batch_size)

        threads = set()
        forward = SN.model_forward

        def recording(*args):
            threads.add(threading.get_ident())
            return forward(*args)

        monkeypatch.setattr(SN, "model_forward", recording)
        before = threading.active_count()
        got = SN.evaluate(sn, images, labels, configs, batch_size=batch_size)
        assert threading.active_count() == before
        assert got == expected
        # the caller and at least one pool thread, which may run two
        # workers' shares in turn
        in_flight = min(workers, -(-n // batch_size))
        assert (len(threads) > 1) == (in_flight > 1) and len(threads) <= in_flight
        assert records_graph()

    def test_forward_sees_recording_on_and_a_frozen_view(self, workers, monkeypatch):
        """Evaluation sets no grad mode: while it runs, an op on a tensor that
        requires grad records in every thread, and each slice's forward runs
        on weights that require none, over the model's own arrays."""
        cfg, spec, sn, _ = randomized_setup(seed=58)
        images, labels = rand_data(cfg, 37, seed=59)
        seen = []
        forward = SN.model_forward

        def probe(weights, *args):
            logits = forward(weights, *args)
            seen.append((
                records_graph(),
                not any(t.requires_grad for t in weights.values()),
                all(weights[name].data is t.data for name, t in sn.weights.items()),
                all(out._node is None for out in logits),
            ))
            return logits

        monkeypatch.setattr(SN, "model_forward", probe)
        SN.evaluate(sn, images, labels, walk_configs(), batch_size=SLICE)
        assert len(seen) == 3 and all(all(flags) for flags in seen)

    @pytest.mark.parametrize("env,cpus,expected", [
        ({}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 32, SN.EVAL_WORKERS_MAX),
        ({"OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"GOTO_NUM_THREADS": "1"}, 2, 2),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 1),
    ])
    def test_worker_count_from_blas_threads(self, env, cpus, expected, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(SN, "_OPENBLAS", True)
        monkeypatch.setattr(SN.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert SN.eval_workers() == expected
        monkeypatch.setattr(SN, "_OPENBLAS", False)  # another BLAS: never threads
        assert SN.eval_workers() == 1

    def test_counts_one_walk_for_any_worker_count(self, monkeypatch):
        cfg, spec, sn, _ = randomized_setup(seed=52)
        configs = walk_configs()
        images, labels = rand_data(cfg, 37, seed=53)
        tallies = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(SN, "eval_workers", lambda: workers)
            counts = {}
            SN.evaluate(sn, images, labels, configs, batch_size=SLICE, counts=counts)
            tallies.append(counts)
        prefixes = sum(len({active(c, layer + 1) for c in configs}) for layer in range(2))
        assert tallies[0]["block_forwards"] == prefixes
        assert tallies[1] == tallies[0] == tallies[2]

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        """Eight workers over ten slices, switching threads as often as the
        interpreter allows: each slice's hits land in its own slot and only
        the caller grows ``counts``, so no update is lost."""
        cfg, spec, sn, _ = randomized_setup(seed=56)
        configs = walk_configs()
        images, _ = rand_data(cfg, 37, seed=57)
        labels = labels_for(sn, images, configs[0])
        expected = whole_forward_accuracies(sn, images, labels, configs)
        prefixes = sum(len({active(c, layer + 1) for c in configs}) for layer in range(2))
        monkeypatch.setattr(SN, "eval_workers", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                counts = {}
                assert SN.evaluate(sn, images, labels, configs, batch_size=4,
                                   counts=counts) == expected
                assert counts["block_forwards"] == prefixes
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("poison", ["bank", "row"])
    def test_worker_error_raised_after_join(self, workers, poison):
        """Non-finite logits raise ``GradientError`` from the slice that
        meets them, naming the config and the slice's rows: in every slice
        for a poisoned bank, and only in slice 1 (a pool thread's first, with
        2 or 3 workers) for a poisoned image row."""
        cfg, spec, sn, _ = randomized_setup(seed=54)
        config = dims_config((2, 4), (1, 2), (2, 2))
        images, labels = rand_data(cfg, 37, seed=55)
        if poison == "bank":
            sn.weights["vpt.L1.P"].data[...] = np.nan
        else:
            images[20] = np.nan  # slice 1 of 0-16-32-37
        before = threading.active_count()
        rows = "0:16" if poison == "bank" else "16:32"
        with pytest.raises(T.GradientError,
                           match=f"non-finite logits for config {re.escape(config.encode())} "
                                 f"on rows {rows}"):
            SN.evaluate(sn, images, labels, [config], batch_size=SLICE)
        assert threading.active_count() == before
        assert records_graph()

    def test_caller_errstate_holds_in_every_worker(self, workers):
        """numpy's error state is per thread, and each worker runs under the
        caller's: an Inf image row in slice 1, a pool thread's first with 2
        or 3 workers, raises ``FloatingPointError`` at the op that meets it,
        not ``GradientError`` at the logits."""
        cfg, spec, sn, _ = randomized_setup(seed=60)
        images, labels = rand_data(cfg, 32, seed=61)
        images[20] = np.inf  # slice 1 of 0-16-32
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError, match="invalid value"):
                SN.evaluate(sn, images, labels, walk_configs(), batch_size=SLICE)


class TestExtraction:
    def test_forward_bit_equal_to_supernet(self):
        cfg, spec, sn, rng = randomized_setup(seed=15)
        for _ in range(10):
            config = sample_uniform(spec, rng)
            images, _ = rand_data(cfg, 3, seed=int(rng.integers(2**31)))
            model = SN.extract_subnet(sn, config)
            a = sn.forward(images, config).data
            b = model.forward(images, config).data
            assert a.tobytes() == b.tobytes()

    def test_trainable_count_matches_param_count(self):
        cfg, spec, sn = tiny_setup(seed=17)
        rng = np.random.default_rng(18)
        for _ in range(10):
            config = sample_uniform(spec, rng)
            model = SN.extract_subnet(sn, config)
            head = sum(t.size for n, t in model.weights.items() if n.startswith("head."))
            total = sum(t.size for t in model.trainable().values())
            assert total - head == count_params(config, spec.embed_dim)

    def test_all_zero_config_extracts_only_head(self):
        cfg, spec, sn = tiny_setup()
        model = SN.extract_subnet(sn, SubnetConfig.empty(2))
        trainable = set(model.trainable())
        assert trainable == {"head.w", "head.b"}

    def test_perturbing_beyond_prefix_changes_nothing(self):
        cfg, spec, sn, rng = randomized_setup(seed=19)
        config = SubnetConfig(
            adapter=ModuleGene(1, (2, 0)), lora=ModuleGene(1, (1, 0)), vpt=ModuleGene(1, (2, 0))
        )
        images, _ = rand_data(cfg, 3, seed=21)
        before = sn.forward(images, config).data.tobytes()
        sn.weights["adapter.L0.w_down"].data[:, 2:] += 9.0
        sn.weights["adapter.L1.w_down"].data[...] += 9.0  # inactive layer
        sn.weights["lora.L0.q.w_up"].data[1:, :] += 9.0
        sn.weights["vpt.L0.P"].data[2:, :] += 9.0
        sn.weights["vpt.L1.P"].data[...] += 9.0
        assert sn.forward(images, config).data.tobytes() == before

    def test_retraining_extracted_subnet(self):
        cfg, spec, sn = tiny_setup(num_classes=2, seed=22)
        rng = np.random.default_rng(23)
        n = 32
        labels = (np.arange(n) % 2).astype(np.int64)
        images = rng.uniform(-0.2, 0.2, (n,) + cfg.image_shape).astype(np.float32)
        images[labels == 1] += 0.8
        config = SubnetConfig(
            adapter=ModuleGene(1, (2, 0)), lora=ModuleGene(1, (2, 0)), vpt=ModuleGene(1, (2, 0))
        )
        model = SN.extract_subnet(sn, config)
        h0 = backbone_hash(model.weights)
        log = SN.train_model(model, images, labels, hyper(10, base_lr=3e-3),
                             np.random.default_rng(24), lambda: config, val=(images, labels))
        assert backbone_hash(model.weights) == h0
        assert "val_acc" in log[-1]
        assert log[-1]["train_loss"] < log[0]["train_loss"]

    def test_fresh_subnet_trains_from_scratch(self):
        cfg, spec, sn = tiny_setup(num_classes=2, seed=25)
        config = SubnetConfig.uniform("adapter", 2, 2, 2)
        model = SN.fresh_subnet(sn.weights, cfg, spec, config, np.random.default_rng(26))
        assert set(model.trainable()) == {
            "adapter.L0.w_down", "adapter.L0.b_down", "adapter.L0.w_up", "adapter.L0.b_up",
            "adapter.L1.w_down", "adapter.L1.b_down", "adapter.L1.w_up", "adapter.L1.b_up",
            "head.w", "head.b",
        }
        images, labels = rand_data(cfg, 8, seed=27)
        log = SN.train_model(model, images, labels, hyper(2), np.random.default_rng(28),
                             lambda: config)
        assert len(log) == 2


class TestLayout:
    @pytest.mark.parametrize("num_layers", [2, 3])
    def test_readers_agree(self, num_layers):
        """Supernet banks, extraction, fresh tensors and ``bank_regions`` all
        read one layout: for every config, the extracted and fresh subnets
        hold the same prompt-tensor names and shapes, each the supernet bank
        sliced by the config's regions, and parameter accounting counts
        exactly those entries."""
        cfg = BackboneConfig(num_layers=num_layers, embed_dim=16, num_heads=2, mlp_hidden=32,
                             patch_size=4, image_shape=(1, 8, 8), num_classes=3)
        spec = SearchSpaceSpec(
            num_layers=num_layers, depth_choices=tuple(range(1, num_layers + 1)),
            dim_choices={"adapter": (1, 3), "lora": (2, 4), "vpt": (1, 2, 5)}, embed_dim=16,
        )
        rng = np.random.default_rng(40 + num_layers)
        weights = init_backbone(cfg, rng)
        freeze_backbone(weights)
        sn = SN.build_supernet(weights, cfg, spec, rng)

        def prompt_shapes(model):
            return {n: t.shape for n, t in model.weights.items() if n not in weights}

        def sliced_banks(config):
            return {n: sn.weights[n].data[r].shape for n, r in bank_regions(config).items()}

        banks = prompt_shapes(sn)
        full = spec.full_config()
        assert banks == prompt_shapes(SN.fresh_subnet(weights, cfg, spec, full, rng))
        assert banks == sliced_banks(full)
        assert sum(np.prod(s) for s in banks.values()) == count_params(full, cfg.embed_dim)
        for _ in range(25):
            config = mutate(sample_uniform(spec, rng), spec, 0.3, rng)
            extracted = prompt_shapes(SN.extract_subnet(sn, config))
            assert extracted == prompt_shapes(SN.fresh_subnet(weights, cfg, spec, config, rng))
            assert extracted == sliced_banks(config)
            assert sum(np.prod(s) for s in extracted.values()) == count_params(
                config, cfg.embed_dim
            )

    def test_forward_reads_what_the_optimizer_updates(self):
        """The forward's ``active_slices`` and the optimizer's ``bank_regions``
        cut the same part of every active tensor, on the supernet's banks and
        on the exact-size tensors ``extract_subnet`` copies out."""
        cfg, spec, sn, rng = randomized_setup(seed=44)
        for _ in range(15):
            config = mutate(sample_uniform(spec, rng), spec, 0.3, rng)
            regions = bank_regions(config)
            extracted = SN.extract_subnet(sn, config).weights
            for m in MODULES:
                for layer in range(cfg.num_layers):
                    names = tensor_names(m, layer)
                    if config.active_dim(m, layer) == 0:
                        assert active_slices(sn.weights, config, m, layer) is None
                        assert not set(names) & set(regions)
                        continue
                    for weights in (sn.weights, extracted):
                        slices = active_slices(weights, config, m, layer)
                        for name, t in zip(names, slices, strict=True):
                            region = regions[name]
                            assert np.array_equal(t.data, weights[name].data[region]), name
                            assert np.array_equal(t.data, sn.weights[name].data[region]), name
