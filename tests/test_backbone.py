import ast
from pathlib import Path

import numpy as np
import pytest

from noah import backbone as B
from noah import tensor as T
from noah.prompts import active_slices
from noah.space import ModuleGene, SubnetConfig
from noah.tensor import Tensor

from gradcheck import backbone_hash, full_banks, max_rel_err, numeric_grad, reference_forward

CFG = B.BackboneConfig()  # 4 layers, D=64, 4 heads, 16x16 images, patch 4


def tiny_cfg(**kw):
    defaults = dict(num_layers=2, embed_dim=16, num_heads=2, mlp_hidden=32,
                    patch_size=4, image_shape=(1, 8, 8), num_classes=3)
    defaults.update(kw)
    return B.BackboneConfig(**defaults)


def cast64(weights):
    return {
        n: Tensor(t.data.astype(np.float64), requires_grad=t.requires_grad)
        for n, t in weights.items()
    }


def rand_images(cfg, batch, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (batch,) + cfg.image_shape).astype(dtype)


class TestConfig:
    def test_token_count(self):
        assert CFG.num_tokens == 17

    def test_rejects_bad_dims(self):
        with pytest.raises(B.ModelError):
            B.BackboneConfig(embed_dim=65)
        with pytest.raises(B.ModelError):
            B.BackboneConfig(image_shape=(1, 15, 16))
        for divisor in ("num_heads", "patch_size"):  # checked before it divides
            with pytest.raises(B.ModelError, match=f"{divisor} must be positive"):
                B.BackboneConfig(**{divisor: 0})


class TestMsa:
    def one_layer_weights(self, cfg, seed=0):
        rng = np.random.default_rng(seed)
        return B.init_backbone(cfg, rng)

    def test_zero_qk_gives_uniform_attention(self):
        cfg = tiny_cfg()
        w = self.one_layer_weights(cfg)
        for proj in ("q", "k"):
            w[f"backbone.L0.attn.w{proj}"].data[...] = 0.0
            w[f"backbone.L0.attn.b{proj}"].data[...] = 0.0
        w["backbone.L0.attn.wo"] = Tensor(np.eye(cfg.embed_dim, dtype=np.float32))
        w["backbone.L0.attn.bo"] = Tensor(np.zeros(cfg.embed_dim, np.float32))
        rng = np.random.default_rng(1)
        xn = Tensor(rng.standard_normal((1, 5, cfg.embed_dim)).astype(np.float32))
        out = B.msa_forward(xn, w, 0, cfg, SubnetConfig.empty(2), 5)
        v = xn.data[0] @ w["backbone.L0.attn.wv"].data + w["backbone.L0.attn.bv"].data
        expected = np.repeat(v.mean(axis=0, keepdims=True), 5, axis=0)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-5)

    def test_single_token_attention_is_identity_weight(self):
        cfg = tiny_cfg()
        w1 = self.one_layer_weights(cfg, seed=2)
        w2 = {n: Tensor(t.data.copy(), requires_grad=t.requires_grad) for n, t in w1.items()}
        rng = np.random.default_rng(3)
        for proj in ("q", "k"):  # different query/key maps must not matter at N=1
            w2[f"backbone.L0.attn.w{proj}"] = Tensor(
                rng.standard_normal((cfg.embed_dim, cfg.embed_dim)).astype(np.float32)
            )
        xn = Tensor(rng.standard_normal((1, 1, cfg.embed_dim)).astype(np.float32))
        out1 = B.msa_forward(xn, w1, 0, cfg, SubnetConfig.empty(2), 1)
        out2 = B.msa_forward(xn, w2, 0, cfg, SubnetConfig.empty(2), 1)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-6)

    def test_three_token_single_head_hand_unrolled(self):
        cfg = tiny_cfg(num_heads=1, embed_dim=4, mlp_hidden=8)
        w = self.one_layer_weights(cfg, seed=4)
        rng = np.random.default_rng(5)
        xn_np = rng.standard_normal((1, 3, 4)).astype(np.float32)
        out = B.msa_forward(Tensor(xn_np), w, 0, cfg, SubnetConfig.empty(2), 3).data[0]

        # independent scalar unrolling of attention
        def mat(name):
            return w[f"backbone.L0.attn.{name}"].data.astype(np.float64)

        x = xn_np[0].astype(np.float64)
        q, k, v = (x @ mat("wq") + mat("bq"), x @ mat("wk") + mat("bk"), x @ mat("wv") + mat("bv"))
        scores = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                scores[i, j] = float(q[i] @ k[j]) / np.sqrt(4.0)
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        expected = attn @ v @ mat("wo") + mat("bo")
        np.testing.assert_allclose(out, expected, atol=1e-5)

    @pytest.mark.parametrize("layer", [0, 1], ids=["inner", "final"])
    @pytest.mark.parametrize("r", [1, 5])
    def test_lora_equals_merged_weights(self, r, layer):
        # LoRA at rank r is the plain projection with wq := wq + wd[:, :r] @ wu[:r]
        # (and the k twin); layer 1 is the final block, queried by the class row
        queries = 5 if layer == 0 else 1
        cfg = tiny_cfg()
        rng = np.random.default_rng(6)
        w = cast64(self.one_layer_weights(cfg, seed=5))
        banks = full_banks(cfg.num_layers, cfg.embed_dim, 8, rng)
        banks = {n: Tensor(rng.uniform(-0.5, 0.5, t.shape)) for n, t in banks.items()}
        config = SubnetConfig(
            adapter=ModuleGene(0, (0, 0)), lora=ModuleGene(2, (r, r)), vpt=ModuleGene(0, (0, 0))
        )
        merged = dict(w)
        for proj in ("q", "k"):
            wd = banks[f"lora.L{layer}.{proj}.w_down"].data[:, :r]
            wu = banks[f"lora.L{layer}.{proj}.w_up"].data[:r]
            name = f"backbone.L{layer}.attn.w{proj}"
            merged[name] = Tensor(w[name].data + wd @ wu)
        xn = Tensor(rng.standard_normal((2, 5, cfg.embed_dim)))
        lora = B.msa_forward(xn, {**w, **banks}, layer, cfg, config, queries)
        plain = B.msa_forward(xn, merged, layer, cfg, SubnetConfig.empty(2), queries)
        assert lora.shape == plain.shape == (2, queries, cfg.embed_dim)
        np.testing.assert_allclose(lora.data, plain.data, rtol=0, atol=1e-12)


class TestForward:
    def test_empty_config_matches_plain_backbone(self):
        rng = np.random.default_rng(6)
        w = B.init_backbone(CFG, rng)
        images = rand_images(CFG, 3, seed=7)
        plain = reference_forward(w, CFG, images)
        (empty,) = B.model_forward(w, CFG, images, [SubnetConfig.empty(CFG.num_layers)])
        assert plain.data.tobytes() == empty.data.tobytes()

    def test_identical_images_identical_logits(self):
        rng = np.random.default_rng(8)
        w = B.init_backbone(CFG, rng)
        one = rand_images(CFG, 1, seed=9)
        images = np.concatenate([one, one])
        (logits,) = B.model_forward(w, CFG, images, [SubnetConfig.empty(CFG.num_layers)])
        logits = logits.data
        assert np.array_equal(logits[0], logits[1])

    def test_zero_delta_prompts_bit_equal_plain(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(10)
        w = B.init_backbone(cfg, rng)
        banks = full_banks(cfg.num_layers, cfg.embed_dim, 4, rng)
        weights = {**w, **banks}
        config = SubnetConfig(
            adapter=ModuleGene(2, (4, 2)), lora=ModuleGene(1, (3, 0)), vpt=ModuleGene(0, (0, 0))
        )
        images = rand_images(cfg, 4, seed=11)
        plain = reference_forward(w, cfg, images)
        (prompted,) = B.model_forward(weights, cfg, images, [config])
        assert np.max(np.abs(plain.data - prompted.data)) == 0.0

    def test_twins_share_one_path(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(26)
        w = B.init_backbone(cfg, rng)
        weights = {**w, **full_banks(cfg.num_layers, cfg.embed_dim, 4, rng)}
        a, b = (
            SubnetConfig(adapter=ModuleGene(2, (4, last)), lora=ModuleGene(1, (3, 0)),
                         vpt=ModuleGene(2, (1, 2)))
            for last in (2, 1)
        )
        images = rand_images(cfg, 3, seed=27)
        with_twin, without = {}, {}
        logits = B.model_forward(weights, cfg, images, [a, a, b], with_twin)
        pair = B.model_forward(weights, cfg, images, [a, b], without)
        assert logits[0] is logits[1] and logits[2] is not logits[0]
        # a and b share layer 0, and layer 1 up to the adapter
        assert with_twin == without == {"block_trunks": 2, "block_forwards": 3}
        for got, config in ((logits[0], a), (logits[2], b), (pair[1], b)):
            ref = reference_forward(weights, cfg, images, config)
            assert got.data.tobytes() == ref.data.tobytes()

    def test_vpt_extends_sequence_inside_blocks(self, monkeypatch):
        # prompt rows join the attention input as keys and values only: the
        # block sees num_tokens + 3 rows, but returns num_tokens rows
        cfg = tiny_cfg(num_layers=3)  # layer 0 is not the final block
        rng = np.random.default_rng(12)
        w = B.init_backbone(cfg, rng)
        banks = full_banks(cfg.num_layers, cfg.embed_dim, 4, rng)
        weights = {**w, **banks}
        config = SubnetConfig(
            adapter=ModuleGene(0, (0, 0, 0)), lora=ModuleGene(0, (0, 0, 0)),
            vpt=ModuleGene(1, (3, 0, 0)),
        )
        images = rand_images(cfg, 1, seed=13)
        seen = []
        msa_forward = B.msa_forward

        def spy(xn, *args):
            seen.append(xn.shape[1])
            return msa_forward(xn, *args)

        monkeypatch.setattr(B, "msa_forward", spy)
        (x,) = B.block_forward(B.embed(weights, cfg, images), 0, weights, cfg, [config])
        assert seen == [cfg.num_tokens + 3]
        assert x.shape == (1, cfg.num_tokens, cfg.embed_dim)
        # the next layer has no vpt
        (x,) = B.block_forward(x, 1, weights, cfg, [config])
        assert seen[1] == cfg.num_tokens and x.shape[1] == cfg.num_tokens
        # the final block keeps the class row alone
        (x,) = B.block_forward(x, 2, weights, cfg, [config])
        assert x.shape == (1, 1, cfg.embed_dim)

    def test_vpt_token_gradient_vs_finite_differences(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(14)
        w = cast64(B.init_backbone(cfg, rng))
        banks = full_banks(cfg.num_layers, cfg.embed_dim, 4, rng)
        banks = cast64(banks)
        B.freeze_backbone(w)
        weights = {**w, **banks}
        config = SubnetConfig(
            adapter=ModuleGene(0, (0, 0)), lora=ModuleGene(0, (0, 0)), vpt=ModuleGene(2, (2, 3))
        )
        images = rand_images(cfg, 2, seed=15, dtype=np.float64)
        labels = np.array([0, 2])

        def loss_fn():
            (logits,) = B.model_forward(weights, cfg, images, [config])
            return T.cross_entropy(logits, labels)

        p = banks["vpt.L0.P"]
        p.grad = None
        T.backward(loss_fn())
        err = max_rel_err(p.grad[:2], numeric_grad(loss_fn, p)[:2])
        assert err < 1e-3


class TestFinalBlock:
    def test_class_row_equals_full_block(self):
        # layer 1 is final in a 2-layer model and not in a 3-layer one that
        # shares its weights; VPT, LoRA and the adapter are active there
        cfg2, cfg3 = tiny_cfg(), tiny_cfg(num_layers=3)
        rng = np.random.default_rng(20)
        w = B.init_backbone(cfg3, rng)
        banks = full_banks(3, cfg3.embed_dim, 4, rng)
        for t in banks.values():  # nonzero up-projections, so every module acts
            t.data = rng.uniform(-0.5, 0.5, t.shape)
        weights = cast64({**w, **banks})

        def config(layers):
            pad = (0,) * (layers - 2)
            return SubnetConfig(
                adapter=ModuleGene(2, (2, 3) + pad), lora=ModuleGene(2, (1, 4) + pad),
                vpt=ModuleGene(2, (3, 2) + pad),
            )

        images = rand_images(cfg3, 2, seed=21, dtype=np.float64)
        (x,) = B.block_forward(B.embed(weights, cfg3, images), 0, weights, cfg3, [config(3)])
        (full,) = B.block_forward(x, 1, weights, cfg3, [config(3)])
        (final,) = B.block_forward(x, 1, weights, cfg2, [config(2)])
        assert full.shape == (2, cfg3.num_tokens, cfg3.embed_dim)
        assert final.shape == (2, 1, cfg2.embed_dim)
        np.testing.assert_allclose(final.data, full.data[:, :1], rtol=0, atol=1e-12)


def full_row_block(x, layer, weights, cfg, config):
    """Reference block under the all-rows rule: the layer's prompt rows sit
    between the class token and the patches ([class, prompts, patches]),
    every row queries and every row comes out. Returns the output with the
    prompt rows dropped again."""
    n = x.shape[1]
    (rows,) = active_slices(weights, config, "vpt", layer) or (None,)
    m = 0 if rows is None else rows.shape[0]
    if m:
        b, d = x.shape[0], x.shape[2]
        rows = T.expand(T.reshape(rows, (1, m, d)), (b, m, d))
        x = T.concat([T.slice_axis(x, 1, 0, 1), rows, T.slice_axis(x, 1, 1, n)], axis=1)
    p = f"backbone.L{layer}."
    xn = T.layer_norm(x, weights[p + "ln1.gamma"], weights[p + "ln1.beta"])
    x = T.add(x, B.msa_forward(xn, weights, layer, cfg, config, x.shape[1]))
    un = T.layer_norm(x, weights[p + "ln2.gamma"], weights[p + "ln2.beta"])
    mlp_out = T.mlp(un, *(weights[p + f"mlp.{k}"] for k in ("w1", "b1", "w2", "b2")))
    out = B.block_finish(x, mlp_out, layer, weights, config)
    return T.concat([T.slice_axis(out, 1, 0, 1), T.slice_axis(out, 1, 1 + m, n + m)], axis=1)


class TestPromptRowsKeysOnly:
    """Prompt rows as keys and values only give the same class and patch
    rows as the all-rows rule, in float64, with every module active."""

    def build(self, seed):
        cfg = tiny_cfg(num_layers=3)
        rng = np.random.default_rng(seed)
        w = B.init_backbone(cfg, rng)
        banks = full_banks(3, cfg.embed_dim, 4, rng)
        for t in banks.values():  # nonzero up-projections, so every module acts
            t.data = rng.uniform(-0.5, 0.5, t.shape)
        weights = cast64({**w, **banks})
        config = SubnetConfig(
            adapter=ModuleGene(3, (3, 4, 2)), lora=ModuleGene(3, (2, 4, 3)),
            vpt=ModuleGene(3, (3, 4, 2)),
        )
        images = rand_images(cfg, 2, seed=seed + 1, dtype=np.float64)
        return cfg, weights, config, images

    def test_inner_block_equals_all_rows_rule(self):
        cfg, weights, config, images = self.build(seed=22)
        x = B.embed(weights, cfg, images)
        for layer in (0, 1):
            (out,) = B.block_forward(x, layer, weights, cfg, [config])
            ref = full_row_block(x, layer, weights, cfg, config)
            assert out.shape == ref.shape == (2, cfg.num_tokens, cfg.embed_dim)
            np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=1e-12)
            x = out

    def test_model_logits_equal_all_rows_rule(self):
        cfg, weights, config, images = self.build(seed=24)
        x = B.embed(weights, cfg, images)
        for layer in range(cfg.num_layers):
            x = full_row_block(x, layer, weights, cfg, config)
        ref = B.readout(weights, cfg, T.slice_axis(x, 1, 0, 1))
        (logits,) = B.model_forward(weights, cfg, images, [config])
        np.testing.assert_allclose(logits.data, ref.data, rtol=0, atol=1e-12)


class TestModelGradients:
    """Finite differences through ``model_forward`` in float64, per weight group."""

    def build(self, config, frozen=True, seed=16):
        cfg = tiny_cfg()
        rng = np.random.default_rng(seed)
        w = cast64(B.init_backbone(cfg, rng))
        if frozen:
            B.freeze_backbone(w)
        banks = full_banks(cfg.num_layers, cfg.embed_dim, 4, rng)
        for t in banks.values():  # nonzero up-projections, so down-projections get gradients
            t.data = rng.uniform(-0.5, 0.5, t.shape)
        weights = {**w, **cast64(banks)}
        images = rand_images(cfg, 2, seed=seed + 1, dtype=np.float64)
        labels = np.array([0, 2])

        def loss_fn():
            (logits,) = B.model_forward(weights, cfg, images, [config])
            return T.cross_entropy(logits, labels)

        return weights, loss_fn

    def check(self, weights, loss_fn, names):
        for n in names:
            weights[n].grad = None
        T.backward(loss_fn())
        for n in names:
            assert weights[n].grad is not None, n
            err = max_rel_err(weights[n].grad, numeric_grad(loss_fn, weights[n]))
            assert err < 1e-4, f"{n}: max relative error {err:.2e}"

    def test_unfrozen_attention_projections(self):
        # the pretraining path: gradients reach wq/wk/wv through the fused projection
        weights, loss_fn = self.build(SubnetConfig.empty(2), frozen=False)
        self.check(weights, loss_fn, [f"backbone.L0.attn.{n}" for n in ("wq", "wk", "wv", "bq")])

    def test_unfrozen_final_block(self):
        # the final block queries with the class row only; its q projection
        # and everything after attention get gradient through that row alone
        weights, loss_fn = self.build(SubnetConfig.empty(2), frozen=False)
        names = [f"backbone.L1.attn.{n}" for n in ("wq", "wk", "wv", "bq", "wo")]
        names += ["backbone.L1.mlp.w1", "backbone.L1.mlp.b2"]
        names += ["backbone.L1.ln1.gamma", "backbone.L1.ln2.gamma"]
        self.check(weights, loss_fn, names)

    def test_lora_banks(self):
        config = SubnetConfig(
            adapter=ModuleGene(0, (0, 0)), lora=ModuleGene(2, (3, 2)), vpt=ModuleGene(0, (0, 0))
        )
        weights, loss_fn = self.build(config)
        names = [f"lora.L{i}.{p}.{n}" for i in (0, 1) for p in ("q", "k") for n in ("w_down", "w_up")]
        self.check(weights, loss_fn, names)

    def test_adapter_banks(self):
        config = SubnetConfig(
            adapter=ModuleGene(1, (3, 0)), lora=ModuleGene(1, (2, 0)), vpt=ModuleGene(1, (2, 0))
        )
        weights, loss_fn = self.build(config)
        names = [f"adapter.L0.{n}" for n in ("w_down", "b_down", "w_up", "b_up")]
        self.check(weights, loss_fn, names)

    def test_final_block_banks(self):
        config = SubnetConfig(
            adapter=ModuleGene(2, (3, 2)), lora=ModuleGene(2, (2, 1)), vpt=ModuleGene(2, (2, 3))
        )
        weights, loss_fn = self.build(config)
        names = [f"adapter.L1.{n}" for n in ("w_down", "b_down", "w_up", "b_up")] + ["vpt.L1.P"]
        self.check(weights, loss_fn, names)


class TestFrozenContract:
    def test_init_deterministic(self):
        w1 = B.init_backbone(CFG, np.random.default_rng(42))
        w2 = B.init_backbone(CFG, np.random.default_rng(42))
        assert backbone_hash(w1) == backbone_hash(w2)
        assert all(np.array_equal(w1[n].data, w2[n].data) for n in w1)

    def test_freeze_flags(self):
        w = B.init_backbone(CFG, np.random.default_rng(0))
        B.freeze_backbone(w)
        for name, t in w.items():
            if name.startswith("backbone."):
                assert not t.requires_grad, name
            else:
                assert t.requires_grad, name

    def test_frozen_weights_get_no_grads(self):
        cfg = tiny_cfg()
        w = B.init_backbone(cfg, np.random.default_rng(1))
        B.freeze_backbone(w)
        images = rand_images(cfg, 2, seed=2)
        (logits,) = B.model_forward(w, cfg, images, [SubnetConfig.empty(cfg.num_layers)])
        loss = T.cross_entropy(logits, np.array([0, 1]))
        T.backward(loss)
        assert all(t.grad is None for n, t in w.items() if n.startswith("backbone."))
        assert w["head.w"].grad is not None


def test_backbone_is_model_code_only():
    """backbone.py holds the model alone: no training, data or pipeline code."""
    tree = ast.parse(Path(B.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.rsplit(".", 1)[-1])
        elif isinstance(node, ast.ImportFrom):  # from . import x
            imported.update(alias.name for alias in node.names)
    assert not imported & {"optim", "data", "supernet", "pipeline"}, sorted(imported)


def test_one_forward_path():
    """In ``src/noah`` only ``block_forward`` runs ``block_trunk`` and
    ``block_finish``, and only the shared-prefix walk runs ``block_forward``,
    so training and search share one block driver."""
    callers = {name: set() for name in ("block_trunk", "block_finish", "block_forward")}

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = f"{where.split('.')[0]}.{node.name}"
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in callers:
                callers[name].add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in Path(B.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    assert callers == {
        "block_trunk": {"backbone.block_forward"},
        "block_finish": {"backbone.block_forward"},
        "block_forward": {"backbone._walk"},
    }
