"""Small frozen vision-transformer backbone hosting the prompt modules.

Pre-norm blocks, GELU MLP, and a final encoder norm (standard ViT layout; the
method itself does not constrain these). Per block, prompt modules attach at
fixed points: VPT tokens appended to the block's attention input, LoRA merged
into the query/key projection weights (W + BA, formed before the QKV GEMM, so
the low-rank path adds no per-row work), and the adapter bottleneck on the
MLP output inside the residual branch. Every block function takes the
weights dict and a ``SubnetConfig``, and reads each module's tensors through
``prompts.active_slices``.

Each block queries only with the rows the next stage reads. The layer's VPT
tokens are appended after the class and patch rows, and serve as keys and
values of that block's attention alone (VPT-Deep: every layer gets fresh
prompts, and no later stage reads the outputs at prompt positions). So the
query side (attention queries, output projection, residual, ln2, MLP and
adapter) runs on the class and patch rows, and no block output carries prompt
rows. The final block goes further: the classifier reads the class token
alone, so that block queries with the class row only, and its output is
[B, 1, D].

``model_forward`` is the one forward pass, in training and in search, and
runs a list of configs at once. The state entering layer l depends only on
the embedding and on the per-layer genes of layers < l, so it walks the
configs depth-first over their per-layer (adapter, lora, vpt) dims and runs
each distinct layer prefix once, dropping each state with its subtree. The
adapter is a layer's last gene read (it sits on the MLP output), so per
distinct (lora, vpt) pair at a layer ``block_forward`` runs one
``block_trunk``, then one ``block_finish`` per adapter dim. No block is
batched across configs, so each config's logits are bit-identical to a
forward of that config alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .prompts import active_slices, adapter_bottleneck, inject_prompts, lora_delta
from .space import SubnetConfig
from .tensor import Tensor


class ModelError(ValueError):
    """Invalid backbone configuration or input shape."""


@dataclass(frozen=True)
class BackboneConfig:
    num_layers: int = 4
    embed_dim: int = 64
    num_heads: int = 4
    mlp_hidden: int = 256
    patch_size: int = 4
    image_shape: tuple[int, int, int] = (1, 16, 16)
    num_classes: int = 8

    def __post_init__(self):
        for name in ("num_layers", "embed_dim", "num_heads", "mlp_hidden", "patch_size", "num_classes"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive")
        c, h, w = self.image_shape
        if self.embed_dim % self.num_heads != 0:
            raise ModelError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if h % self.patch_size or w % self.patch_size:
            raise ModelError(f"image {h}x{w} not divisible by patch size {self.patch_size}")

    @property
    def num_patches(self) -> int:
        _, h, w = self.image_shape
        return (h // self.patch_size) * (w // self.patch_size)

    @property
    def num_tokens(self) -> int:
        return 1 + self.num_patches

    @property
    def patch_dim(self) -> int:
        return self.image_shape[0] * self.patch_size * self.patch_size


BACKBONE_PREFIX = "backbone."
HEAD_NAMES = ("head.w", "head.b")


def init_backbone(cfg: BackboneConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Randomly initialized, fully trainable weights (frozen later)."""
    d = cfg.embed_dim

    def normal(*shape, std=0.02):
        return Tensor(rng.normal(0.0, std, shape).astype(np.float32), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, np.float32), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape, np.float32), requires_grad=True)

    w: dict[str, Tensor] = {}
    w["backbone.patch_proj.w"] = normal(cfg.patch_dim, d)
    w["backbone.patch_proj.b"] = zeros(d)
    w["backbone.cls_token"] = normal(1, d)
    w["backbone.pos_embed"] = normal(cfg.num_tokens, d)
    for i in range(cfg.num_layers):
        p = f"backbone.L{i}."
        w[p + "ln1.gamma"] = ones(d)
        w[p + "ln1.beta"] = zeros(d)
        for proj in ("q", "k", "v", "o"):
            w[p + f"attn.w{proj}"] = normal(d, d)
            w[p + f"attn.b{proj}"] = zeros(d)
        w[p + "ln2.gamma"] = ones(d)
        w[p + "ln2.beta"] = zeros(d)
        w[p + "mlp.w1"] = normal(d, cfg.mlp_hidden)
        w[p + "mlp.b1"] = zeros(cfg.mlp_hidden)
        w[p + "mlp.w2"] = normal(cfg.mlp_hidden, d)
        w[p + "mlp.b2"] = zeros(d)
    w["backbone.norm.gamma"] = ones(d)
    w["backbone.norm.beta"] = zeros(d)
    reinit_head(w, cfg, rng)
    return w


def reinit_head(weights: dict[str, Tensor], cfg: BackboneConfig, rng: np.random.Generator) -> None:
    """A fresh trainable head for ``cfg.num_classes`` classes."""
    weights["head.w"] = Tensor(
        rng.normal(0.0, 0.02, (cfg.embed_dim, cfg.num_classes)).astype(np.float32),
        requires_grad=True,
    )
    weights["head.b"] = Tensor(np.zeros(cfg.num_classes, np.float32), requires_grad=True)


def freeze_backbone(weights: dict[str, Tensor]) -> None:
    """Mark every backbone tensor frozen; the classifier head stays trainable."""
    for name, t in weights.items():
        if name.startswith(BACKBONE_PREFIX):
            t.requires_grad = False


def patchify(images: np.ndarray, cfg: BackboneConfig) -> np.ndarray:
    """[B, C, H, W] float array -> [B, num_patches, C*p*p] patch rows."""
    b, c, h, w = images.shape
    if (c, h, w) != cfg.image_shape:
        raise ModelError(f"image shape {(c, h, w)} != configured {cfg.image_shape}")
    p = cfg.patch_size
    x = images.reshape(b, c, h // p, p, w // p, p)
    x = x.transpose(0, 2, 4, 1, 3, 5)  # [B, Hp, Wp, C, p, p]
    return np.ascontiguousarray(x.reshape(b, cfg.num_patches, cfg.patch_dim), dtype=images.dtype)


def msa_forward(
    xn: Tensor,
    weights: dict[str, Tensor],
    layer: int,
    cfg: BackboneConfig,
    config: SubnetConfig,
    queries: int,
) -> Tensor:
    """softmax(q kT / sqrt(head_dim)) v per head, heads merged, projected.
    One projection onto the concatenated q/k/v weights. An active LoRA is
    merged into the q and k weights first (``wq + w_down @ w_up`` at rank r,
    and the k twin), so every row goes through the one QKV GEMM. Only the
    first ``queries`` rows of ``xn`` query; keys and values come from every
    row. The output is [B, queries, D]."""
    p = f"backbone.L{layer}.attn."
    wq, wk = weights[p + "wq"], weights[p + "wk"]
    lora = active_slices(weights, config, "lora", layer)
    if lora is not None:
        q_down, q_up, k_down, k_up = lora
        wq = T.add(wq, lora_delta(q_down, q_up))
        wk = T.add(wk, lora_delta(k_down, k_up))
    w = T.concat([wq, wk, weights[p + "wv"]], axis=1)
    b = T.concat([weights[p + "bq"], weights[p + "bk"], weights[p + "bv"]], axis=0)
    out = T.attention(T.linear(xn, w, b), cfg.num_heads, queries)
    return T.linear(out, weights[p + "wo"], weights[p + "bo"])


def block_trunk(
    x: Tensor,
    layer: int,
    weights: dict[str, Tensor],
    cfg: BackboneConfig,
    config: SubnetConfig,
) -> tuple[Tensor, Tensor]:
    """The part of a block the adapter does not touch: prompt-token
    injection, ln1, attention with LoRA, the attention residual, ln2 and the
    MLP. Returns ``(x, mlp_out)``: the hidden states after the attention
    residual and the MLP output. ln1 and the QKV projection run over ``x``
    with the layer's prompt rows appended, but only the rows the next stage
    reads query: all of ``x``'s rows, or the class row at the final block.
    Everything after attention runs on those rows alone, so the outputs are
    shaped like ``x`` (``[B, 1, D]`` at the final block) and never carry
    prompt rows. It reads only the config's VPT and LoRA at ``layer``, so
    configs that differ there only in the adapter share one trunk."""
    if not 0 <= layer < cfg.num_layers:
        raise ModelError(f"layer {layer} outside [0, {cfg.num_layers})")
    final = layer == cfg.num_layers - 1
    queries = 1 if final else x.shape[1]

    p = f"backbone.L{layer}."
    (rows,) = active_slices(weights, config, "vpt", layer) or (None,)
    xn = T.layer_norm(inject_prompts(x, rows), weights[p + "ln1.gamma"], weights[p + "ln1.beta"])
    attn = msa_forward(xn, weights, layer, cfg, config, queries)
    if final:
        x = T.slice_axis(x, 1, 0, 1)
    x = T.add(x, attn)

    un = T.layer_norm(x, weights[p + "ln2.gamma"], weights[p + "ln2.beta"])
    mlp_out = T.mlp(
        un,
        weights[p + "mlp.w1"],
        weights[p + "mlp.b1"],
        weights[p + "mlp.w2"],
        weights[p + "mlp.b2"],
    )
    return x, mlp_out


def block_finish(
    x: Tensor, mlp_out: Tensor, layer: int, weights: dict[str, Tensor], config: SubnetConfig
) -> Tensor:
    """The rest of the block after ``block_trunk``: the config's adapter at
    ``layer`` on the MLP output, inside the residual branch, then the
    residual add."""
    adapter = active_slices(weights, config, "adapter", layer)
    if adapter is None:
        return T.add(x, mlp_out)
    delta = adapter_bottleneck(mlp_out, *adapter)
    # Both adapter readings coincide at this attachment point: a skipless
    # bottleneck adding its output to the branch, and a bottleneck with an
    # internal residual whose output replaces the branch, assemble the same
    # sum mlp_out + delta.
    return T.add(x, T.add(mlp_out, delta))


def block_forward(
    x: Tensor,
    layer: int,
    weights: dict[str, Tensor],
    cfg: BackboneConfig,
    configs: Sequence[SubnetConfig],
) -> list[Tensor]:
    """One transformer block for configs that agree in LoRA and VPT at
    ``layer``: ``block_trunk`` once, then ``block_finish`` once per config.
    Returns one output per config, with ``x``'s rows, or the class row only,
    [B, 1, D], at the final block (``layer == cfg.num_layers - 1``)."""
    x, mlp_out = block_trunk(x, layer, weights, cfg, configs[0])
    return [block_finish(x, mlp_out, layer, weights, c) for c in configs]


def embed(weights: dict[str, Tensor], cfg: BackboneConfig, images: np.ndarray) -> Tensor:
    """Patchify, project, prepend the class token and add positional
    embeddings. ``images`` are normalized floats shaped [B, C, H, W]."""
    patches = T.Tensor(patchify(images, cfg))
    x = T.linear(patches, weights["backbone.patch_proj.w"], weights["backbone.patch_proj.b"])
    b = x.shape[0]
    d = cfg.embed_dim
    cls = T.expand(T.reshape(weights["backbone.cls_token"], (1, 1, d)), (b, 1, d))
    x = T.concat([cls, x], axis=1)
    return T.add(x, weights["backbone.pos_embed"])


def readout(weights: dict[str, Tensor], cfg: BackboneConfig, x: Tensor) -> Tensor:
    """Final encoder norm, then the class token through the classifier head.
    ``x`` is the final block's [B, 1, D] output, which holds the class row
    alone."""
    x = T.layer_norm(x, weights["backbone.norm.gamma"], weights["backbone.norm.beta"])
    feats = T.reshape(x, (x.shape[0], cfg.embed_dim))
    return T.linear(feats, weights["head.w"], weights["head.b"])


def model_forward(
    weights: dict[str, Tensor],
    cfg: BackboneConfig,
    images: np.ndarray,
    configs: Sequence[SubnetConfig],
    counts: dict[str, int] | None = None,
) -> list[Tensor]:
    """Logits of each config, in order: ``embed`` once, the shared-prefix
    walk over the blocks, then ``readout`` once per distinct config, so
    configs that share every gene share one logits tensor. ``counts``, when
    given, grows by the ``block_forward`` calls (``"block_trunks"``) and the
    blocks they finished (``"block_forwards"``, one per distinct prefix)."""
    logits: list[Tensor] = [None] * len(configs)
    _walk(embed(weights, cfg, images), 0, range(len(configs)), weights, cfg, configs,
          logits, counts)
    return logits


def _walk(
    x: Tensor, layer: int, members: Sequence[int], weights: dict[str, Tensor],
    cfg: BackboneConfig, configs: Sequence[SubnetConfig], logits: list, counts: dict | None,
) -> None:
    """Runs layers ``layer`` on from state ``x`` for ``configs[i]``, i in
    ``members``, which share every gene below ``layer``, and stores their
    logits. Not a closure: a self-referencing closure is a reference cycle,
    which under grad keeps the step's graph alive until the cyclic GC runs."""
    if layer == cfg.num_layers:
        out = readout(weights, cfg, x)
        for i in members:
            logits[i] = out
        return
    trunks: dict[tuple[int, int], dict[int, list[int]]] = {}
    for i in members:
        c = configs[i]
        key = (c.active_dim("lora", layer), c.active_dim("vpt", layer))
        trunks.setdefault(key, {}).setdefault(c.active_dim("adapter", layer), []).append(i)
    for by_adapter in trunks.values():
        groups = list(by_adapter.values())
        outs = block_forward(x, layer, weights, cfg, [configs[g[0]] for g in groups])
        if counts is not None:
            counts["block_trunks"] = counts.get("block_trunks", 0) + 1
            counts["block_forwards"] = counts.get("block_forwards", 0) + len(groups)
        outs.reverse()  # popped in order, so each state dies with its subtree
        for group in groups:
            _walk(outs.pop(), layer + 1, group, weights, cfg, configs, logits, counts)
