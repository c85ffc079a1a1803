"""One prompted-model type: a frozen backbone, prompt tensors and a
classifier head, run for any subnet config.

The supernet holds maximal entangled prompt banks. Each training step samples
one subnet uniformly, runs it, and updates only the bank prefixes that subnet
touched (plus the always-trainable classifier head). Any subnet can then be
evaluated with inherited weights, or extracted into a model of the same type
whose exact-size tensors reproduce the supernet forward bit for bit. A
retrained or baseline subnet is the same type again, trained by the same
``train_model`` on a fixed config.

Evaluation scores a whole list of subnets at once. The hidden state entering
layer l depends only on the embedding and on the per-layer genes of layers
< l, so ``evaluate`` walks the configs depth-first over their per-layer
(adapter, lora, vpt) dims and runs each distinct layer prefix once. The
states passed down the walk hold the class and patch rows alone: a layer's
VPT tokens are keys and values of its own block only and never reach its
output (see ``backbone``), so no prompt-row count travels along. Within a
layer the adapter is the last gene read: it sits on the MLP output, after
VPT injection, attention and the MLP. So the walk runs one ``block_trunk``
per distinct (lora, vpt) pair at that layer, then one ``block_finish`` per
adapter dim on that trunk's outputs. Blocks always run on one prefix's state
alone, never batched across candidates, so every accuracy is bit-identical
to a whole ``model_forward`` of that config; scoring a single config is
``evaluate(model, images, labels, [config])[0]``. The walk's last level is
the final block, which runs on the class row only (see ``backbone``).
Candidates rarely share it, because it sits below every other gene, so
trimming it to the row the readout reads cuts the cost of almost every fresh
candidate.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import backbone as B
from . import tensor as T
from .backbone import BackboneConfig, model_forward
from .optim import AdamW, OptimHyper, TrainingDivergedError, batch_slices, full_region, run_training
from .prompts import PromptContext, bank_regions, init_prompt_banks, init_subnet_tensors
from .space import SearchSpaceSpec, SubnetConfig
from .tensor import Tensor

HEAD_NAMES = ("head.w", "head.b")


@dataclass
class PromptedModel:
    """Frozen backbone plus prompt tensors and a classifier head.

    The prompt tensors are either the supernet's maximal banks or one
    subnet's exact-size slices; both are read through the same prefix-slice
    ops, so a config runs on any model whose tensors are at least its size.
    """

    cfg: BackboneConfig
    spec: SearchSpaceSpec
    weights: dict[str, Tensor]  # backbone.* frozen; prompt tensors and head trainable

    def context(self, config: SubnetConfig) -> PromptContext:
        return PromptContext(self.weights, config)

    def trainable(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.weights.items() if t.requires_grad}

    def forward(self, images: np.ndarray, config: SubnetConfig) -> Tensor:
        return model_forward(self.weights, self.cfg, images, self.context(config))


def build_supernet(
    backbone_weights: dict[str, Tensor],
    cfg: BackboneConfig,
    spec: SearchSpaceSpec,
    rng: np.random.Generator,
) -> PromptedModel:
    banks = init_prompt_banks(
        cfg.num_layers,
        cfg.embed_dim,
        {m: max(spec.dim_choices[m]) for m in spec.dim_choices},
        rng,
    )
    weights = dict(backbone_weights)
    weights.update(banks)
    return PromptedModel(cfg=cfg, spec=spec, weights=weights)


def training_regions(config: SubnetConfig, weights: dict[str, Tensor]) -> dict[str, tuple]:
    """Bank prefixes named by the config, plus the full head."""
    regions = bank_regions(config)
    for name in HEAD_NAMES:
        regions[name] = full_region(weights[name])
    return regions


def train_model(
    model: PromptedModel,
    images: np.ndarray,
    labels: np.ndarray,
    hyper: OptimHyper,
    rng: np.random.Generator,
    next_config: Callable[[], SubnetConfig],
    val: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[dict]:
    """Train the model's prompt tensors and head on one config per
    optimization step, shared across the batch, updating only the regions
    that config touched. ``next_config`` is called once per step: pass
    ``lambda: sample_uniform(model.spec, rng)`` for supernet training and
    ``lambda: config`` to (re)train a fixed architecture. Log records carry
    the per-epoch loss, the encoded config of every step (``configs``) and,
    with ``val``, the validation accuracy of the epoch's last config."""
    optimizer = AdamW(model.trainable(), hyper)
    sampled: list[str] = []
    config: SubnetConfig | None = None

    def step_fn(idx, step):
        nonlocal config
        config = next_config()
        sampled.append(config.encode())
        loss = T.cross_entropy(model.forward(images[idx], config), labels[idx])
        if not math.isfinite(loss.item()):
            raise TrainingDivergedError(
                f"non-finite loss at step {step} with config {config.encode()}"
            )
        return loss, training_regions(config, model.weights)

    def extra_log(epoch):
        record = {"configs": list(sampled)}
        sampled.clear()
        if val is not None:
            record["val_acc"] = evaluate(model, val[0], val[1], [config])[0]
        return record

    return run_training(optimizer, step_fn, len(labels), hyper, rng, extra_log)


def evaluate(
    model: PromptedModel,
    images: np.ndarray,
    labels: np.ndarray,
    configs: Sequence[SubnetConfig],
    batch_size: int = 256,
    counts: dict[str, int] | None = None,
) -> list[float]:
    """Deterministic top-1 accuracy of each config, in order; no gradients.
    Each batch slice is embedded once, then the blocks run along the
    shared-prefix walk, keeping only the current path's hidden states alive:
    per layer, one ``block_trunk`` per distinct (lora, vpt) dims among the
    prefix's configs, then one ``block_finish`` per adapter dim among those.
    Every accuracy equals that of a whole ``model.forward`` per batch slice,
    bit for bit. ``counts``, when given, grows by the number of blocks run
    (``"block_forwards"``, one per distinct full layer prefix) and of trunks
    run (``"block_trunks"``)."""
    n = len(labels)
    if n == 0:
        raise ValueError("cannot evaluate on an empty split")
    contexts = [model.context(c) for c in configs]
    correct = [0] * len(configs)
    trunks = blocks = 0

    def walk(layer: int, members: list[int], x: Tensor, y: np.ndarray):
        nonlocal trunks, blocks
        if layer == model.cfg.num_layers:
            hits = int((B.readout(model.weights, model.cfg, x).data.argmax(axis=1) == y).sum())
            for i in members:
                correct[i] += hits
            return
        trunk_groups: dict[tuple[int, int], dict[int, list[int]]] = {}
        for i in members:
            key = (configs[i].active_dim("lora", layer), configs[i].active_dim("vpt", layer))
            adapter = configs[i].active_dim("adapter", layer)
            trunk_groups.setdefault(key, {}).setdefault(adapter, []).append(i)
        for by_adapter in trunk_groups.values():
            trunks += 1
            groups = list(by_adapter.values())
            x_attn, mlp_out = B.block_trunk(
                x, layer, model.weights, model.cfg, contexts[groups[0][0]]
            )
            for group in groups:
                blocks += 1
                out = B.block_finish(x_attn, mlp_out, layer, contexts[group[0]])
                walk(layer + 1, group, out, y)

    with T.no_grad():
        for lo, hi in batch_slices(n, batch_size):
            x = B.embed(model.weights, model.cfg, images[lo:hi])
            walk(0, list(range(len(configs))), x, labels[lo:hi])
    if counts is not None:
        counts["block_trunks"] = counts.get("block_trunks", 0) + trunks
        counts["block_forwards"] = counts.get("block_forwards", 0) + blocks
    return [c / n for c in correct]


def extract_subnet(sn: PromptedModel, config: SubnetConfig) -> PromptedModel:
    """Copy exactly the prefix slices the config names, plus the head. The
    backbone is shared read-only."""
    weights: dict[str, Tensor] = {
        n: t for n, t in sn.weights.items() if n.startswith("backbone.")
    }
    for name, region in bank_regions(config).items():
        piece = np.ascontiguousarray(sn.weights[name].data[region]).copy()
        weights[name] = Tensor(piece, requires_grad=True)
    for name in HEAD_NAMES:
        weights[name] = Tensor(sn.weights[name].data.copy(), requires_grad=True)
    return PromptedModel(cfg=sn.cfg, spec=sn.spec, weights=weights)


def fresh_subnet(
    backbone_weights: dict[str, Tensor],
    cfg: BackboneConfig,
    spec: SearchSpaceSpec,
    config: SubnetConfig,
    rng: np.random.Generator,
) -> PromptedModel:
    """Freshly initialized exact-size prompt tensors for ``config`` and a
    copy of the given head (baseline and from-scratch training)."""
    weights = {n: t for n, t in backbone_weights.items() if n.startswith("backbone.")}
    weights.update(init_subnet_tensors(config, cfg.embed_dim, rng))
    for name in HEAD_NAMES:
        weights[name] = Tensor(backbone_weights[name].data.copy(), requires_grad=True)
    return PromptedModel(cfg=cfg, spec=spec, weights=weights)
