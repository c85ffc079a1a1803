"""Supernet: maximal entangled prompt banks over a frozen backbone.

Each training step samples one subnet uniformly, runs it, and updates only
the bank prefixes that subnet touched (plus the always-trainable classifier
head). Any subnet can then be evaluated with inherited weights, or extracted
into a standalone model that reproduces the supernet forward bit for bit.

Inherited-weight evaluation scores a whole list of subnets at once. The
hidden state entering layer l depends only on the embedding and on the
per-layer genes of layers < l, so ``evaluate`` walks the configs depth-first
over their per-layer (adapter, lora, vpt) dims and runs each distinct layer
prefix once. Blocks always run on one prefix's state alone, never batched
across candidates, so every accuracy is bit-identical to a whole
``model_forward`` of that config.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import backbone as B
from . import tensor as T
from .backbone import BackboneConfig, RuntimeOpts, model_forward
from .optim import AdamW, OptimHyper, TrainingDivergedError, batch_slices, full_region, run_training
from .prompts import PromptContext, bank_regions, init_prompt_banks, init_subnet_tensors
from .space import MODULES, SearchSpaceSpec, SubnetConfig, sample_uniform
from .tensor import Tensor

HEAD_NAMES = ("head.w", "head.b")


@dataclass
class Supernet:
    cfg: BackboneConfig
    spec: SearchSpaceSpec
    weights: dict[str, Tensor]  # backbone.* frozen; banks and head trainable
    opts: RuntimeOpts

    def context(self, config: SubnetConfig) -> PromptContext:
        return PromptContext(self.weights, config, self.opts.lora_scale)

    def trainable(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.weights.items() if t.requires_grad}

    def forward(self, images: np.ndarray, config: SubnetConfig, return_features=False) -> Tensor:
        return model_forward(
            self.weights, self.cfg, images, self.context(config), self.opts, return_features
        )


@dataclass
class SubnetModel:
    """A fixed architecture: shared frozen backbone plus exact-size prompt
    tensors and its own classifier head."""

    cfg: BackboneConfig
    config: SubnetConfig
    weights: dict[str, Tensor]
    opts: RuntimeOpts

    def context(self) -> PromptContext:
        return PromptContext(self.weights, self.config, self.opts.lora_scale)

    def trainable(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.weights.items() if t.requires_grad}

    def forward(self, images: np.ndarray, return_features=False) -> Tensor:
        return model_forward(
            self.weights, self.cfg, images, self.context(), self.opts, return_features
        )


def build_supernet(
    backbone_weights: dict[str, Tensor],
    cfg: BackboneConfig,
    spec: SearchSpaceSpec,
    rng: np.random.Generator,
    opts: RuntimeOpts | None = None,
) -> Supernet:
    banks = init_prompt_banks(
        cfg.num_layers,
        cfg.embed_dim,
        {m: max(spec.dim_choices[m]) for m in spec.dim_choices},
        rng,
    )
    weights = dict(backbone_weights)
    weights.update(banks)
    return Supernet(cfg=cfg, spec=spec, weights=weights, opts=opts or RuntimeOpts())


def training_regions(config: SubnetConfig, weights: dict[str, Tensor]) -> dict[str, tuple]:
    """Bank prefixes named by the config, plus the full head."""
    regions = bank_regions(config)
    for name in HEAD_NAMES:
        regions[name] = full_region(weights[name])
    return regions


def train_supernet(
    sn: Supernet,
    images: np.ndarray,
    labels: np.ndarray,
    hyper: OptimHyper,
    rng: np.random.Generator,
    decay_filter=None,
) -> list[dict]:
    """One uniformly sampled subnet per optimization step, shared across the
    batch. Log records carry the per-epoch loss and the sampled-config stream."""
    kwargs = {} if decay_filter is None else {"decay_filter": decay_filter}
    optimizer = AdamW(sn.trainable(), hyper, **kwargs)
    sampled: list[str] = []

    def step_fn(idx, step):
        config = sample_uniform(sn.spec, rng)
        sampled.append(config.encode())
        logits = sn.forward(images[idx], config)
        loss = T.cross_entropy(logits, labels[idx])
        if not math.isfinite(loss.item()):
            raise TrainingDivergedError(
                f"non-finite loss at step {step} with config {config.encode()}"
            )
        return loss, training_regions(config, sn.weights)

    def extra_log(epoch):
        record = {"configs": list(sampled)}
        sampled.clear()
        return record

    return run_training(optimizer, step_fn, len(labels), hyper, rng, extra_log)


def evaluate(
    sn: Supernet,
    images: np.ndarray,
    labels: np.ndarray,
    configs: Sequence[SubnetConfig],
    batch_size: int = 256,
    counts: dict[str, int] | None = None,
) -> list[float]:
    """Deterministic top-1 accuracy of each config with inherited weights, in
    order; no gradients. Each batch slice is embedded once, then the blocks
    run along the shared-prefix walk, keeping only the current path's hidden
    states alive. ``counts["block_forwards"]``, when given, grows by the
    number of blocks run."""
    n = len(labels)
    if n == 0:
        raise ValueError("cannot evaluate on an empty split")
    contexts = [sn.context(c) for c in configs]
    correct = [0] * len(configs)
    blocks = 0

    def walk(layer: int, members: list[int], x: Tensor, n_prompts: int, y: np.ndarray):
        nonlocal blocks
        if layer == sn.cfg.num_layers:
            hits = int((B.readout(sn.weights, sn.cfg, x).data.argmax(axis=1) == y).sum())
            for i in members:
                correct[i] += hits
            return
        groups: dict[tuple[int, ...], list[int]] = {}
        for i in members:
            key = tuple(configs[i].active_dim(m, layer) for m in MODULES)
            groups.setdefault(key, []).append(i)
        for group in groups.values():
            blocks += 1
            walk(
                layer + 1,
                group,
                *B.block_forward(
                    x, layer, sn.weights, sn.cfg, contexts[group[0]], sn.opts, n_prompts
                ),
                y,
            )

    with T.no_grad():
        for lo, hi in batch_slices(n, batch_size):
            x = B.embed(sn.weights, sn.cfg, images[lo:hi])
            walk(0, list(range(len(configs))), x, 0, labels[lo:hi])
    if counts is not None:
        counts["block_forwards"] = counts.get("block_forwards", 0) + blocks
    return [c / n for c in correct]


def evaluate_model(
    model: SubnetModel, images: np.ndarray, labels: np.ndarray, batch_size: int = 256
) -> float:
    return _evaluate_forward(model.forward, images, labels, batch_size)


def _evaluate_forward(forward, images, labels, batch_size):
    n = len(labels)
    if n == 0:
        raise ValueError("cannot evaluate on an empty split")
    correct = 0
    with T.no_grad():
        for lo, hi in batch_slices(n, batch_size):
            logits = forward(images[lo:hi]).data
            correct += int((logits.argmax(axis=1) == labels[lo:hi]).sum())
    return correct / n


def extract_subnet(sn: Supernet, config: SubnetConfig) -> SubnetModel:
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
    return SubnetModel(cfg=sn.cfg, config=config, weights=weights, opts=sn.opts)


def fresh_subnet(
    backbone_weights: dict[str, Tensor],
    cfg: BackboneConfig,
    config: SubnetConfig,
    rng: np.random.Generator,
    opts: RuntimeOpts | None = None,
) -> SubnetModel:
    """Freshly initialized fixed-architecture model (baseline training)."""
    weights = {n: t for n, t in backbone_weights.items() if n.startswith("backbone.")}
    weights.update(init_subnet_tensors(config, cfg.embed_dim, rng))
    for name in HEAD_NAMES:
        weights[name] = Tensor(backbone_weights[name].data.copy(), requires_grad=True)
    return SubnetModel(cfg=cfg, config=config, weights=weights, opts=opts or RuntimeOpts())


def train_subnet(
    model: SubnetModel,
    images: np.ndarray,
    labels: np.ndarray,
    hyper: OptimHyper,
    rng: np.random.Generator,
    val: tuple[np.ndarray, np.ndarray] | None = None,
    decay_filter=None,
) -> list[dict]:
    """Fixed-architecture training of the model's prompt tensors and head."""
    kwargs = {} if decay_filter is None else {"decay_filter": decay_filter}
    optimizer = AdamW(model.trainable(), hyper, **kwargs)
    regions = training_regions(model.config, model.weights)

    def step_fn(idx, step):
        loss = T.cross_entropy(model.forward(images[idx]), labels[idx])
        if not math.isfinite(loss.item()):
            raise TrainingDivergedError(
                f"non-finite loss at step {step} with config {model.config.encode()}"
            )
        return loss, regions

    extra_log = None
    if val is not None:
        val_images, val_labels = val

        def extra_log(epoch):
            return {"val_acc": evaluate_model(model, val_images, val_labels)}

    return run_training(optimizer, step_fn, len(labels), hyper, rng, extra_log)
