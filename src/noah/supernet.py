"""One prompted-model type: a frozen backbone, prompt tensors and a
classifier head, run for any subnet config.

The supernet is the full-size subnet: its prompt tensors, the entangled banks,
are those of ``spec.full_config()``, laid out by ``prompts.LAYOUT`` like every
other model's. Each training step samples one subnet uniformly, runs it, and
updates only the bank prefixes that subnet touched (plus the always-trainable
classifier head). Any subnet can then be evaluated with inherited weights, or
extracted into a model of the same type whose exact-size tensors reproduce
the supernet forward bit for bit. A retrained or baseline subnet is the same
type again, trained by the same ``train_model`` on a fixed config. So is the
backbone while it pretrains: a model with no prompt tensors whose every
weight trains, on the empty config.

Evaluation scores a whole list of subnets through one ``model_forward``
call per batch slice, the same forward that training runs, so each distinct
layer prefix runs once (see ``backbone``); scoring a single config is
``evaluate(model, images, labels, [config])[0]``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import optim
from . import tensor as T
from .backbone import BACKBONE_PREFIX, HEAD_NAMES, BackboneConfig, model_forward
from .optim import AdamW, OptimHyper, TrainingDivergedError, batch_slices, full_region, lr_at
from .prompts import bank_regions, init_subnet_tensors
from .space import MODULES, SearchSpaceSpec, SubnetConfig
from .tensor import Tensor


@dataclass
class PromptedModel:
    """Frozen backbone plus prompt tensors and a classifier head (while it
    pretrains, a trainable backbone and head with no prompt tensors).

    The prompt tensors are the supernet's full-size banks or one subnet's
    exact-size tensors, both laid out by ``prompts.LAYOUT`` and cut by the
    same ``prompts.active_slices``, so a config runs on any model whose
    tensors are at least its size.
    """

    cfg: BackboneConfig
    spec: SearchSpaceSpec
    weights: dict[str, Tensor]  # backbone.* frozen after pretraining; the rest trainable

    def trainable(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.weights.items() if t.requires_grad}

    def forward(self, images: np.ndarray, config: SubnetConfig) -> Tensor:
        return model_forward(self.weights, self.cfg, images, [config])[0]


def build_supernet(
    backbone_weights: dict[str, Tensor],
    cfg: BackboneConfig,
    spec: SearchSpaceSpec,
    rng: np.random.Generator,
) -> PromptedModel:
    """The full-size subnet of ``spec``: its fresh prompt tensors are the
    banks every config in the space reads a prefix of."""
    return fresh_subnet(backbone_weights, cfg, spec, spec.full_config(), rng)


def training_regions(model: PromptedModel) -> Callable[[SubnetConfig], dict[str, tuple]]:
    """The regions a training step on a config updates: the full region of
    every trainable tensor that is not a prompt tensor (the head, plus the
    whole backbone while it pretrains), worked out here once, and the bank
    prefixes the config names."""
    fixed = {
        name: full_region(t) for name, t in model.trainable().items()
        if name.partition(".")[0] not in MODULES
    }
    return lambda config: {**bank_regions(config), **fixed}


def train_model(
    model: PromptedModel,
    images: np.ndarray,
    labels: np.ndarray,
    hyper: OptimHyper,
    rng: np.random.Generator,
    next_config: Callable[[], SubnetConfig],
    val: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[dict]:
    """The one training loop: every stage, pretraining included, is a run of it.

    Each epoch visits the samples in a fresh ``rng.permutation``, one minibatch
    per optimization step. ``next_config`` is called once per step, after the
    step's learning rate is read: pass ``lambda: sample_uniform(model.spec,
    rng)`` for supernet training, ``lambda: config`` to (re)train a fixed
    architecture, and the empty config to pretrain a backbone. The step's
    config is shared across its batch, and AdamW updates only the regions it
    touched (see ``training_regions``). A non-finite loss raises
    ``TrainingDivergedError`` naming the step and its config. One step's
    autodiff graph is alive at a time: the loss is dropped before the next
    forward builds one. Returns one record per epoch: ``epoch``, the last
    step's ``lr``, the mean ``train_loss``, the encoded config of every step
    (``configs``) and, with ``val``, the validation accuracy of the epoch's
    last config (``val_acc``)."""
    n = len(labels)
    if n == 0:
        raise ValueError("empty training split")
    optimizer = AdamW(model.trainable(), hyper)
    regions = training_regions(model)
    total_steps = math.ceil(n / hyper.batch_size) * hyper.total_epochs
    log: list[dict] = []
    step = 0
    for epoch in range(hyper.total_epochs):
        order = rng.permutation(n)
        losses: list[float] = []
        configs: list[str] = []
        for lo, hi in batch_slices(n, hyper.batch_size):
            lr = lr_at(step, total_steps, hyper)
            config = next_config()
            configs.append(config.encode())
            idx = order[lo:hi]
            loss = T.cross_entropy(model.forward(images[idx], config), labels[idx])
            losses.append(loss.item())
            if not math.isfinite(losses[-1]):
                raise TrainingDivergedError(
                    f"non-finite loss at step {step} with config {configs[-1]}"
                )
            optim.backward(loss)  # via the module: the bench tracer wraps it (ROADMAP item 9)
            optimizer.step(lr, regions(config))
            optimizer.zero_grad()
            del loss  # free this step's graph before the next forward builds one
            step += 1
        record = {"epoch": epoch, "lr": lr, "train_loss": float(np.mean(losses)),
                  "configs": configs}
        if val is not None:
            record["val_acc"] = evaluate(model, val[0], val[1], [config])[0]
        log.append(record)
    return log


def evaluate(
    model: PromptedModel,
    images: np.ndarray,
    labels: np.ndarray,
    configs: Sequence[SubnetConfig],
    batch_size: int = 256,
    counts: dict[str, int] | None = None,
) -> list[float]:
    """Deterministic top-1 accuracy of each config, in order; no gradients.
    Scores the argmax of each config's logits from one ``model_forward`` per
    batch slice, which runs each distinct layer prefix once and grows
    ``counts``, when given, by the blocks it ran."""
    n = len(labels)
    if n == 0:
        raise ValueError("cannot evaluate on an empty split")
    correct = [0] * len(configs)
    with T.no_grad():
        for lo, hi in batch_slices(n, batch_size):
            logits = model_forward(model.weights, model.cfg, images[lo:hi], configs, counts)
            for i, out in enumerate(logits):
                correct[i] += int((out.data.argmax(axis=1) == labels[lo:hi]).sum())
    return [c / n for c in correct]


def _assemble(
    source: dict[str, Tensor],
    cfg: BackboneConfig,
    spec: SearchSpaceSpec,
    prompt_tensors: dict[str, Tensor],
) -> PromptedModel:
    """``source``'s backbone, shared read-only, the given prompt tensors and
    a trainable copy of ``source``'s head."""
    weights = {n: t for n, t in source.items() if n.startswith(BACKBONE_PREFIX)}
    weights.update(prompt_tensors)
    for name in HEAD_NAMES:
        weights[name] = Tensor(source[name].data.copy(), requires_grad=True)
    return PromptedModel(cfg=cfg, spec=spec, weights=weights)


def extract_subnet(sn: PromptedModel, config: SubnetConfig) -> PromptedModel:
    """Copy exactly the prefix slices the config names, plus the head."""
    pieces = {
        name: Tensor(sn.weights[name].data[region].copy(), requires_grad=True)
        for name, region in bank_regions(config).items()
    }
    return _assemble(sn.weights, sn.cfg, sn.spec, pieces)


def fresh_subnet(
    backbone_weights: dict[str, Tensor],
    cfg: BackboneConfig,
    spec: SearchSpaceSpec,
    config: SubnetConfig,
    rng: np.random.Generator,
) -> PromptedModel:
    """Freshly initialized exact-size prompt tensors for ``config`` and a
    copy of the given head (the supernet, baselines, from-scratch runs)."""
    return _assemble(backbone_weights, cfg, spec, init_subnet_tensors(config, cfg.embed_dim, rng))
