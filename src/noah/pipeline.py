"""End-to-end stages wiring the run config to the model machinery.

Each stage is a plain function over (RunConfig, Dataset, seeds) so the CLI,
the tests, and notebook use all share one code path. Every stage builds or
takes a ``PromptedModel``: the pretraining backbone, the supernet, a subnet
extracted from it (``retrain_stage``, which ``noah run`` uses), or a freshly
initialized subnet (``scratch_stage``, which also trains the single-module
baselines). Every training stage, pretraining included, is one
``train_model`` run and every accuracy goes through ``evaluate``, so a
checkpoint's reloaded accuracy is the one the stage logged. Both always
check what they compute: a non-finite loss raises ``TrainingDivergedError``
and non-finite logits raise ``GradientError``, each naming the config.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from . import space as S
from .backbone import BACKBONE_PREFIX, BackboneConfig, freeze_backbone, init_backbone, reinit_head
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig
from .data import Dataset, channel_stats, gen_mixed_base_task, normalize_images
from .evolution import SearchTrace, evolve
from .prompts import bank_regions
from .supernet import (
    PromptedModel,
    build_supernet,
    eval_workers,
    evaluate,
    extract_subnet,
    fresh_subnet,
    train_model,
)
from .tensor import Tensor

log = logging.getLogger("noah.pipeline")


def backbone_config(run: RunConfig, dataset: Dataset) -> BackboneConfig:
    bb = run.backbone
    return BackboneConfig(
        num_layers=bb.num_layers,
        embed_dim=bb.embed_dim,
        num_heads=bb.num_heads,
        mlp_hidden=bb.mlp_hidden,
        patch_size=bb.patch_size,
        image_shape=dataset.image_shape,
        num_classes=dataset.num_classes,
    )


def backbone_param_count(weights: dict[str, Tensor]) -> int:
    return sum(t.size for n, t in weights.items() if n.startswith(BACKBONE_PREFIX))


def search_spec(run: RunConfig, weights: dict[str, Tensor]) -> S.SearchSpaceSpec:
    sp = run.search_space
    budget = sp.budget
    if budget is None:
        budget = S.budget_from_fraction(backbone_param_count(weights), sp.budget_fraction)
    return sp.to_spec(run.backbone.num_layers, run.backbone.embed_dim, budget)


def build_frozen_backbone(
    run: RunConfig, cfg: BackboneConfig
) -> tuple[dict[str, Tensor], S.SearchSpaceSpec, list[dict]]:
    """Initialize, pretrain on the mixed synthetic base task (images
    normalized by their own channel stats) as a model with no prompt
    tensors, freeze, and re-point the head at the downstream class count.
    Returns the weights, the search spec and the pretraining log. A budget
    that not even the smallest config fits raises ``ConfigError`` before
    pretraining."""
    pt = run.pretrain
    rng = np.random.default_rng(pt.seed)
    pre_cfg = dataclasses.replace(cfg, num_classes=pt.num_classes)
    weights = init_backbone(pre_cfg, rng)
    spec = search_spec(run, weights)
    try:  # fail before any training if not even the smallest config fits
        S.budget_sampler(spec)
    except S.SpaceError as exc:
        raise ConfigError(f"search_space: {exc}") from exc
    pretrain_log: list[dict] = []
    if pt.epochs > 0:
        images, labels = gen_mixed_base_task(
            pt.num_classes, pt.samples, pt.seed, cfg.image_shape, pt.noise
        )
        log.info("pretraining backbone: %d samples, %d epochs", len(labels), pt.epochs)
        empty = S.SubnetConfig.empty(cfg.num_layers)
        pretrain_log = train_model(
            PromptedModel(pre_cfg, spec, weights), normalize_images(images, *channel_stats(images)),
            labels.astype(np.int64), pt.to_hyper(), rng, lambda: empty,
        )
    freeze_backbone(weights)
    reinit_head(weights, cfg, rng)
    return weights, spec, pretrain_log


def train_supernet_stage(
    run: RunConfig, dataset: Dataset
) -> tuple[PromptedModel, dict[str, list[dict]]]:
    cfg = backbone_config(run, dataset)
    weights, spec, pretrain_log = build_frozen_backbone(run, cfg)
    rng = np.random.default_rng(run.seed)
    sn = build_supernet(weights, cfg, spec, rng)
    images, labels = dataset.normalized("train")
    log.info(
        "training supernet: budget %d params, %d train samples, %d epochs",
        spec.budget, len(labels), run.supernet_hyper.total_epochs,
    )
    train_log = train_model(
        sn, images, labels, run.supernet_hyper, rng,
        lambda: S.sample_uniform(spec, rng),
    )
    return sn, {"pretrain": pretrain_log, "train": train_log}


def evolve_stage(
    run: RunConfig, sn: PromptedModel, dataset: Dataset
) -> tuple[S.SubnetConfig, SearchTrace]:
    """Search ``sn`` by val accuracy with inherited weights, with seed
    ``run.seed + 1``. Each trace generation also records the blocks that
    ``evaluate`` ran (``counts``)."""
    images, labels = dataset.normalized("val")
    counts: dict[str, int] = {}
    log.info("searching: candidates scored on %d thread(s)", eval_workers())
    return evolve(lambda configs: evaluate(sn, images, labels, configs, counts=counts),
                  sn.spec, run.evolution, np.random.default_rng(run.seed + 1),
                  seed_note=run.seed + 1, counts=counts)


def retrain_stage(
    run: RunConfig, sn: PromptedModel, config: S.SubnetConfig, dataset: Dataset
) -> tuple[PromptedModel, list[dict]]:
    """Train ``config`` warm-started from the prompt tensors and head it
    inherits from the supernet (``extract_subnet``), with seed
    ``run.seed + 2``; the supernet is not written."""
    rng = np.random.default_rng(run.seed + 2)
    model = extract_subnet(sn, config)
    return model, _train_fixed(run, model, config, dataset, rng)


def scratch_stage(
    run: RunConfig, sn: PromptedModel, config: S.SubnetConfig, dataset: Dataset
) -> tuple[PromptedModel, list[dict]]:
    """Train ``config`` from freshly initialized prompt tensors on the
    supernet's backbone, from a copy of its head, with seed ``run.seed + 3``;
    the supernet is not written. A single-module baseline is this stage on
    ``matched_budget_single_module``'s config."""
    rng = np.random.default_rng(run.seed + 3)
    model = fresh_subnet(sn.weights, sn.cfg, sn.spec, config, rng)
    return model, _train_fixed(run, model, config, dataset, rng)


def _train_fixed(
    run: RunConfig,
    model: PromptedModel,
    config: S.SubnetConfig,
    dataset: Dataset,
    rng: np.random.Generator,
) -> list[dict]:
    images, labels = dataset.normalized("train")
    return train_model(
        model, images, labels, run.subnet_hyper, rng, lambda: config,
        val=dataset.normalized("val"),
    )


def matched_budget_single_module(spec: S.SearchSpaceSpec, module: str) -> S.SubnetConfig:
    """The single-module config, one dim through ``depth`` layers, with the
    most parameters of any such design in the space within the budget; a tie
    goes to the deeper design."""
    designs = [
        (depth * S.module_layer_params(module, dim, spec.embed_dim), depth, dim)
        for depth in spec.depth_choices
        for dim in spec.dim_choices[module]
    ]
    fitting = [design for design in designs if design[0] <= spec.budget]
    if not fitting:
        raise ConfigError(f"budget {spec.budget} admits no {module} design")
    _, depth, dim = max(fitting)
    return S.SubnetConfig.uniform(module, dim, depth, spec.num_layers)


# ---------------------------------------------------------------------------
# checkpoint IO for whole models


def save_model_weights(path, weights: dict[str, Tensor]) -> None:
    save_checkpoint(path, weights)


def load_model_weights(path) -> dict[str, Tensor]:
    arrays = load_checkpoint(path)
    return {
        name: Tensor(arr, requires_grad=not name.startswith(BACKBONE_PREFIX))
        for name, arr in arrays.items()
    }


def supernet_from_checkpoint(path, run: RunConfig, dataset: Dataset) -> PromptedModel:
    """Model from a supernet or an extracted-subnet checkpoint; the prompt
    tensors keep whatever sizes are stored."""
    weights = load_model_weights(path)
    cfg = backbone_config(run, dataset)
    _check_shapes(weights, cfg)
    return PromptedModel(cfg=cfg, spec=search_spec(run, weights), weights=weights)


def _check_shapes(weights: dict[str, Tensor], cfg: BackboneConfig) -> None:
    pos = weights.get("backbone.pos_embed")
    if pos is None:
        raise ConfigError("checkpoint holds no backbone tensors")
    if pos.shape != (cfg.num_tokens, cfg.embed_dim):
        raise ConfigError(
            f"checkpoint positional embedding {pos.shape} does not match "
            f"backbone config {(cfg.num_tokens, cfg.embed_dim)}"
        )
    head = weights.get("head.w")
    if head is not None and head.shape[1] != cfg.num_classes:
        raise ConfigError(
            f"checkpoint head has {head.shape[1]} classes, dataset has {cfg.num_classes}"
        )


def _check_config_fits(weights: dict[str, Tensor], config: S.SubnetConfig) -> None:
    """Every prompt-tensor region ``config`` reads must be stored, at least
    that large."""
    for name, region in bank_regions(config).items():
        t = weights.get(name)
        if t is None:
            raise ConfigError(f"config {config.encode()} reads {name}, which the checkpoint lacks")
        needed = tuple(size if s.stop is None else s.stop for s, size in zip(region, t.shape))
        if any(n > size for n, size in zip(needed, t.shape)):
            raise ConfigError(
                f"config {config.encode()} reads {name} at {needed}, "
                f"the checkpoint stores {t.shape}"
            )


def evaluate_checkpoint(
    path, config: S.SubnetConfig, run: RunConfig, dataset: Dataset, split: str
) -> float:
    """Accuracy of ``config`` on ``split`` with the checkpoint's weights.

    Works on supernet and extracted or retrained checkpoints alike, slicing
    whatever prompt-tensor sizes are stored. It runs the same ``evaluate``
    as the search and the retrain log, so it returns exactly the searched
    fitness of a supernet checkpoint and the last logged ``val_acc`` of a
    retrained one. A config that reads a prompt tensor the checkpoint lacks,
    or reads past its stored size, raises ``ConfigError``."""
    model = supernet_from_checkpoint(path, run, dataset)
    _check_config_fits(model.weights, config)
    images, labels = dataset.normalized(split)
    return evaluate(model, images, labels, [config])[0]
