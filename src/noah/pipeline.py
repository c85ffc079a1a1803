"""End-to-end stages wiring the run config to the model machinery.

Each stage is a plain function over (RunConfig, Dataset, seeds) so the CLI,
the tests, and notebook use all share one code path. Every stage builds or
takes a ``PromptedModel``: the supernet, a subnet extracted from it, or a
freshly initialized subnet. Training goes through ``train_model`` and every
accuracy through ``evaluate``, so a checkpoint's reloaded accuracy is the
one the stage logged.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from . import space as S
from .backbone import (
    BACKBONE_PREFIX, BackboneConfig, freeze_backbone, init_backbone, pseudo_pretrain, reinit_head,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig
from .data import Dataset, gen_mixed_base_task
from .evolution import SearchTrace, evolve
from .prompts import bank_regions
from .supernet import (
    PromptedModel,
    build_supernet,
    evaluate,
    extract_subnet,
    fresh_subnet,
    train_model,
)
from .tensor import Tensor, debug_validation

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


def build_frozen_backbone(run: RunConfig, cfg: BackboneConfig) -> tuple[dict, list[dict]]:
    """Initialize, pseudo-pretrain on the mixed synthetic base task, freeze,
    and re-point the head at the downstream class count."""
    pt = run.pretrain
    rng = np.random.default_rng(pt.seed)
    pre_cfg = dataclasses.replace(cfg, num_classes=pt.num_classes)
    weights = init_backbone(pre_cfg, rng)
    pretrain_log: list[dict] = []
    if pt.epochs > 0:
        images, labels = gen_mixed_base_task(
            pt.num_classes, pt.samples, pt.seed, cfg.image_shape, pt.noise
        )
        log.info("pseudo-pretraining backbone: %d samples, %d epochs", len(labels), pt.epochs)
        pretrain_log = pseudo_pretrain(weights, pre_cfg, images, labels, pt.to_hyper(), rng)
    else:
        freeze_backbone(weights)
    reinit_head(weights, cfg, cfg.num_classes, rng)
    return weights, pretrain_log


def train_supernet_stage(
    run: RunConfig, dataset: Dataset
) -> tuple[PromptedModel, dict[str, list[dict]]]:
    with debug_validation(run.runtime.debug_validation):
        cfg = backbone_config(run, dataset)
        weights, pretrain_log = build_frozen_backbone(run, cfg)
        spec = search_spec(run, weights)
        rng = np.random.default_rng(run.seed)
        sn = build_supernet(weights, cfg, spec, rng)
        images, labels = dataset.normalized("train")
        log.info(
            "training supernet: budget %d params, %d train samples, %d epochs",
            spec.budget, len(labels), run.supernet_hyper.total_epochs,
        )
        train_log = train_model(
            sn, images, labels, run.supernet_hyper.to_hyper(), rng,
            lambda: S.sample_uniform(spec, rng),
        )
    return sn, {"pretrain": pretrain_log, "train": train_log}


def evolve_stage(
    run: RunConfig, sn: PromptedModel, dataset: Dataset
) -> tuple[S.SubnetConfig, SearchTrace]:
    images, labels = dataset.normalized("val")
    rng = np.random.default_rng(run.seed + 1)
    counts: dict[str, int] = {}

    def fitness(configs: list[S.SubnetConfig]) -> list[float]:
        return evaluate(sn, images, labels, configs, counts=counts)

    with debug_validation(run.runtime.debug_validation):
        return evolve(
            fitness,
            sn.spec,
            run.evolution,
            rng,
            seed_note=run.seed + 1,
            counts=counts,
        )


def retrain_stage(
    run: RunConfig, sn: PromptedModel, config: S.SubnetConfig, dataset: Dataset
) -> tuple[PromptedModel, list[dict]]:
    """Fixed-architecture training; warm-starts from inherited weights unless
    the config asks for a from-scratch run."""
    with debug_validation(run.runtime.debug_validation):
        rng = np.random.default_rng(run.seed + 2)
        if run.runtime.retrain_from_scratch:
            model = fresh_subnet(sn.weights, sn.cfg, sn.spec, config, rng)
        else:
            model = extract_subnet(sn, config)
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
        model, images, labels, run.subnet_hyper.to_hyper(), rng, lambda: config,
        val=dataset.normalized("val"),
    )


def matched_budget_single_module(spec: S.SearchSpaceSpec, module: str) -> tuple[int, int]:
    """Largest (dim, depth) single-module design that fits the budget,
    preferring full depth like the hand-designed baselines."""
    for depth in range(spec.num_layers, 0, -1):
        for dim in sorted(spec.dim_choices[module], reverse=True):
            cfg = S.SubnetConfig.uniform(module, dim, depth, spec.num_layers)
            if S.spec_count(spec, cfg) <= spec.budget:
                return dim, depth
    raise ConfigError(f"budget {spec.budget} admits no {module} design")


def baseline_stage(
    run: RunConfig,
    dataset: Dataset,
    module: str,
    dim: int | None = None,
    depth: int | None = None,
    backbone_weights: dict | None = None,
) -> tuple[PromptedModel, list[dict], S.SubnetConfig]:
    """Train one fixed prompt module from scratch on the frozen backbone."""
    with debug_validation(run.runtime.debug_validation):
        cfg = backbone_config(run, dataset)
        if backbone_weights is None:
            backbone_weights, _ = build_frozen_backbone(run, cfg)
        spec = search_spec(run, backbone_weights)
        if dim is None or depth is None:
            auto_dim, auto_depth = matched_budget_single_module(spec, module)
            dim = dim if dim is not None else auto_dim
            depth = depth if depth is not None else auto_depth
        config = S.SubnetConfig.uniform(module, dim, depth, spec.num_layers)
        violations = [v for v in S.validate(config, spec) if v.code != "over_budget"]
        if violations:
            raise ConfigError("; ".join(f"{v.code}: {v.message}" for v in violations))
        rng = np.random.default_rng(run.seed + 3)
        model = fresh_subnet(backbone_weights, cfg, spec, config, rng)
        return model, _train_fixed(run, model, config, dataset, rng), config


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
    with debug_validation(run.runtime.debug_validation):
        return evaluate(model, images, labels, [config])[0]
