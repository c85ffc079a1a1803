"""Run configuration: one JSON document drives every pipeline stage.

Unknown keys are rejected up front so typos fail before any work starts, and
every command writes the fully resolved document (defaults filled in) next to
its outputs.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .checkpoint import atomic_write
from .evolution import EvolutionError, EvolutionSchedule
from .optim import OptimHyper
from .space import MODULES, SearchSpaceSpec, SpaceError


class ConfigError(ValueError):
    pass


@dataclass
class BackboneSection:
    num_layers: int = 4
    embed_dim: int = 64
    num_heads: int = 4
    mlp_hidden: int = 256
    patch_size: int = 4

    def __post_init__(self):
        for name, value in vars(self).items():
            if value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )


@dataclass
class PretrainSection:
    epochs: int = 25
    samples: int = 1024
    num_classes: int = 16
    seed: int = 101
    base_lr: float = 1e-3
    weight_decay: float = 1e-3
    warmup_epochs: int = 2
    batch_size: int = 64
    noise: float = 8.0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be at least 2, got {self.num_classes}")
        if self.samples < self.num_classes:
            raise ValueError(f"samples {self.samples} fewer than num_classes {self.num_classes}")
        self.to_hyper()  # OptimHyper raises on bad values

    def to_hyper(self) -> OptimHyper:
        return _optim_hyper(self, self.epochs)


@dataclass
class SpaceSection:
    depth_choices: list = field(default_factory=lambda: [1, 2, 3, 4])
    dim_choices: dict = field(default_factory=lambda: {m: [1, 5, 10] for m in MODULES})
    budget_fraction: float = 0.0075
    budget: int | None = None  # absolute override of the fraction

    def __post_init__(self):
        if isinstance(self.dim_choices, list):  # one list for every module
            self.dim_choices = {m: list(self.dim_choices) for m in MODULES}
        if not isinstance(self.dim_choices, dict) or set(self.dim_choices) != set(MODULES):
            raise ValueError(f"dim_choices must cover {MODULES}")
        if self.budget is None and not 0 < self.budget_fraction <= 1:
            raise ValueError("budget_fraction outside (0, 1]")

    def to_spec(self, num_layers: int, embed_dim: int, budget: int) -> SearchSpaceSpec:
        dims = {m: tuple(v) for m, v in self.dim_choices.items()}
        return SearchSpaceSpec(num_layers, tuple(self.depth_choices), dims, embed_dim, budget)


@dataclass
class HyperSection:
    base_lr: float
    total_epochs: int
    weight_decay: float = 1e-3
    warmup_epochs: int = 10
    batch_size: int = 64

    def __post_init__(self):
        self.to_hyper()  # OptimHyper raises on bad values

    def to_hyper(self) -> OptimHyper:
        return _optim_hyper(self, self.total_epochs)


def _optim_hyper(section, epochs: int) -> OptimHyper:
    """A pretrain or hyper section's optimizer settings, warmup clamped to ``epochs``."""
    return OptimHyper(section.base_lr, epochs, section.weight_decay,
                      min(section.warmup_epochs, epochs), section.batch_size)


@dataclass
class RuntimeSection:
    debug_validation: bool = False
    retrain_from_scratch: bool = False


@dataclass
class DatasetSection:
    path: str | None = None  # CLI --data overrides


@dataclass
class RunConfig:
    seed: int = 0
    backbone: BackboneSection = field(default_factory=BackboneSection)
    pretrain: PretrainSection = field(default_factory=PretrainSection)
    search_space: SpaceSection = field(default_factory=SpaceSection)
    supernet_hyper: HyperSection = field(
        default_factory=lambda: HyperSection(base_lr=5e-4, total_epochs=100)
    )
    subnet_hyper: HyperSection = field(
        default_factory=lambda: HyperSection(base_lr=1e-3, total_epochs=100)
    )
    evolution: EvolutionSchedule = field(default_factory=EvolutionSchedule)
    runtime: RuntimeSection = field(default_factory=RuntimeSection)
    dataset: DatasetSection = field(default_factory=DatasetSection)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


_SECTIONS = {
    "backbone": BackboneSection,
    "pretrain": PretrainSection,
    "search_space": SpaceSection,
    "supernet_hyper": HyperSection,
    "subnet_hyper": HyperSection,
    "evolution": EvolutionSchedule,
    "runtime": RuntimeSection,
    "dataset": DatasetSection,
}


def _check_types(cls, payload: dict) -> None:
    """Reject a value that does not fit its field's declared type: an int
    field takes an int, a float field any number, and neither takes a bool."""
    hints = typing.get_type_hints(cls)
    for name, value in payload.items():
        kinds = typing.get_args(hints[name]) or (hints[name],)
        number = int if int in kinds else float if float in kinds else None
        if number is None or (value is None and type(None) in kinds):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, number)):
            what = "an integer" if number is int else "a number"
            raise ConfigError(f"{name} must be {what}, got {value!r}")


def _build_section(cls, payload: dict, where: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{where}: expected an object, got {type(payload).__name__}")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        _check_types(cls, payload)
        return cls(**payload)
    except (TypeError, ValueError, EvolutionError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = set(doc) - (set(_SECTIONS) | {"seed"})
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    kwargs = {}
    if "seed" in doc:
        _check_types(RunConfig, {"seed": doc["seed"]})
        kwargs["seed"] = doc["seed"]
    for name, cls in _SECTIONS.items():
        if name in doc:
            kwargs[name] = _build_section(cls, doc[name], name)
    run = RunConfig(**kwargs)
    sp = run.search_space
    try:  # the checks the search stage's spec would make, before any training
        sp.to_spec(run.backbone.num_layers, run.backbone.embed_dim, sp.budget or 0)
    except (SpaceError, TypeError) as exc:
        raise ConfigError(f"search_space: {exc}") from exc
    return run


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(doc)


def write_resolved(run: RunConfig, out_dir) -> Path:
    """Persist the defaults-filled config next to a command's outputs."""
    out = Path(out_dir) / "config.json"
    with atomic_write(out) as f:
        f.write(run.to_json().encode())
    return out
