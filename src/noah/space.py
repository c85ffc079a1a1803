"""Architecture gene encoding and the operators that move through it.

A subnet is described per prompt module (adapter, lora, vpt) by a depth and a
per-layer embedding dimension. Depth is zero-based-consecutive: depth = 3
means layers 0, 1, 2 carry the module. Entries at or beyond the depth are
exactly 0 (canonical form). Within the depth, 0 is a legal per-layer value so
a module can vanish from individual layers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

MODULES = ("adapter", "lora", "vpt")


class SpaceError(ValueError):
    """Invalid search-space definition or subnet encoding."""


@dataclass(frozen=True)
class ModuleGene:
    depth: int
    dims: tuple[int, ...]


@dataclass(frozen=True)
class SubnetConfig:
    adapter: ModuleGene
    lora: ModuleGene
    vpt: ModuleGene

    def gene(self, module: str) -> ModuleGene:
        return getattr(self, module)

    @property
    def num_layers(self) -> int:
        return len(self.adapter.dims)

    def active_dim(self, module: str, layer: int) -> int:
        g = self.gene(module)
        return g.dims[layer] if layer < g.depth else 0

    def active_dims(self) -> tuple[tuple[int, ...], ...]:
        """Per module, in ``MODULES`` order, the active dim at each layer.
        The forward, ``count_params`` and ``prompts.active_slices`` read
        nothing else, so configs with equal active dims are one network,
        though a depth over dims of 0 gives it another encoding."""
        return tuple(
            tuple(self.active_dim(m, i) for i in range(self.num_layers)) for m in MODULES
        )

    def encode(self) -> str:
        parts = []
        for m in MODULES:
            g = self.gene(m)
            parts.append(f"{m[0].upper()}{g.depth};" + ",".join(str(d) for d in g.dims))
        return "|".join(parts)

    @staticmethod
    def decode(text: str) -> "SubnetConfig":
        """Inverse of ``encode``; ``SpaceError`` naming ``text`` if it is not
        three genes of integers over one layer count, each depth within it."""
        parts = text.strip().split("|")
        if len(parts) != 3:
            raise SpaceError(f"expected 3 module genes, got {len(parts)}: {text!r}")
        genes = {}
        for m, part in zip(MODULES, parts):
            tag = m[0].upper()
            head, _, dims_text = part.partition(";")
            if not head.startswith(tag):
                raise SpaceError(f"gene for {m} must start with {tag!r}: {text!r}")
            try:
                depth = int(head[1:])
                dims = tuple(int(d) for d in dims_text.split(",")) if dims_text else ()
            except ValueError:
                raise SpaceError(f"{m} depth and dims must be integers: {text!r}") from None
            if not 0 <= depth <= len(dims):
                raise SpaceError(f"{m} depth {depth} outside its {len(dims)} dims: {text!r}")
            genes[m] = ModuleGene(depth, dims)
        if len({len(g.dims) for g in genes.values()}) != 1:
            raise SpaceError(f"genes differ in their number of dims: {text!r}")
        return SubnetConfig(**genes)

    def to_dict(self) -> dict:
        """Keyed document form: the layer count and each module's depth and
        per-layer dims, as JSON-ready values."""
        doc = {"num_layers": self.num_layers}
        for m in MODULES:
            g = self.gene(m)
            doc[m] = {"depth": g.depth, "dims": list(g.dims)}
        return doc

    @staticmethod
    def empty(num_layers: int) -> "SubnetConfig":
        zero = ModuleGene(0, (0,) * num_layers)
        return SubnetConfig(zero, zero, zero)

    @staticmethod
    def uniform(module: str, dim: int, depth: int, num_layers: int) -> "SubnetConfig":
        """Single fixed module at one dimension through ``depth`` layers."""
        if module not in MODULES:
            raise SpaceError(f"unknown module {module!r}")
        genes = {m: ModuleGene(0, (0,) * num_layers) for m in MODULES}
        genes[module] = ModuleGene(depth, (dim,) * depth + (0,) * (num_layers - depth))
        return SubnetConfig(**genes)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class SearchSpaceSpec:
    num_layers: int
    depth_choices: tuple[int, ...] = (1, 2, 3, 4)
    dim_choices: dict = field(default_factory=lambda: {m: (1, 5, 10) for m in MODULES})
    embed_dim: int = 64
    budget: int = 10**9

    def __post_init__(self):
        if self.num_layers <= 0:
            raise SpaceError("num_layers must be positive")
        named = {"depth choices": self.depth_choices}
        named.update({f"dim choices for {m}": self.dim_choices.get(m) for m in MODULES})
        for what, values in named.items():
            if not values:
                raise SpaceError(f"missing {what}")
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
                raise SpaceError(f"{what} must be integers, got {list(values)}")
            if min(values) <= 0:
                raise SpaceError(f"{what} must be positive (0 is implicit)")
        if max(self.depth_choices) > self.num_layers:
            raise SpaceError(
                f"depth choices {self.depth_choices} exceed num_layers {self.num_layers}"
            )
        if self.budget < 0:
            raise SpaceError("budget must be non-negative")

    def dim_gene_choices(self, module: str) -> tuple[int, ...]:
        """Per-layer gene values: the dim choices plus 0 (module absent here)."""
        return (0,) + tuple(self.dim_choices[module])

    def full_config(self) -> SubnetConfig:
        """Every module at depth ``num_layers`` and its largest dim: the
        supernet's size, of which every config in the space reads a prefix."""
        return SubnetConfig(**{
            m: ModuleGene(self.num_layers, (max(self.dim_choices[m]),) * self.num_layers)
            for m in MODULES
        })


# ---------------------------------------------------------------------------
# parameter accounting


def module_layer_params(module: str, dim: int, embed_dim: int) -> int:
    """Trainable scalars one module adds at one layer with active dim ``dim``."""
    if dim == 0:
        return 0
    d = embed_dim
    if module == "adapter":
        return d * dim + dim + dim * d + d  # w_down, b_down, w_up, b_up
    if module == "lora":
        return 2 * (d * dim + dim * d)  # q and k, each down+up, bias-free
    if module == "vpt":
        return dim * d  # token bank rows
    raise SpaceError(f"unknown module {module!r}")


def count_params(config: SubnetConfig, embed_dim: int) -> int:
    """Exact trainable prompt-parameter count; the head is not counted."""
    return sum(module_layer_params(m, config.active_dim(m, layer), embed_dim)
               for m in MODULES for layer in range(config.num_layers))


def budget_from_fraction(backbone_params: int, fraction: float) -> int:
    return int(round(backbone_params * fraction))


# ---------------------------------------------------------------------------
# validation


def validate(config: SubnetConfig, spec: SearchSpaceSpec) -> list[Violation]:
    """Structured violation list; empty means the config is valid."""
    out: list[Violation] = []
    for m in MODULES:
        g = config.gene(m)
        if len(g.dims) != spec.num_layers:
            out.append(
                Violation("dims_length", f"{m}: {len(g.dims)} dims for {spec.num_layers} layers")
            )
            continue
        if g.depth != 0 and g.depth not in spec.depth_choices:
            out.append(Violation("depth_choice", f"{m}: depth {g.depth} not in choices"))
        allowed = set(spec.dim_gene_choices(m))
        for i, dim in enumerate(g.dims):
            if i >= g.depth:
                if dim != 0:
                    out.append(
                        Violation("non-canonical", f"{m}: dim {dim} at layer {i} >= depth {g.depth}")
                    )
            elif dim not in allowed:
                out.append(Violation("dim_choice", f"{m}: dim {dim} at layer {i} not allowed"))
    if not out and (count := count_params(config, spec.embed_dim)) > spec.budget:
        out.append(Violation("over_budget", f"{count} params exceed budget {spec.budget}"))
    return out


def canonicalize(config: SubnetConfig) -> SubnetConfig:
    return SubnetConfig(**{
        m: ModuleGene(config.gene(m).depth, dims)
        for m, dims in zip(MODULES, config.active_dims())
    })


# ---------------------------------------------------------------------------
# sampling and variation operators


def sample_uniform(spec: SearchSpaceSpec, rng: np.random.Generator) -> SubnetConfig:
    """Depth uniform over the depth choices, then each in-range layer dim
    uniform over that module's dim choices."""
    genes = {}
    for m in MODULES:
        depth = int(spec.depth_choices[rng.integers(len(spec.depth_choices))])
        choices = spec.dim_choices[m]
        dims = tuple(
            int(choices[rng.integers(len(choices))]) if i < depth else 0
            for i in range(spec.num_layers)
        )
        genes[m] = ModuleGene(depth, dims)
    return SubnetConfig(**genes)


def budget_sampler(spec: SearchSpaceSpec) -> Callable[[np.random.Generator], SubnetConfig]:
    """Exact sampler of ``sample_uniform`` conditioned on ``count_params(config,
    spec.embed_dim) <= spec.budget``: one draw per sample, ``SpaceError`` if nothing fits.

    A module's outcomes are its (depth, dim multiset) pairs, which fix its
    count, weighted by their share of ``sample_uniform``'s draws. Modules are
    drawn in turn, each outcome weighted by its probability times that of the
    later modules fitting the budget left; the multiset's order is uniform.
    """
    tables = []  # per module: counts (ascending), probabilities, in-depth dims
    for m in MODULES:
        choices, k = spec.dim_choices[m], len(spec.dim_choices[m])
        outcomes = sorted(
            (sum(module_layer_params(m, choices[i], spec.embed_dim) for i in combo),
             math.factorial(depth) / math.prod(math.factorial(combo.count(i)) for i in range(k))
             / k**depth / len(spec.depth_choices),
             tuple(choices[i] for i in combo))
            for depth in spec.depth_choices
            for combo in itertools.combinations_with_replacement(range(k), depth)
        )
        counts, probs, dims = zip(*outcomes)
        tables.append((np.array(counts), np.array(probs), dims))
    smallest = sum(int(counts[0]) for counts, _, _ in tables)
    if smallest > spec.budget:
        raise SpaceError(f"no config fits budget {spec.budget}: the smallest has {smallest} params")
    last_cdf = np.concatenate(([0.0], np.cumsum(tables[-1][1])))

    def fits(j: int, room):
        """Probability that modules ``j``.. fit in ``room``, elementwise. The
        last module's CDF stands in for its axis, so no product is built."""
        if j == len(tables):
            return room >= 0
        counts, probs, _ = tables[j]
        if j == len(tables) - 1:
            return last_cdf[np.searchsorted(counts, room, side="right")]
        return (probs * fits(j + 1, room[..., None] - counts)).sum(-1)

    first = tables[0][1] * fits(1, spec.budget - tables[0][0])

    def sample(rng: np.random.Generator) -> SubnetConfig:
        room, genes = spec.budget, {}
        for j, (m, (counts, probs, dims)) in enumerate(zip(MODULES, tables)):
            weights = first if j == 0 else probs * fits(j + 1, room - counts)
            i = rng.choice(len(weights), p=weights / weights.sum())
            layers = tuple(int(d) for d in rng.permutation(dims[i]))
            genes[m] = ModuleGene(len(layers), layers + (0,) * (spec.num_layers - len(layers)))
            room -= int(counts[i])
        return SubnetConfig(**genes)

    return sample


def crossover(a: SubnetConfig, b: SubnetConfig, rng: np.random.Generator) -> SubnetConfig:
    """Uniform per-gene mixing: each depth and each per-layer dim comes from
    either parent with probability 1/2, then the child is re-canonicalized."""
    genes = {}
    for m in MODULES:
        ga, gb = a.gene(m), b.gene(m)
        depth = ga.depth if rng.integers(2) == 0 else gb.depth
        dims = tuple(
            da if rng.integers(2) == 0 else db for da, db in zip(ga.dims, gb.dims)
        )
        genes[m] = ModuleGene(depth, dims)
    return canonicalize(SubnetConfig(**genes))


def mutate(
    config: SubnetConfig,
    spec: SearchSpaceSpec,
    p: float,
    rng: np.random.Generator,
) -> SubnetConfig:
    """Resample each gene independently with probability ``p``: depth genes
    from the depth choices, per-layer dims from the dim choices plus 0."""
    if not 0.0 <= p <= 1.0:
        raise SpaceError(f"mutation probability {p} outside [0, 1]")
    genes = {}
    for m in MODULES:
        g = config.gene(m)
        depth = g.depth
        if rng.random() < p:
            depth = int(spec.depth_choices[rng.integers(len(spec.depth_choices))])
        dim_set = spec.dim_gene_choices(m)
        dims = []
        for i in range(spec.num_layers):
            v = g.dims[i]
            if rng.random() < p:
                v = int(dim_set[rng.integers(len(dim_set))])
            dims.append(v)
        genes[m] = ModuleGene(depth, tuple(dims))
    return canonicalize(SubnetConfig(**genes))
