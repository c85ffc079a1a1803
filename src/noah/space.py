"""Architecture gene encoding and the operators that move through it.

A subnet is described per prompt module (adapter, lora, vpt) by a depth and a
per-layer embedding dimension. Depth is zero-based-consecutive: depth = 3
means layers 0, 1, 2 carry the module. Entries at or beyond the depth are
exactly 0 (canonical form). Within the depth, 0 is a legal per-layer value so
a module can vanish from individual layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def encode(self) -> str:
        parts = []
        for m in MODULES:
            g = self.gene(m)
            parts.append(f"{m[0].upper()}{g.depth};" + ",".join(str(d) for d in g.dims))
        return "|".join(parts)

    @staticmethod
    def decode(text: str) -> "SubnetConfig":
        parts = text.strip().split("|")
        if len(parts) != 3:
            raise SpaceError(f"expected 3 module genes, got {len(parts)}")
        genes = {}
        for m, part in zip(MODULES, parts):
            tag = m[0].upper()
            head, _, dims_text = part.partition(";")
            if not head.startswith(tag):
                raise SpaceError(f"gene for {m} must start with {tag!r}: {part!r}")
            depth = int(head[1:])
            dims = tuple(int(d) for d in dims_text.split(",")) if dims_text else ()
            genes[m] = ModuleGene(depth, dims)
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
        genes = {}
        for m in MODULES:
            if m == module:
                dims = tuple(dim if i < depth else 0 for i in range(num_layers))
                genes[m] = ModuleGene(depth, dims)
            else:
                genes[m] = ModuleGene(0, (0,) * num_layers)
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
        if not self.depth_choices or max(self.depth_choices) > self.num_layers:
            raise SpaceError(
                f"depth choices {self.depth_choices} exceed num_layers {self.num_layers}"
            )
        if any(d <= 0 for d in self.depth_choices):
            raise SpaceError("depth choices must be positive (0 is implicit)")
        for m in MODULES:
            if m not in self.dim_choices or not self.dim_choices[m]:
                raise SpaceError(f"missing dim choices for {m}")
            if any(d <= 0 for d in self.dim_choices[m]):
                raise SpaceError(f"dim choices for {m} must be positive (0 is implicit)")
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
    total = 0
    for m in MODULES:
        g = config.gene(m)
        for layer in range(g.depth):
            total += module_layer_params(m, g.dims[layer], embed_dim)
    return total


def spec_count(spec: SearchSpaceSpec, config: SubnetConfig) -> int:
    return count_params(config, spec.embed_dim)


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
    if not out and spec_count(spec, config) > spec.budget:
        out.append(
            Violation(
                "over_budget",
                f"{spec_count(spec, config)} params exceed budget {spec.budget}",
            )
        )
    return out


def canonicalize(config: SubnetConfig) -> SubnetConfig:
    genes = {}
    for m in MODULES:
        g = config.gene(m)
        dims = tuple(d if i < g.depth else 0 for i, d in enumerate(g.dims))
        genes[m] = ModuleGene(g.depth, dims)
    return SubnetConfig(**genes)


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


def _shrink_largest_dim(config: SubnetConfig, spec: SearchSpaceSpec) -> SubnetConfig:
    """Step the single largest dim gene down to the next smaller allowed value."""
    best = None
    for m in MODULES:
        g = config.gene(m)
        for i in range(g.depth):
            if g.dims[i] > 0 and (best is None or g.dims[i] > best[2]):
                best = (m, i, g.dims[i])
    if best is None:
        return config
    m, i, dim = best
    ladder = sorted(spec.dim_gene_choices(m))
    smaller = [v for v in ladder if v < dim]
    new_dim = smaller[-1] if smaller else 0
    g = config.gene(m)
    dims = tuple(new_dim if j == i else d for j, d in enumerate(g.dims))
    genes = {name: config.gene(name) for name in MODULES}
    genes[m] = ModuleGene(g.depth, dims)
    return SubnetConfig(**genes)


def sample_within_budget(
    spec: SearchSpaceSpec, rng: np.random.Generator, max_tries: int = 100
) -> SubnetConfig:
    """Rejection-sample under the budget; after ``max_tries`` failures, shrink
    the largest dim gene of the last draw until it fits."""
    config = None
    for _ in range(max_tries):
        config = sample_uniform(spec, rng)
        if spec_count(spec, config) <= spec.budget:
            return config
    while spec_count(spec, config) > spec.budget:
        shrunk = _shrink_largest_dim(config, spec)
        if shrunk == config:
            raise SpaceError(f"no config fits budget {spec.budget}")
        config = shrunk
    return config


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
