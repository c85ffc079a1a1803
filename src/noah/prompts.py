"""Adapter, LoRA and VPT prompt tensors, laid out once in ``LAYOUT``.

``LAYOUT`` is the single definition of the prompt tensors: for each module,
the tensors it adds at one layer, each with its name, its axes (the embed dim
or the module's active dim) and whether it starts uniform or at zero. Every
reader goes through it: ``init_subnet_tensors`` (fresh tensors for a config),
``bank_regions`` (the part of each tensor a config touches, which the
optimizer updates) and ``active_slices`` (that same part, cut out for the
forward).

The supernet's banks are the tensors of the full-size config, every module at
every layer at its largest dim. A smaller dimension reads only the leading
slices along the module-dim axis (first columns of down-projections, first
rows of up-projections, first token rows), so every subnet trains the same
underlying prefixes. ``active_slices`` cuts them the same way from full-size
banks and from a subnet's exact-size tensors, so both run the same ops.
``adapter_bottleneck`` and ``lora_delta`` are pure maths on those slices.
Up-projections start at zero: freshly initialized tensors are an exact no-op
on the host model.
"""

from __future__ import annotations

import functools

import numpy as np

from . import tensor as T
from .space import MODULES, SubnetConfig
from .tensor import Tensor

# Per module, the tensors it adds at one layer, in initialization order:
# (name within "<module>.L<layer>.", axes, starts uniform). Each axis is "d",
# the embed dim, or "r", the module's active dim at that layer.
LAYOUT = {
    "adapter": (
        ("w_down", "dr", True),
        ("b_down", "r", False),
        ("w_up", "rd", False),
        ("b_up", "d", False),
    ),
    "lora": (
        ("q.w_down", "dr", True),
        ("q.w_up", "rd", False),
        ("k.w_down", "dr", True),
        ("k.w_up", "rd", False),
    ),
    "vpt": (("P", "rd", True),),
}


@functools.cache
def tensor_names(module: str, layer: int) -> tuple[str, ...]:
    """Checkpoint names of ``module``'s tensors at ``layer``, in layout order."""
    return tuple(f"{module}.L{layer}.{suffix}" for suffix, _, _ in LAYOUT[module])


def _active(config: SubnetConfig):
    """(module, layer, dim) of every module ``config`` turns on, layer by
    layer in ``MODULES`` order."""
    for layer in range(config.num_layers):
        for m in MODULES:
            r = config.active_dim(m, layer)
            if r > 0:
                yield m, layer, r


def init_subnet_tensors(
    config: SubnetConfig, embed_dim: int, rng: np.random.Generator
) -> dict[str, Tensor]:
    """Fresh trainable tensors of exactly the sizes ``config`` reads, keyed
    by checkpoint name: uniform in +-1/sqrt(embed_dim) or zero, per
    ``LAYOUT``. For ``spec.full_config()`` these are the supernet's banks."""
    bound = 1.0 / np.sqrt(embed_dim)
    out: dict[str, Tensor] = {}
    for m, layer, r in _active(config):
        for name, (_, axes, uniform) in zip(tensor_names(m, layer), LAYOUT[m]):
            shape = tuple(r if a == "r" else embed_dim for a in axes)
            if uniform:
                data = rng.uniform(-bound, bound, shape).astype(np.float32)
            else:
                data = np.zeros(shape, np.float32)
            out[name] = Tensor(data, requires_grad=True)
    return out


@functools.cache
def _regions(module: str, layer: int, r: int) -> tuple[tuple[str, tuple], ...]:
    """(name, region) of ``module``'s tensors at ``layer`` and dim ``r``;
    cached, since ``bank_regions`` runs every training step."""
    return tuple(
        (name, tuple(slice(0, r) if a == "r" else slice(None) for a in axes))
        for name, (_, axes, _) in zip(tensor_names(module, layer), LAYOUT[module])
    )


def bank_regions(config: SubnetConfig) -> dict[str, tuple]:
    """Index region of each prompt tensor ``config`` touches: the leading
    ``r`` entries along the module-dim axis (optimizer masking, extraction)."""
    regions: dict[str, tuple] = {}
    for m, layer, r in _active(config):
        regions.update(_regions(m, layer, r))
    return regions


def active_slices(
    weights: dict[str, Tensor], config: SubnetConfig, module: str, layer: int
) -> tuple[Tensor, ...] | None:
    """``module``'s tensors at ``layer`` in ``LAYOUT`` order, each cut along
    its "r" axis to the config's dim there, which is the region
    ``bank_regions`` names; None where the config leaves the module off. A
    dim past the stored rows raises ``GradientError`` from ``slice_axis``."""
    r = config.active_dim(module, layer)
    if r == 0:
        return None
    return tuple(
        T.slice_axis(weights[name], axes.index("r"), 0, r) if "r" in axes else weights[name]
        for name, (_, axes, _) in zip(tensor_names(module, layer), LAYOUT[module])
    )


def adapter_bottleneck(
    h: Tensor, w_down: Tensor, b_down: Tensor, w_up: Tensor, b_up: Tensor
) -> Tensor:
    """relu(h @ w_down + b_down) @ w_up + b_up."""
    return T.linear(T.relu(T.linear(h, w_down, b_down)), w_up, b_up)


def lora_delta(w_down: Tensor, w_up: Tensor) -> Tensor:
    """w_down @ w_up, the [D, D] low-rank update; the caller adds it to the
    frozen projection weight."""
    return T.linear(w_down, w_up)


def inject_prompts(x: Tensor, prompt_rows: Tensor | None) -> Tensor:
    """Append one layer's prompt tokens after the rows of ``x``: sequence
    order [class token, patch embeddings, prompts]. Prompt rows never
    receive positional embeddings. They serve as keys and values of their
    own block's attention only, so the block queries with the leading rows
    and no block output carries prompts. With no prompts, ``x`` itself.
    """
    if prompt_rows is None:
        return x
    m, d = prompt_rows.shape
    batch = x.shape[0]
    rows = T.expand(T.reshape(prompt_rows, (1, m, d)), (batch, m, d))
    return T.concat([x, rows], axis=1)
