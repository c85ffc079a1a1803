"""Adapter, LoRA and VPT parameter banks with prefix-slice weight sharing.

Banks are stored at maximal dimension. Activating a smaller dimension reads
only the leading slices (first columns of down-projections, first rows of
up-projections, first token rows), so every subnet trains the same underlying
prefixes. Up-projections start at zero: a freshly initialized bank is an
exact no-op on the host model.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .space import SubnetConfig
from .tensor import Tensor


def init_prompt_banks(
    num_layers: int,
    embed_dim: int,
    max_dims: dict[str, int],
    rng: np.random.Generator,
) -> dict[str, Tensor]:
    """Fresh trainable banks for all three modules, keyed by checkpoint name."""
    d = embed_dim
    bound = 1.0 / np.sqrt(d)
    banks: dict[str, Tensor] = {}

    def uniform(*shape):
        return rng.uniform(-bound, bound, shape).astype(np.float32)

    for i in range(num_layers):
        r = max_dims["adapter"]
        banks[f"adapter.L{i}.w_down"] = Tensor(uniform(d, r), requires_grad=True)
        banks[f"adapter.L{i}.b_down"] = Tensor(np.zeros(r, np.float32), requires_grad=True)
        banks[f"adapter.L{i}.w_up"] = Tensor(np.zeros((r, d), np.float32), requires_grad=True)
        banks[f"adapter.L{i}.b_up"] = Tensor(np.zeros(d, np.float32), requires_grad=True)
        r = max_dims["lora"]
        for proj in ("q", "k"):
            banks[f"lora.L{i}.{proj}.w_down"] = Tensor(uniform(d, r), requires_grad=True)
            banks[f"lora.L{i}.{proj}.w_up"] = Tensor(
                np.zeros((r, d), np.float32), requires_grad=True
            )
        m = max_dims["vpt"]
        banks[f"vpt.L{i}.P"] = Tensor(uniform(m, d), requires_grad=True)
    return banks


def init_subnet_tensors(
    config: SubnetConfig, embed_dim: int, rng: np.random.Generator
) -> dict[str, Tensor]:
    """Exact-size fresh tensors for one fixed architecture (baseline runs),
    same init scheme as the banks."""
    d = embed_dim
    bound = 1.0 / np.sqrt(d)
    out: dict[str, Tensor] = {}

    def uniform(*shape):
        return rng.uniform(-bound, bound, shape).astype(np.float32)

    for i in range(config.num_layers):
        r = config.active_dim("adapter", i)
        if r > 0:
            out[f"adapter.L{i}.w_down"] = Tensor(uniform(d, r), requires_grad=True)
            out[f"adapter.L{i}.b_down"] = Tensor(np.zeros(r, np.float32), requires_grad=True)
            out[f"adapter.L{i}.w_up"] = Tensor(np.zeros((r, d), np.float32), requires_grad=True)
            out[f"adapter.L{i}.b_up"] = Tensor(np.zeros(d, np.float32), requires_grad=True)
        r = config.active_dim("lora", i)
        if r > 0:
            for proj in ("q", "k"):
                out[f"lora.L{i}.{proj}.w_down"] = Tensor(uniform(d, r), requires_grad=True)
                out[f"lora.L{i}.{proj}.w_up"] = Tensor(
                    np.zeros((r, d), np.float32), requires_grad=True
                )
        m = config.active_dim("vpt", i)
        if m > 0:
            out[f"vpt.L{i}.P"] = Tensor(uniform(m, d), requires_grad=True)
    return out


def bank_regions(config: SubnetConfig) -> dict[str, tuple]:
    """Index regions of each bank touched by ``config`` (optimizer masking)."""
    regions: dict[str, tuple] = {}
    for i in range(config.num_layers):
        r = config.active_dim("adapter", i)
        if r > 0:
            regions[f"adapter.L{i}.w_down"] = (slice(None), slice(0, r))
            regions[f"adapter.L{i}.b_down"] = (slice(0, r),)
            regions[f"adapter.L{i}.w_up"] = (slice(0, r), slice(None))
            regions[f"adapter.L{i}.b_up"] = (slice(None),)
        r = config.active_dim("lora", i)
        if r > 0:
            for proj in ("q", "k"):
                regions[f"lora.L{i}.{proj}.w_down"] = (slice(None), slice(0, r))
                regions[f"lora.L{i}.{proj}.w_up"] = (slice(0, r), slice(None))
        m = config.active_dim("vpt", i)
        if m > 0:
            regions[f"vpt.L{i}.P"] = (slice(0, m), slice(None))
    return regions


def adapter_bottleneck(
    h: Tensor,
    w_down: Tensor,
    b_down: Tensor,
    w_up: Tensor,
    b_up: Tensor,
    r: int,
) -> Tensor:
    """relu(h @ w_down[:, :r] + b_down[:r]) @ w_up[:r, :] + b_up."""
    if not 1 <= r <= w_down.shape[1]:
        raise ValueError(f"adapter dim {r} outside [1, {w_down.shape[1]}]")
    wd = T.slice_axis(w_down, 1, 0, r)
    bd = T.slice_axis(b_down, 0, 0, r)
    wu = T.slice_axis(w_up, 0, 0, r)
    return T.linear(T.relu(T.linear(h, wd, bd)), wu, b_up)


def lora_delta(w_down: Tensor, w_up: Tensor, r: int) -> Tensor:
    """w_down[:, :r] @ w_up[:r, :], the [D, D] low-rank update; the caller
    adds it to the frozen projection weight."""
    if not 1 <= r <= w_down.shape[1]:
        raise ValueError(f"lora dim {r} outside [1, {w_down.shape[1]}]")
    wd = T.slice_axis(w_down, 1, 0, r)
    wu = T.slice_axis(w_up, 0, 0, r)
    return T.linear(wd, wu)


def inject_prompts(x: Tensor, prompt_rows: Tensor | None, current: int) -> tuple[Tensor, int]:
    """Place prompt tokens directly after position 0, replacing any ``current``
    prompt rows already present. Sequence order is [class token, prompts,
    patch embeddings]; prompt rows never receive positional embeddings.
    """
    n = x.shape[1]
    if prompt_rows is None:
        if current == 0:
            return x, 0
        cls = T.slice_axis(x, 1, 0, 1)
        rest = T.slice_axis(x, 1, 1 + current, n)
        return T.concat([cls, rest], axis=1), 0
    m, d = prompt_rows.shape
    batch = x.shape[0]
    rows = T.expand(T.reshape(prompt_rows, (1, m, d)), (batch, m, d))
    cls = T.slice_axis(x, 1, 0, 1)
    rest = T.slice_axis(x, 1, 1 + current, n)
    return T.concat([cls, rows, rest], axis=1), m


class PromptContext:
    """Per-layer view of the active prompt parameters for one subnet.

    Works identically over full-size supernet banks and exact-size extracted
    tensors: both go through the same prefix-slice ops, which keeps the two
    forward paths numerically indistinguishable.
    """

    def __init__(self, tensors: dict[str, Tensor], config: SubnetConfig):
        self.tensors = tensors
        self.config = config

    def adapter_at(self, layer: int):
        r = self.config.active_dim("adapter", layer)
        if r == 0:
            return None
        t = self.tensors
        return (
            t[f"adapter.L{layer}.w_down"],
            t[f"adapter.L{layer}.b_down"],
            t[f"adapter.L{layer}.w_up"],
            t[f"adapter.L{layer}.b_up"],
            r,
        )

    def lora_at(self, layer: int):
        r = self.config.active_dim("lora", layer)
        if r == 0:
            return None
        t = self.tensors
        return (
            t[f"lora.L{layer}.q.w_down"],
            t[f"lora.L{layer}.q.w_up"],
            t[f"lora.L{layer}.k.w_down"],
            t[f"lora.L{layer}.k.w_up"],
            r,
        )

    def vpt_at(self, layer: int) -> Tensor | None:
        m = self.config.active_dim("vpt", layer)
        if m == 0:
            return None
        return T.slice_axis(self.tensors[f"vpt.L{layer}.P"], 0, 0, m)
