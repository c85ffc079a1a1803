"""AdamW with decoupled weight decay, the cosine LR schedule and the
minibatch slicing that ``supernet.train_model``, the one training loop,
runs every stage with. ``OptimHyper`` is one stage's settings: the
``supernet_hyper`` and ``subnet_hyper`` config sections, and what
``pretrain.to_hyper`` builds.

The optimizer accepts per-step index regions so that a training step touches
only the parameter slices the sampled subnet actually used. Moments and step
counts live at the full bank shapes: slices share optimizer state the same
way they share weights, and bias correction is tracked per element because
different prefixes train at different rates.

``backward`` is imported here, and ``train_model`` calls it as
``optim.backward``, because the bench tracer times the backward pass by
wrapping this module's name (ROADMAP item 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, backward  # noqa: F401 (backward: see above)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; message names the step and sampled config."""


class ScheduleError(ValueError):
    pass


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass
class OptimHyper:
    """One training stage's settings; ``warmup_epochs`` is clamped to
    ``total_epochs``."""

    base_lr: float
    total_epochs: int
    weight_decay: float = 1e-3
    warmup_epochs: int = 10
    batch_size: int = 64

    def __post_init__(self):
        if self.base_lr <= 0 or self.total_epochs < 0 or self.batch_size <= 0:
            raise ScheduleError("base_lr and batch_size must be positive, epochs >= 0")
        if self.warmup_epochs < 0 or self.weight_decay < 0:
            raise ScheduleError("warmup_epochs and weight_decay must be >= 0")
        self.warmup_epochs = min(self.warmup_epochs, self.total_epochs)


def lr_at(step: int, total_steps: int, hyper: OptimHyper) -> float:
    """Linear ramp 0 -> base_lr over the warmup span, then a half-cosine decay
    down to a floor of 1e-6 * base_lr."""
    if not 0 <= step < total_steps:
        raise ScheduleError(f"step {step} outside [0, {total_steps})")
    warmup = int(round(total_steps * hyper.warmup_epochs / hyper.total_epochs))
    if step < warmup:
        return hyper.base_lr * step / warmup
    span = max(total_steps - warmup, 1)
    progress = (step - warmup) / span
    lr = hyper.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
    return max(lr, 1e-6 * hyper.base_lr)


def decays(name: str, t: Tensor) -> bool:
    """Decay weight matrices only: no biases, norms, or prompt-token banks."""
    return t.data.ndim >= 2 and not name.endswith(".P")


def full_region(t: Tensor) -> tuple:
    return tuple(slice(None) for _ in t.shape)


class AdamW:
    """Decoupled-weight-decay Adam over named parameters.

    ``step`` takes the regions active this step; anything outside them is
    left bit-for-bit untouched, including its moments.
    """

    def __init__(self, params: dict[str, Tensor], hyper: OptimHyper):
        self.params = dict(params)
        self.hyper = hyper
        self.decay = {name: decays(name, t) for name, t in self.params.items()}
        self.m = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.t = {name: np.zeros(t.shape, np.int64) for name, t in self.params.items()}

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def step(self, lr: float, regions: dict[str, tuple]) -> None:
        hp = self.hyper
        for name, region in regions.items():
            p = self.params[name]
            if p.grad is None:
                continue
            if p.grad.shape != p.data.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
            g = p.grad[region]
            self.t[name][region] += 1
            t = self.t[name][region]
            m = BETA1 * self.m[name][region] + (1.0 - BETA1) * g
            v = BETA2 * self.v[name][region] + (1.0 - BETA2) * g * g
            self.m[name][region] = m
            self.v[name][region] = v
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            if hp.weight_decay != 0.0 and self.decay[name]:
                p.data[region] *= 1.0 - lr * hp.weight_decay
            p.data[region] -= lr * m_hat / (np.sqrt(v_hat) + EPS)


def batch_slices(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield start, min(start + batch_size, n)
