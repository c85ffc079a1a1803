"""Spans around calls into noah's public functions, recorded from outside.

A `Tracer` replaces each target attribute (a module function or a class
method) with a wrapper that times the call, then puts the original back on
`uninstall`. A target is named the way its caller looks it up: the supernet
calls `model_forward` through `noah.supernet`, so that is the name wrapped
there. A target that no longer exists is listed in `Tracer.missing` instead
of raising, so a later change that deletes a function does not break the run.

Every wrapped call belongs to the innermost enclosing pipeline stage. Within a
stage, spans of kind "layer" nest: a layer's self time is its duration minus
the time of the layer spans called inside it. Spans of kind "op" are tensor
operations, timed whole and kept out of the layer nesting.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (target, span name, kind). Kinds: "stage" sets the pipeline stage that the
# spans inside it belong to; "layer" nests for self time; "op" is timed
# whole; "step" is an optimizer step; "count" only counts calls.
TARGETS = (
    ("noah.pipeline.train_supernet_stage", "supernet", "stage"),
    ("noah.pipeline.build_frozen_backbone", "pretrain", "stage"),
    ("noah.pipeline.evolve_stage", "search", "stage"),
    ("noah.pipeline.retrain_stage", "retrain", "stage"),
    ("noah.pipeline.save_model_weights", "save", "stage"),
    ("noah.pipeline.evaluate_checkpoint", "reload", "stage"),
    ("noah.data.gen_synthetic", "data", "stage"),
    ("noah.pipeline.evaluate", "supernet.evaluate", "layer"),
    ("noah.pipeline.load_model_weights", "checkpoint.load", "layer"),
    ("noah.supernet.model_forward", "backbone.forward", "layer"),
    ("noah.backbone.model_forward", "backbone.forward", "layer"),
    ("noah.backbone.block_forward", "backbone.block", "layer"),
    ("noah.backbone.msa_forward", "backbone.attn", "layer"),
    ("noah.backbone.adapter_bottleneck", "prompts.adapter", "layer"),
    ("noah.backbone.lora_delta", "prompts.lora", "layer"),
    ("noah.backbone.inject_prompts", "prompts.vpt", "layer"),
    ("noah.optim.backward", "tensor.backward", "layer"),
    ("noah.optim.AdamW.step", "optim.adamw", "step"),
    ("noah.tensor.gelu", "tensor.gelu", "op"),
    ("noah.tensor.layer_norm", "tensor.layer_norm", "op"),
    ("noah.tensor.softmax", "tensor.softmax", "op"),
    ("noah.tensor.matmul", "tensor.matmul", "op"),
    ("noah.tensor.Tensor.__init__", "tensor.tensors", "count"),
)


def _resolve(target: str):
    """(owner object, attribute name) for a dotted target, or None."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


class Tracer:
    """In-memory span aggregates, keyed by (stage, span name)."""

    def __init__(self):
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.enabled = False
        self.total = defaultdict(float)  # (stage, name) -> seconds, whole calls
        self.self_time = defaultdict(float)  # (stage, name) -> seconds minus child layers
        self.calls = defaultdict(int)  # (stage, name) -> call count
        self.durations = defaultdict(list)  # (stage, name) -> per-call seconds
        self.step_intervals: list[float] = []  # seconds between optimizer steps
        self._stages = ["none"]
        self._layer_children: list[float] = []
        self._last_step_end: float | None = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for target, name, kind in TARGETS:
            found = _resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, fn, name: str, kind: str):
        wrapper = {
            "stage": self._stage_wrapper,
            "layer": self._layer_wrapper,
            "op": self._op_wrapper,
            "step": self._step_wrapper,
            "count": self._count_wrapper,
        }[kind](fn, name)
        return functools.wraps(fn)(wrapper)

    # -- wrappers --------------------------------------------------------------
    # Each wrapper passes straight through while `enabled` is False, so one
    # installation serves both the traced and the untraced repetitions.

    def _record(self, name: str, seconds: float, self_seconds: float) -> None:
        key = (self._stages[-1], name)
        self.total[key] += seconds
        self.self_time[key] += self_seconds
        self.calls[key] += 1
        self.durations[key].append(seconds)

    def _stage_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._stages.append(name)
            self._last_step_end = None
            outer_children = self._layer_children
            self._layer_children = []
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self._record(name + ".stage", seconds, seconds)
                self._stages.pop()
                self._layer_children = outer_children
                self._last_step_end = None
        return wrapper

    def _layer_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._layer_children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                children = self._layer_children.pop()
                if self._layer_children:
                    self._layer_children[-1] += seconds
                self._record(name, seconds, seconds - children)
        return wrapper

    def _op_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self._record(name, seconds, seconds)
        return wrapper

    def _step_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._record(name, end - start, end - start)
                if self._stages[-1] == "supernet" and self._last_step_end is not None:
                    self.step_intervals.append(end - self._last_step_end)
                self._last_step_end = end
        return wrapper

    def _count_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.calls[(self._stages[-1], name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- reading ---------------------------------------------------------------

    def seconds(self, stage: str, name: str, self_only: bool = False) -> float:
        table = self.self_time if self_only else self.total
        return table.get((stage, name), 0.0)

    def count(self, stage: str, name: str) -> int:
        return self.calls.get((stage, name), 0)
