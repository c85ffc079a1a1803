"""One prompted-model type: a frozen backbone, prompt tensors and a
classifier head, run for any subnet config.

The supernet is the full-size subnet: its prompt tensors, the entangled banks,
are those of ``spec.full_config()``, laid out by ``prompts.LAYOUT`` like every
other model's. Each training step samples one subnet uniformly, runs it, and
updates only the bank prefixes that subnet touched (plus the always-trainable
classifier head). Any subnet can then be evaluated with inherited weights, or
extracted into a model of the same type whose exact-size tensors reproduce
the supernet forward bit for bit. A retrained or from-scratch subnet is the
same type again, trained by the same ``train_model`` on a fixed config. So is
the backbone while it pretrains: a model with no prompt tensors whose every
weight trains, on the empty config.

Evaluation scores a whole list of subnets through one ``model_forward``
call per batch slice, the same forward that training runs, so each distinct
layer prefix runs once per slice (see ``backbone``); scoring a single config
is ``evaluate(model, images, labels, [config])[0]``. The rows of a split do
not depend on each other, so ``evaluate`` hands its slices to up to
``eval_workers()`` threads, the calling thread among them, and adds up each
config's integer hit counts. The slices depend only on the row count and the
batch size, so an accuracy does not depend on the host. Evaluation is serial
unless numpy's OpenBLAS runs one thread per call (``OPENBLAS_NUM_THREADS=1``).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
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


# The most threads evaluation was measured with (2 cores, one BLAS thread
# each); more are not used until measured.
EVAL_WORKERS_MAX = 2
_OPENBLAS = "openblas" in getattr(np.__config__, "CONFIG", {}).get(
    "Build Dependencies", {}).get("blas", {}).get("name", "")


def eval_workers() -> int:
    """Threads ``evaluate`` runs at once. 1 unless numpy's BLAS is OpenBLAS
    limited to one thread per call (the first positive of
    ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``,
    read in that order as OpenBLAS reads them, is 1); then the usable CPUs,
    at most ``EVAL_WORKERS_MAX``. A multi-threaded OpenBLAS serialises the
    GEMMs of two calling threads, which made a threaded search ~50% slower,
    so with BLAS threads left at their default evaluation stays in the
    calling thread."""
    blas = None
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    if not _OPENBLAS or blas != 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(EVAL_WORKERS_MAX, cpus)


def evaluate(
    model: PromptedModel,
    images: np.ndarray,
    labels: np.ndarray,
    configs: Sequence[SubnetConfig],
    batch_size: int = 100,
    counts: dict[str, int] | None = None,
) -> list[float]:
    """Deterministic top-1 accuracy of each config, in order; no gradients.

    The split's rows are cut by ``batch_slices(n, batch_size)``, as training
    cuts them, and each slice is scored by the argmax of each config's
    logits from one ``model_forward``, which runs each distinct layer prefix
    once. With ``workers = eval_workers()`` above 1, worker w runs slices
    w, w + workers, ... in turn: worker 0 is the calling thread and the
    others run in a thread pool that lives only inside the call. Every slice
    runs on one frozen view of ``model.weights``: new tensors over the same
    arrays that require no grad. So no op in the call records a graph, and a
    model trained in another thread meanwhile records as always. Logits that
    are not all finite raise ``GradientError`` naming the config's encoding
    and the slice's rows, so a NaN weight or image is never scored as a
    class. Every thread runs under the caller's ``np.errstate``, so under
    ``invalid="raise"`` any slice raises ``FloatingPointError`` at the op
    that makes a NaN. An exception in a slice is re-raised once every
    thread has joined. Accuracies are sums of integer hits, so they depend
    on the slicing alone: not on the worker count, the host, or the order
    slices finish in. The default batch size of 100 cuts the
    benchmark's 200-row val split in two, one slice per core.

    ``counts``, when given, grows by one walk's blocks (see ``model_forward``):
    only the first slice passes it on, since every slice walks the same
    configs. So it does not depend on the slicing or the worker count.

    Between two slicings of the same rows, logits can differ in the last
    float32 bit, since BLAS may sum in another order for another row count
    (up to 2e-7 on the benchmark's 200-row split), which can flip an argmax
    only on a near-tie. So compare accuracies at one batch size."""
    n = len(labels)
    if n == 0:
        raise ValueError("cannot evaluate on an empty split")
    if batch_size < 1:
        raise ValueError(f"evaluation batch_size must be positive, got {batch_size}")
    slices = list(batch_slices(n, batch_size))
    workers = min(eval_workers(), len(slices))
    weights = {name: Tensor(t.data) for name, t in model.weights.items()}

    def score(worker: int) -> list[list[int]]:
        """Per-config hits of each slice that ``worker`` runs."""
        hits = []
        for k in range(worker, len(slices), workers):
            lo, hi = slices[k]
            logits = model_forward(weights, model.cfg, images[lo:hi], configs,
                                   counts if k == 0 else None)
            slice_hits = []
            for config, out in zip(configs, logits):
                if not np.isfinite(out.data).all():
                    raise T.GradientError(
                        f"non-finite logits for config {config.encode()} on rows {lo}:{hi}")
                slice_hits.append(int((out.data.argmax(axis=1) == labels[lo:hi]).sum()))
            hits.append(slice_hits)
        return hits

    if workers == 1:
        shares = [score(0)]
    else:
        err = np.geterr()  # numpy's error state is per thread; a pool thread starts at the defaults

        def pooled(worker: int) -> list[list[int]]:
            with np.errstate(**err):
                return score(worker)

        with ThreadPoolExecutor(workers - 1, thread_name_prefix="evaluate") as pool:
            started = [pool.submit(pooled, w) for w in range(1, workers)]
            shares = [score(0)] + [future.result() for future in started]
    return [sum(col) / n for col in zip(*(hits for share in shares for hits in share))]


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
    copy of the given head (the supernet and from-scratch runs)."""
    return _assemble(backbone_weights, cfg, spec, init_subnet_tensors(config, cfg.embed_dim, rng))
