"""Synthetic image-classification datasets and their on-disk format.

Everything is a deterministic function of (parameters, seed). On disk a
dataset is one ``checkpoint.save_arrays`` container: ``<split>_images`` (uint8
``[n, C, H, W]``) and ``<split>_labels`` (uint16 ``[n]``) per split, and a 0-d
JSON string ``manifest`` with ``name``, ``num_classes``, ``generator`` and
``normalization`` (a ``mean`` and ``std`` per channel). ``load_dataset``
raises ``DataError`` naming the path and the key on a file the container
loader rejects, keys that do not pair up into splits of equal ``n`` and one
``[C, H, W]`` (the ``image_shape``), a label out of range or a manifest value
of the wrong type or range.

Two task families:
  pattern-class  each class is a distinct orientation/frequency texture
  shape-count    the label is the number of bright blobs in the image
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import CheckpointError, load_arrays, save_arrays

log = logging.getLogger("noah.data")

TASKS = ("pattern-class", "shape-count")
TRAIN_FRACTION = 0.8  # of each class, in split_vtab_style
_CELL = 5  # blob placement grid pitch; keeps blobs 8-connectivity-separated


class DataError(ValueError):
    """Malformed dataset, manifest, or generation request."""


@dataclass
class Dataset:
    name: str
    num_classes: int
    image_shape: tuple[int, int, int]
    splits: dict[str, tuple[np.ndarray, np.ndarray]]  # name -> (images u8, labels u16)
    mean: np.ndarray  # per-channel, over train pixels scaled to [0, 1]
    std: np.ndarray
    generator: dict = field(default_factory=dict)

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if name not in self.splits:
            raise DataError(f"unknown split {name!r}; have {sorted(self.splits)}")
        return self.splits[name]

    def normalized(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        images, labels = self.split(name)
        return normalize_images(images, self.mean, self.std), labels.astype(np.int64)


def normalize_images(images_u8: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    x = images_u8.astype(np.float32) / 255.0
    return (x - mean[None, :, None, None]) / std[None, :, None, None]


def channel_stats(images_u8: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = images_u8.astype(np.float64) / 255.0
    mean = x.mean(axis=(0, 2, 3))
    std = np.maximum(x.std(axis=(0, 2, 3)), 1e-6)
    return mean.astype(np.float32), std.astype(np.float32)


# ---------------------------------------------------------------------------
# generators


def _balanced_labels(num_classes: int, samples: int) -> np.ndarray:
    if samples < num_classes:
        raise DataError(f"need at least {num_classes} samples, got {samples}")
    if samples % num_classes != 0:
        raise DataError(
            f"samples {samples} not divisible by {num_classes} classes; "
            "exact class balance is part of the format"
        )
    return np.arange(samples, dtype=np.uint16) % num_classes


def gen_pattern_class(
    num_classes: int,
    samples: int,
    seed: int,
    image_shape: tuple[int, int, int] = (1, 16, 16),
    noise: float = 8.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Each class is a sinusoidal grating with its own orientation and
    frequency; per-sample random phase and pixel noise."""
    c, h, w = image_shape
    labels = _balanced_labels(num_classes, samples)
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    images = np.empty((samples, c, h, w), np.uint8)
    for i, lab in enumerate(labels):
        theta = np.pi * (int(lab) % 4) / 4.0
        freq = 2.0 + 1.5 * (int(lab) // 4)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = np.sin(2.0 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) / w + phase)
        img = 127.5 + 97.5 * wave
        img = img + rng.normal(0.0, noise, (h, w))
        images[i] = np.clip(img, 0, 255).astype(np.uint8)[None]
    return images, labels


def gen_shape_count(
    num_classes: int,
    samples: int,
    seed: int,
    image_shape: tuple[int, int, int] = (1, 16, 16),
    noise: float = 8.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Label k means k+1 bright 3x3 blobs on a dark background. Blobs sit in
    distinct cells of a coarse grid with jitter, so they never touch and an
    independent connected-components pass can recover the count."""
    c, h, w = image_shape
    cells_y, cells_x = h // _CELL, w // _CELL
    capacity = cells_y * cells_x
    if num_classes > capacity:
        raise DataError(
            f"{num_classes} blobs do not fit a {h}x{w} image (capacity {capacity})"
        )
    labels = _balanced_labels(num_classes, samples)
    rng = np.random.default_rng(seed)
    images = np.empty((samples, c, h, w), np.uint8)
    for i, lab in enumerate(labels):
        count = int(lab) + 1
        img = np.full((h, w), 25.0)
        cells = rng.permutation(capacity)[:count]
        for cell in cells:
            oy, ox = (cell // cells_x) * _CELL, (cell % cells_x) * _CELL
            cy = oy + 1 + int(rng.integers(2))
            cx = ox + 1 + int(rng.integers(2))
            img[cy - 1 : cy + 2, cx - 1 : cx + 2] = 230.0 + rng.integers(-20, 21)
        img = img + rng.normal(0.0, noise, (h, w))
        images[i] = np.clip(img, 0, 255).astype(np.uint8)[None]
    return images, labels


def gen_mixed_base_task(
    num_classes: int,
    samples: int,
    seed: int,
    image_shape: tuple[int, int, int] = (1, 16, 16),
    noise: float = 8.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Pretraining task blending both families so the frozen features carry
    texture and counting signal. Classes split half/half between families."""
    n_pat = num_classes // 2
    n_cnt = num_classes - n_pat
    per = samples // num_classes
    pat_images, pat_labels = gen_pattern_class(n_pat, per * n_pat, seed, image_shape, noise)
    cnt_images, cnt_labels = gen_shape_count(n_cnt, per * n_cnt, seed + 1, image_shape, noise)
    images = np.concatenate([pat_images, cnt_images])
    labels = np.concatenate([pat_labels, (cnt_labels + n_pat).astype(np.uint16)])
    order = np.random.default_rng(seed + 2).permutation(len(labels))
    return images[order], labels[order]


def gen_synthetic(
    task: str,
    num_classes: int,
    samples: int,
    seed: int,
    image_shape: tuple[int, int, int] = (1, 16, 16),
    noise: float = 8.0,
) -> Dataset:
    """Full generation pipeline: render, split 80/20 stratified, compute
    normalization stats from the train split."""
    if task == "pattern-class":
        images, labels = gen_pattern_class(num_classes, samples, seed, image_shape, noise)
    elif task == "shape-count":
        images, labels = gen_shape_count(num_classes, samples, seed, image_shape, noise)
    else:
        raise DataError(f"unknown task {task!r}; expected one of {TASKS}")
    train_idx, val_idx = split_vtab_style(labels, seed)
    mean, std = channel_stats(images[train_idx])
    return Dataset(
        name=f"{task}-c{num_classes}-n{samples}-s{seed}",
        num_classes=num_classes,
        image_shape=image_shape,
        splits={
            "train": (images[train_idx], labels[train_idx]),
            "val": (images[val_idx], labels[val_idx]),
        },
        mean=mean,
        std=std,
        generator={
            "task": task,
            "num_classes": num_classes,
            "samples": samples,
            "seed": seed,
            "noise": noise,
        },
    )


# ---------------------------------------------------------------------------
# splits


def split_vtab_style(labels: np.ndarray, seed: int):
    """Disjoint, exhaustive, per-class-stratified train/val index arrays, with
    ``TRAIN_FRACTION`` of each class in train."""
    if len(labels) < 5:
        raise DataError(f"need at least 5 samples to split, got {len(labels)}")
    rng = np.random.default_rng(seed)
    train, val = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < 2:
            log.warning("class %d has %d sample(s); assigning to train", cls, len(idx))
            train.extend(idx)
            continue
        perm = idx[rng.permutation(len(idx))]
        k = int(round(TRAIN_FRACTION * len(idx)))
        k = min(max(k, 1), len(idx) - 1)
        train.extend(perm[:k])
        val.extend(perm[k:])
    return np.sort(np.asarray(train, np.int64)), np.sort(np.asarray(val, np.int64))


# ---------------------------------------------------------------------------
# on-disk format


def save_dataset(ds: Dataset, path) -> None:
    """Write ``ds`` to ``path`` as one container (see the module docstring)."""
    manifest = {"name": ds.name, "num_classes": ds.num_classes, "generator": ds.generator,
                "normalization": {"mean": ds.mean.tolist(), "std": ds.std.tolist()}}
    arrays = {"manifest": np.array(json.dumps(manifest, sort_keys=True))}
    for split, (images, labels) in ds.splits.items():
        arrays[f"{split}_images"] = np.ascontiguousarray(images, np.uint8)
        arrays[f"{split}_labels"] = labels.astype("<u2")
    save_arrays(path, arrays)


def load_dataset(path) -> Dataset:
    """Read and check a dataset written by ``save_dataset``."""
    try:
        arrays = load_arrays(path)
    except (CheckpointError, OSError) as exc:
        raise DataError(f"cannot load dataset {path}: {exc}") from exc

    bad = f"malformed dataset {path}: "
    try:
        manifest = json.loads(arrays.pop("manifest").item())
        name, num_classes = str(manifest["name"]), manifest["num_classes"]
        generator = manifest["generator"]
        mean, std = (np.asarray(manifest["normalization"][k], np.float32) for k in ("mean", "std"))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{bad}manifest: {exc!r}") from exc
    if type(num_classes) is not int or num_classes < 1:
        raise DataError(f"{bad}num_classes must be a positive integer, got {num_classes!r}")
    if not isinstance(generator, dict):
        raise DataError(f"{bad}generator must be an object, got {generator!r}")
    names = sorted({key.rpartition("_")[0] for key in arrays})
    expected = {f"{split}_{kind}" for split in names for kind in ("images", "labels")}
    if set(arrays) != expected:
        raise DataError(f"{bad}{sorted(expected ^ set(arrays))} do not pair up as <split>_images "
                        "and <split>_labels")
    splits = {}
    for split in names:
        images, labels = arrays[f"{split}_images"], arrays[f"{split}_labels"]
        if (images.dtype, images.ndim, labels.dtype, labels.shape) != (
                np.uint8, 4, np.uint16, images.shape[:1]) or 0 in images.shape[1:]:
            raise DataError(f"{bad}split {split!r} needs uint8 [n, C, H, W] images, C, H, W > 0, "
                            f"and uint16 [n] labels, got {images.dtype} {list(images.shape)} and "
                            f"{labels.dtype} {list(labels.shape)}")
        if (labels >= num_classes).any():
            raise DataError(f"{bad}{split}_labels: label {labels.max()} out of range for "
                            f"{num_classes} classes")
        splits[split] = (images, labels)
    shapes = {images.shape[1:] for images, _ in splits.values()}
    if len(shapes) != 1:
        raise DataError(f"{bad}needs splits of one [C, H, W], got {sorted(map(list, shapes))}")
    image_shape = shapes.pop()
    if not (mean.shape == std.shape == image_shape[:1] and np.isfinite([mean, std]).all()
            and (std > 0).all()):
        raise DataError(f"{bad}normalization needs one mean and one std per channel "
                        f"({image_shape[0]}), mean must be finite and std positive, got "
                        f"{mean.tolist()} and {std.tolist()}")
    return Dataset(name=name, num_classes=num_classes, image_shape=image_shape,
                   splits=splits, mean=mean, std=std, generator=generator)
