"""Synthetic image-classification datasets and their on-disk format.

Images are raw unsigned bytes ([count, C, H, W], row-major), labels are
little-endian unsigned 16-bit, and the manifest is a JSON document describing
shapes, splits and normalization statistics. Everything is a deterministic
function of (parameters, seed).

Two task families:
  pattern-class  each class is a distinct orientation/frequency texture
  shape-count    the label is the number of bright blobs in the image
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write

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


def save_dataset(ds: Dataset, root) -> None:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "name": ds.name,
        "num_classes": ds.num_classes,
        "image_shape": list(ds.image_shape),
        "splits": {},
        "generator": ds.generator,
        "normalization": {
            "mean": [float(v) for v in ds.mean],
            "std": [float(v) for v in ds.std],
        },
    }
    files: dict[str, bytes] = {}
    for split, (images, labels) in sorted(ds.splits.items()):
        images_file = f"{split}_images.bin"
        labels_file = f"{split}_labels.bin"
        files[images_file] = np.ascontiguousarray(images, np.uint8).tobytes()
        files[labels_file] = labels.astype("<u2").tobytes()
        manifest["splits"][split] = {
            "images_file": images_file,
            "labels_file": labels_file,
            "count": int(len(labels)),
        }
    files["manifest.json"] = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    # Every file is encoded before any is written, so a split that cannot be
    # stored leaves the previous save untouched; the manifest goes last.
    for name, blob in files.items():
        with atomic_write(root / name) as f:
            f.write(blob)


def _read_split_file(root: Path, split: str, name: str) -> bytes:
    try:
        return (root / name).read_bytes()
    except OSError as exc:
        raise DataError(f"split {split!r}: cannot read {name}: {exc.strerror}") from exc


def load_dataset(root) -> Dataset:
    root = Path(root)
    path = root / "manifest.json"
    if not path.exists():
        raise DataError(f"no manifest at {path}")
    try:
        manifest = json.loads(path.read_text())
        num_classes = manifest["num_classes"]
        image_shape = tuple(manifest["image_shape"])
        mean = np.asarray(manifest["normalization"]["mean"], np.float32)
        std = np.asarray(manifest["normalization"]["std"], np.float32)
        split_entries = manifest["splits"]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise DataError(f"malformed manifest {path}: {exc}") from exc
    if type(num_classes) is not int or num_classes < 1:
        raise DataError(
            f"malformed manifest {path}: num_classes must be a positive integer, "
            f"got {num_classes!r}"
        )
    if len(image_shape) != 3 or not all(type(v) is int and v > 0 for v in image_shape):
        raise DataError(
            f"malformed manifest {path}: image_shape must be three positive integers, "
            f"got {list(image_shape)}"
        )
    c, h, w = image_shape
    if mean.shape != (c,) or std.shape != (c,):
        raise DataError(
            f"malformed manifest {path}: normalization needs one mean and one std per "
            f"channel ({c}), got mean {mean.tolist()} and std {std.tolist()}"
        )
    if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
        raise DataError(
            f"malformed manifest {path}: normalization mean must be finite and std positive "
            f"and finite, got mean {mean.tolist()} and std {std.tolist()}"
        )
    generator = manifest.get("generator", {})
    for key, value in (("splits", split_entries), ("generator", generator)):
        if not isinstance(value, dict):
            raise DataError(
                f"malformed manifest {path}: {key} must be an object, got {value!r}")
    splits = {}
    for split, entry in split_entries.items():
        try:
            count = entry["count"]
            images_file, labels_file = entry["images_file"], entry["labels_file"]
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed manifest {path}: split {split!r}: {exc!r}") from exc
        if type(count) is not int or count < 0:
            raise DataError(f"malformed manifest {path}: split {split!r}: count must be a "
                            f"non-negative integer, got {count!r}")
        if not (isinstance(images_file, str) and isinstance(labels_file, str)):
            raise DataError(f"malformed manifest {path}: split {split!r}: file names must be "
                            f"strings, got {images_file!r} and {labels_file!r}")
        raw = _read_split_file(root, split, images_file)
        expected = count * c * h * w
        if len(raw) != expected:
            raise DataError(f"{images_file}: {len(raw)} bytes, manifest implies {expected}")
        images = np.frombuffer(raw, np.uint8).reshape(count, c, h, w)
        raw = _read_split_file(root, split, labels_file)
        if len(raw) != count * 2:
            raise DataError(f"{labels_file}: {len(raw)} bytes, manifest implies {count * 2}")
        labels = np.frombuffer(raw, "<u2").astype(np.uint16)
        if labels.size and labels.max() >= num_classes:
            raise DataError(f"label {labels.max()} out of range for {num_classes} classes")
        splits[split] = (images, labels)
    return Dataset(
        name=str(manifest.get("name", root.name)),
        num_classes=num_classes,
        image_shape=image_shape,
        splits=splits,
        mean=mean,
        std=std,
        generator=dict(generator),
    )
