"""Named-array container, and checkpoints built on it.

A container is the zip archive ``np.savez`` writes: one stored ``<name>.npy``
member per array, names sorted, fixed 1980 timestamps, so saving loaded
arrays reproduces the file byte for byte. ``load_arrays`` raises
``CheckpointError`` naming the path: ``bad_magic`` unless the file starts with
a zip local header (an old ``NOAH`` checkpoint or a bare ``.npy`` does not);
``corrupt`` unless it ends with the 22-byte end record (``zipfile`` ignores
trailing bytes), if ``zipfile`` fails (truncation, a CRC-32 mismatch), or if a
member is not one array that ``read_array(allow_pickle=False)`` reads to its
end. A checkpoint is a container of float32 arrays; so is a dataset (``data``).
"""

from __future__ import annotations

import os
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class CheckpointError(Exception):
    """Structured load/save failure; ``kind`` distinguishes the causes."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


@contextmanager
def atomic_write(path):
    """Binary file handle whose contents replace ``path`` only once the block
    exits cleanly. Writes go to a temp file in the target directory, moved
    into place with ``os.replace``; if the block raises, the temp file is
    removed and any previous file at ``path`` is left untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``path`` as one container, names sorted."""
    # np.savez gets the handle, never the path, to which it would append ".npz"
    with atomic_write(path) as f:
        np.savez(f, **{name: arrays[name] for name in sorted(arrays)})


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read and check a container written by ``save_arrays``."""
    arrays, name = {}, None
    with open(path, "rb") as f:
        if f.read(4) != b"PK\x03\x04":
            raise CheckpointError("bad_magic", f"{path} is not an np.savez archive")
        f.seek(max(f.seek(0, os.SEEK_END) - 22, 0))  # np.savez writes no zip comment
        if f.read(4) != b"PK\x05\x06":
            raise CheckpointError("corrupt", f"{path} does not end with a zip end record")
        try:
            with zipfile.ZipFile(f) as archive:
                for name in archive.namelist():
                    with archive.open(name) as member:
                        arrays[name.removesuffix(".npy")] = np.lib.format.read_array(
                            member, allow_pickle=False)
                        # zipfile checks the CRC-32 at the member's end, past a shrunk shape
                        if member.read(1):
                            raise ValueError("bytes past the array its header describes")
        except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
            where = f"{path}: member {name!r}" if name else str(path)
            raise CheckpointError("corrupt", f"{where}: {exc}") from exc
    return arrays


def save_checkpoint(path, tensors: dict) -> None:
    """Write name->array (or Tensor) map as float32."""
    if not tensors:
        raise CheckpointError("empty", "refusing to write a checkpoint with no tensors")
    save_arrays(path, {name: np.ascontiguousarray(getattr(t, "data", t), dtype="<f4")
                       for name, t in tensors.items()})


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; returns name -> float32 array."""
    arrays = load_arrays(path)
    for name, arr in arrays.items():
        if arr.dtype != np.dtype("<f4"):
            raise CheckpointError("bad_dtype", f"{path}: {name} is {arr.dtype}, not float32")
    return arrays
