"""Bit-exact named-tensor container.

Layout: magic "NOAH" | format version (u32 LE) | header length (u64 LE) |
UTF-8 JSON header mapping tensor name -> {shape, dtype "f32", offset} |
payload of concatenated little-endian float32 arrays. Offsets are ascending,
non-overlapping, and cover the payload exactly; saving loaded tensors
reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"NOAH"
VERSION = 1


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


def save_checkpoint(path, tensors: dict) -> None:
    """Write name->array (or Tensor) map; names sorted for determinism."""
    if not tensors:
        raise CheckpointError("empty", "refusing to write a checkpoint with no tensors")
    arrays = {}
    for name, t in tensors.items():
        arr = np.ascontiguousarray(getattr(t, "data", t), dtype="<f4")
        arrays[name] = arr
    header: dict = {"tensors": {}}
    offset = 0
    blobs = []
    for name in sorted(arrays):
        arr = arrays[name]
        header["tensors"][name] = {
            "shape": list(arr.shape),
            "dtype": "f32",
            "offset": offset,
        }
        blob = arr.tobytes()
        blobs.append(blob)
        offset += len(blob)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(np.array(VERSION, "<u4").tobytes())
        f.write(np.array(len(header_bytes), "<u8").tobytes())
        f.write(header_bytes)
        for blob in blobs:
            f.write(blob)


def _header_entry(name: str, entry: dict) -> tuple[tuple[int, ...], str, int]:
    """(shape, dtype, offset) of one header entry; the shape must be a list
    of JSON integers and the offset a JSON integer, never truncated."""
    shape, offset = entry["shape"], entry["offset"]
    # type() and not isinstance(): JSON true/false load as bool, an int subclass
    if not (isinstance(shape, list) and all(type(v) is int for v in [*shape, offset])):
        raise CheckpointError(
            "corrupt_header", f"{name}: shape {shape!r} and offset {offset!r} must be integers"
        )
    return tuple(shape), str(entry["dtype"]), offset


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read and validate a checkpoint; returns name -> float32 array."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointError("bad_magic", f"{path} is not a checkpoint file")
    version = int(np.frombuffer(raw[4:8], "<u4")[0])
    if version != VERSION:
        raise CheckpointError("unknown_version", f"format version {version}, expected {VERSION}")
    header_len = int(np.frombuffer(raw[8:16], "<u8")[0])
    if 16 + header_len > len(raw):
        raise CheckpointError("corrupt_header", "header extends past end of file")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        entries = header["tensors"]
        if not isinstance(entries, dict):
            raise CheckpointError(
                "corrupt_header", f"'tensors' is a JSON {type(entries).__name__}, not an object"
            )
        parsed = {str(name): _header_entry(str(name), e) for name, e in entries.items()}
    except (KeyError, TypeError, ValueError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError("corrupt_header", str(exc)) from exc

    payload = raw[16 + header_len :]
    expected_offset = 0
    ordered = sorted(parsed.items(), key=lambda kv: kv[1][2])
    for name, (shape, dtype, offset) in ordered:
        if dtype != "f32":
            raise CheckpointError("corrupt_header", f"{name}: unsupported dtype {dtype!r}")
        if any(d < 0 for d in shape):
            raise CheckpointError("corrupt_header", f"{name}: negative dimension in {list(shape)}")
        if offset != expected_offset:
            raise CheckpointError(
                "corrupt_header",
                f"{name}: offset {offset} leaves a gap or overlap at {expected_offset}",
            )
        expected_offset += int(np.prod(shape, dtype=np.int64)) * 4 if shape else 4
    if expected_offset > len(payload):
        raise CheckpointError(
            "truncated_payload",
            f"payload holds {len(payload)} bytes, header describes {expected_offset}",
        )
    if expected_offset < len(payload):
        raise CheckpointError(
            "corrupt_header",
            f"payload holds {len(payload)} bytes beyond the {expected_offset} described",
        )
    out = {}
    for name, (shape, _, offset) in ordered:
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(payload, "<f4", count=size, offset=offset).reshape(shape)
        out[name] = arr.copy()
    return out
