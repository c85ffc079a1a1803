import json

import numpy as np
import pytest

from noah import checkpoint as C
from noah.tensor import Tensor


def sample_tensors(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "head.w": rng.standard_normal((4, 3)).astype(np.float32),
        "backbone.pos_embed": rng.standard_normal((5, 4)).astype(np.float32),
        "vpt.L0.P": Tensor(rng.standard_normal((2, 4)).astype(np.float32)),
    }


class TestRoundTrip:
    def test_bit_identical_tensors(self, tmp_path):
        tensors = sample_tensors()
        path = tmp_path / "a.ckpt"
        C.save_checkpoint(path, tensors)
        loaded = C.load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for name, t in tensors.items():
            arr = getattr(t, "data", t)
            assert loaded[name].tobytes() == arr.tobytes()
            assert loaded[name].shape == arr.shape

    def test_save_load_save_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        C.save_checkpoint(p1, sample_tensors())
        C.save_checkpoint(p2, C.load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(C.CheckpointError):
            C.save_checkpoint(tmp_path / "e.ckpt", {})


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "a.ckpt"
        C.save_checkpoint(path, sample_tensors(0))
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with C.atomic_write(path) as f:
                f.write(b"NOAH partial")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["a.ckpt"]

    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "a.ckpt"
        C.save_checkpoint(path, sample_tensors(0))
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("interrupted before the rename")

        monkeypatch.setattr(C.os, "replace", fail)
        with pytest.raises(OSError, match="rename"):
            C.save_checkpoint(path, sample_tensors(1))
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["a.ckpt"]


class TestCorruption:
    def write(self, tmp_path):
        path = tmp_path / "c.ckpt"
        C.save_checkpoint(path, sample_tensors())
        return path

    def test_truncated_payload(self, tmp_path):
        path = self.write(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(C.CheckpointError) as exc:
            C.load_checkpoint(path)
        assert exc.value.kind == "truncated_payload"

    def test_trailing_garbage(self, tmp_path):
        path = self.write(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(C.CheckpointError) as exc:
            C.load_checkpoint(path)
        assert exc.value.kind == "corrupt_header"

    def test_bad_magic(self, tmp_path):
        path = self.write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"HAON"
        path.write_bytes(bytes(raw))
        with pytest.raises(C.CheckpointError) as exc:
            C.load_checkpoint(path)
        assert exc.value.kind == "bad_magic"

    def test_unknown_version(self, tmp_path):
        path = self.write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = np.array(99, "<u4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(C.CheckpointError) as exc:
            C.load_checkpoint(path)
        assert exc.value.kind == "unknown_version"

    def test_corrupt_header_json(self, tmp_path):
        path = self.write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[16] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(C.CheckpointError) as exc:
            C.load_checkpoint(path)
        assert exc.value.kind == "corrupt_header"

    @staticmethod
    def write_raw(path, header, payload):
        header_bytes = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(
            C.MAGIC + np.array(C.VERSION, "<u4").tobytes()
            + np.array(len(header_bytes), "<u8").tobytes() + header_bytes + payload
        )

    def test_overlapping_offsets(self, tmp_path):
        path = tmp_path / "d.ckpt"
        C.save_checkpoint(path, sample_tensors())
        raw = path.read_bytes()
        header_len = int(np.frombuffer(raw[8:16], "<u8")[0])
        header = json.loads(raw[16 : 16 + header_len])
        names = sorted(header["tensors"])
        header["tensors"][names[1]]["offset"] = 0  # collide with the first
        self.write_raw(path, header, raw[16 + header_len :])
        with pytest.raises(C.CheckpointError) as exc:
            C.load_checkpoint(path)
        assert exc.value.kind == "corrupt_header"

    def test_negative_dims_rejected(self, tmp_path):
        # two negative dims multiply to a positive size that fits the payload
        path = tmp_path / "n.ckpt"
        header = {"tensors": {"w": {"shape": [-1, -1], "dtype": "f32", "offset": 0}}}
        self.write_raw(path, header, b"\x00" * 4)
        with pytest.raises(C.CheckpointError, match="w: negative dimension") as exc:
            C.load_checkpoint(path)
        assert exc.value.kind == "corrupt_header"

    @pytest.mark.parametrize(
        "shape, offset",
        [([1.9, True], 0.5), ([1.9], 0), ([True], 0), ([1], 0.5), ("1", 0), ([1], "0")],
        ids=["float_bool_shape_float_offset", "float_dim", "bool_dim", "float_offset",
             "string_shape", "string_offset"],
    )
    def test_non_integer_shape_or_offset_rejected(self, tmp_path, shape, offset):
        # int() would truncate these to a (1, 1) or (1,) tensor at offset 0
        path = tmp_path / "i.ckpt"
        header = {"tensors": {"w": {"shape": shape, "dtype": "f32", "offset": offset}}}
        self.write_raw(path, header, b"\x00" * 4)
        with pytest.raises(C.CheckpointError, match="w: shape") as exc:
            C.load_checkpoint(path)
        assert exc.value.kind == "corrupt_header"

    def test_tensors_not_an_object(self, tmp_path):
        path = tmp_path / "l.ckpt"
        entry = {"shape": [1], "dtype": "f32", "offset": 0}
        self.write_raw(path, {"tensors": [entry]}, b"\x00" * 4)
        with pytest.raises(C.CheckpointError, match="'tensors' is a JSON list") as exc:
            C.load_checkpoint(path)
        assert exc.value.kind == "corrupt_header"


class TestSecondParser:
    def test_header_agrees_with_independent_parse(self, tmp_path):
        tensors = sample_tensors()
        path = tmp_path / "f.ckpt"
        C.save_checkpoint(path, tensors)

        raw = path.read_bytes()
        assert raw[:4] == b"NOAH"
        assert int(np.frombuffer(raw[4:8], "<u4")[0]) == C.VERSION
        header_len = int(np.frombuffer(raw[8:16], "<u8")[0])
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        entries = header["tensors"]
        assert len(entries) == len(tensors)
        total = sum(
            int(np.prod(e["shape"])) * 4 for e in entries.values()
        )
        assert len(raw) - 16 - header_len == total
        loaded = C.load_checkpoint(path)
        assert len(loaded) == len(entries)
