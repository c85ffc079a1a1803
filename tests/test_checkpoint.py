import struct
import zipfile

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
            assert loaded[name].dtype == np.dtype("<f4")

    def test_save_load_save_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        C.save_checkpoint(p1, sample_tensors())
        C.save_checkpoint(p2, C.load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_path_is_kept_without_npz_suffix(self, tmp_path):
        C.save_checkpoint(tmp_path / "supernet.noah", sample_tensors())
        assert [f.name for f in tmp_path.iterdir()] == ["supernet.noah"]

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
                f.write(b"PK\x03\x04 partial")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == before
        assert C.load_checkpoint(path).keys() == sample_tensors().keys()
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

    def load_kind(self, path):
        with pytest.raises(C.CheckpointError, match=str(path)) as exc:
            C.load_checkpoint(path)
        return exc.value.kind

    def test_truncated_payload(self, tmp_path):
        path = self.write(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        assert self.load_kind(path) == "corrupt"

    def test_truncated_to_the_magic(self, tmp_path):
        path = self.write(tmp_path)
        path.write_bytes(path.read_bytes()[:4])
        assert self.load_kind(path) == "corrupt"

    def test_trailing_garbage(self, tmp_path):
        path = self.write(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        assert self.load_kind(path) == "corrupt"

    def test_bad_magic(self, tmp_path):
        path = self.write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"HAON"
        path.write_bytes(bytes(raw))
        assert self.load_kind(path) == "bad_magic"

    def test_flipped_payload_bit(self, tmp_path):
        """A single flipped bit inside a tensor's bytes fails the member's
        CRC-32 instead of loading a changed tensor."""
        path = self.write(tmp_path)
        raw = bytearray(path.read_bytes())
        value = sample_tensors()["vpt.L0.P"].data
        raw[bytes(raw).index(value.tobytes()) + 5] ^= 0x01
        path.write_bytes(bytes(raw))
        assert self.load_kind(path) == "corrupt"

    def test_flipped_header_shape_bit(self, tmp_path):
        """A flipped bit that shrinks a large member's .npy shape from
        (100, 64) to (100, 44) stops numpy's read before the member's end,
        where zipfile checks its CRC-32; the loader rejects the bytes left."""
        path = tmp_path / "h.ckpt"
        C.save_checkpoint(path, {"w": np.ones((100, 64), np.float32)})
        raw = bytearray(path.read_bytes())
        raw[bytes(raw).index(b"(100, 64)") + 6] ^= 0x02
        path.write_bytes(bytes(raw))
        with pytest.raises(C.CheckpointError, match="member 'w.npy': bytes past the array"):
            C.load_checkpoint(path)

    @staticmethod
    def write_npy_member(path, shape, version=(1, 0)):
        """A container whose one member ``w.npy`` has the given header shape
        and .npy format version over 16 zero bytes, with a valid CRC-32."""
        header = f"{{'descr': '<f4', 'fortran_order': False, 'shape': {shape}, }}".encode()
        header += b" " * (-(len(header) + 11) % 64) + b"\n"
        member = b"\x93NUMPY" + bytes(version) + struct.pack("<H", len(header)) + header
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("w.npy", member + b"\x00" * 16)

    def test_negative_dims_rejected(self, tmp_path):
        # two negative dims multiply to a positive size that fits the payload
        path = tmp_path / "n.ckpt"
        self.write_npy_member(path, (-2, -2))
        assert self.load_kind(path) == "corrupt"

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "v.ckpt"
        self.write_npy_member(path, (4,), version=(9, 0))
        with pytest.raises(C.CheckpointError, match="format version") as exc:
            C.load_checkpoint(path)
        assert exc.value.kind == "corrupt"
        self.write_npy_member(path, (4,))
        assert C.load_checkpoint(path)["w"].tobytes() == bytes(16)

    def test_old_format_file(self, tmp_path):
        path = tmp_path / "old.noah"
        path.write_bytes(b"NOAH" + np.array(1, "<u4").tobytes() + np.array(2, "<u8").tobytes()
                         + b"{}")
        assert self.load_kind(path) == "bad_magic"

    def test_bare_npy_file(self, tmp_path):
        path = tmp_path / "w.npy"
        np.save(path, np.ones(3, np.float32))
        assert self.load_kind(path) == "bad_magic"

    def test_non_npy_member(self, tmp_path):
        path = tmp_path / "z.ckpt"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("notes.txt", "not an array")
        with pytest.raises(C.CheckpointError, match="member 'notes.txt': .*magic string") as exc:
            C.load_arrays(path)
        assert exc.value.kind == "corrupt"

    def test_pickled_member(self, tmp_path):
        path = tmp_path / "p.ckpt"
        with C.atomic_write(path) as f:
            np.savez(f, w=np.array([{"a": 1}], dtype=object))
        assert self.load_kind(path) == "corrupt"

    def test_float64_member(self, tmp_path):
        path = tmp_path / "d.ckpt"
        C.save_arrays(path, {"w": np.ones(3, np.float64)})
        with pytest.raises(C.CheckpointError, match="w is float64, not float32") as exc:
            C.load_checkpoint(path)
        assert exc.value.kind == "bad_dtype"


class TestSecondParser:
    def test_header_agrees_with_independent_parse(self, tmp_path):
        """The layout the module docstring states, read with ``zipfile``:
        one uncompressed ``<name>.npy`` member per tensor, names sorted, each
        with the fixed 1980 timestamp, the whole file closed by the 22-byte
        end record."""
        tensors = sample_tensors()
        path = tmp_path / "f.ckpt"
        C.save_checkpoint(path, tensors)
        raw = path.read_bytes()
        assert raw[:4] == b"PK\x03\x04" and raw[-22:-18] == b"PK\x05\x06"
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
            assert [i.filename for i in infos] == [f"{n}.npy" for n in sorted(tensors)]
            assert {(i.compress_type, i.date_time) for i in infos} == {
                (zipfile.ZIP_STORED, (1980, 1, 1, 0, 0, 0))}
            for info in infos:
                arr = np.lib.format.read_array(archive.open(info), allow_pickle=False)
                want = getattr(tensors[info.filename[:-4]], "data", tensors[info.filename[:-4]])
                assert (arr.dtype, arr.tobytes()) == (np.dtype("<f4"), want.tobytes())
