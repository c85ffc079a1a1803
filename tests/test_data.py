import json
import re

import numpy as np
import pytest
from scipy import ndimage

from noah import checkpoint as C
from noah import data as D


class TestGenerators:
    def test_same_seed_byte_identical(self, tmp_path):
        for sub, task in (("a", "pattern-class"), ("b", "shape-count")):
            d1 = D.gen_synthetic(task, 8, 64, seed=3)
            d2 = D.gen_synthetic(task, 8, 64, seed=3)
            one, two = tmp_path / f"{sub}1.npz", tmp_path / f"{sub}2.npz"
            D.save_dataset(d1, one)
            D.save_dataset(d2, two)
            assert one.read_bytes() == two.read_bytes()

    def test_different_seed_differs(self):
        a, _ = D.gen_pattern_class(4, 16, seed=0)
        b, _ = D.gen_pattern_class(4, 16, seed=1)
        assert not np.array_equal(a, b)

    def test_class_histogram_exactly_balanced(self):
        for task in D.TASKS:
            ds = D.gen_synthetic(task, 8, 400, seed=1)
            labels = np.concatenate([ds.split("train")[1], ds.split("val")[1]])
            counts = np.bincount(labels, minlength=8)
            assert np.all(counts == 50)

    def test_blob_count_recoverable_by_connected_components(self):
        images, labels = D.gen_shape_count(8, 64, seed=7, noise=0.0)
        for img, lab in zip(images, labels):
            mask = img[0] > 128
            _, found = ndimage.label(mask, structure=np.ones((3, 3)))
            assert found == int(lab) + 1

    def test_shape_count_capacity_check(self):
        with pytest.raises(D.DataError, match="capacity"):
            D.gen_shape_count(10, 10, seed=0)

    def test_unbalanced_request_rejected(self):
        with pytest.raises(D.DataError, match="divisible"):
            D.gen_pattern_class(3, 10, seed=0)

    def test_unknown_task(self):
        with pytest.raises(D.DataError, match="unknown task"):
            D.gen_synthetic("mystery", 4, 16, seed=0)

    def test_mixed_base_task_covers_all_classes(self):
        images, labels = D.gen_mixed_base_task(16, 320, seed=5)
        assert set(np.unique(labels)) == set(range(16))
        assert images.shape == (320, 1, 16, 16)


class TestSplit:
    def test_thousand_gives_800_200(self):
        ds = D.gen_synthetic("pattern-class", 8, 1000, seed=2)
        assert len(ds.split("train")[1]) == 800
        assert len(ds.split("val")[1]) == 200

    def test_union_exhaustive_intersection_empty(self):
        labels = np.random.default_rng(0).integers(0, 5, 100).astype(np.uint16)
        tr, va = D.split_vtab_style(labels, seed=0)
        assert len(set(tr) & set(va)) == 0
        assert sorted(set(tr) | set(va)) == list(range(100))

    def test_per_class_ratio_within_one_sample(self):
        labels = np.repeat(np.arange(8, dtype=np.uint16), 125)
        tr, _ = D.split_vtab_style(labels, seed=1)
        for cls in range(8):
            n_tr = int((labels[tr] == cls).sum())
            assert abs(n_tr - 100) <= 1

    def test_deterministic(self):
        labels = np.random.default_rng(2).integers(0, 4, 60).astype(np.uint16)
        a = D.split_vtab_style(labels, seed=9)
        b = D.split_vtab_style(labels, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_tiny_class_warns_best_effort(self, caplog):
        labels = np.array([0, 0, 0, 0, 1], np.uint16)
        with caplog.at_level("WARNING", logger="noah.data"):
            tr, va = D.split_vtab_style(labels, seed=0)
        assert "class 1" in caplog.text
        assert 4 in tr  # the singleton landed in train

    def test_too_few_samples(self):
        with pytest.raises(D.DataError):
            D.split_vtab_style(np.array([0, 1], np.uint16), seed=0)


def saved(tmp_path, manifest=(), **arrays):
    """Path of a saved 4-class dataset with the ``manifest`` keys (``mean``
    and ``std`` under ``normalization``) and the named arrays replaced; a
    ``None`` value deletes the key."""
    path = tmp_path / "ds.npz"
    D.save_dataset(D.gen_synthetic("pattern-class", 4, 40, seed=4), path)
    stored = C.load_arrays(path)
    doc = json.loads(stored["manifest"].item())
    for key, value in dict(manifest).items():
        (doc["normalization"] if key in ("mean", "std") else doc)[key] = value
    stored["manifest"] = np.array(json.dumps({k: v for k, v in doc.items() if v is not None}))
    stored.update(arrays)
    C.save_arrays(path, {k: v for k, v in stored.items() if v is not None})
    return path


class TestOnDiskFormat:
    def test_roundtrip(self, tmp_path):
        ds = D.gen_synthetic("shape-count", 4, 40, seed=4)
        D.save_dataset(ds, tmp_path / "ds.npz")
        loaded = D.load_dataset(tmp_path / "ds.npz")
        assert loaded.num_classes == 4
        assert loaded.image_shape == (1, 16, 16)
        assert (loaded.name, loaded.generator) == (ds.name, ds.generator)
        for split in ("train", "val"):
            for got, want in zip(loaded.split(split), ds.split(split)):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                                 want.tobytes())
        assert loaded.mean.tobytes() == ds.mean.tobytes()
        assert loaded.std.tobytes() == ds.std.tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        D.save_dataset(D.gen_synthetic("shape-count", 4, 40, seed=4), tmp_path / "a.npz")
        D.save_dataset(D.load_dataset(tmp_path / "a.npz"), tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_truncated_images_rejected(self, tmp_path):
        path = saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(D.DataError, match=re.escape(f"cannot load dataset {path}")):
            D.load_dataset(path)

    def test_flipped_image_byte_rejected(self, tmp_path):
        """One changed pixel fails the member's CRC-32 instead of loading."""
        path = saved(tmp_path)
        images = D.gen_synthetic("pattern-class", 4, 40, seed=4).split("val")[0]
        raw = bytearray(path.read_bytes())
        raw[bytes(raw).index(images.tobytes()) + 17] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(D.DataError, match=re.escape(f"cannot load dataset {path}")):
            D.load_dataset(path)

    def test_label_size_must_match_count(self, tmp_path):
        """Images and labels of unequal length, stored apart in the old format
        and checked against a count there, are one split's pair here."""
        labels = D.gen_synthetic("pattern-class", 4, 40, seed=4).split("val")[1]
        path = saved(tmp_path, val_labels=labels[:-1])
        with pytest.raises(D.DataError, match=re.escape(
                "split 'val' needs uint8 [n, C, H, W] images, C, H, W > 0, and uint16 [n] labels, "
                "got uint8 [8, 1, 16, 16] and uint16 [7]")):
            D.load_dataset(path)

    def test_zero_image_dim_rejected(self, tmp_path):
        """The old manifest's image_shape had to be positive; the shape now
        comes from the arrays, which are checked the same way."""
        images = D.gen_synthetic("pattern-class", 4, 40, seed=4).split("val")[0]
        path = saved(tmp_path, val_images=images[:, :, :0])
        with pytest.raises(D.DataError, match=re.escape("got uint8 [8, 1, 0, 16] and uint16 [8]")):
            D.load_dataset(path)

    def test_missing_split_file_named(self, tmp_path):
        for key in ("val_images", "val_labels"):
            path = saved(tmp_path, **{key: None})
            with pytest.raises(D.DataError, match=re.escape(f"['{key}'] do not pair up")):
                D.load_dataset(path)

    def test_split_shapes_must_agree(self, tmp_path):
        images = D.gen_synthetic("pattern-class", 4, 40, seed=4).split("val")[0]
        no_split = {f"{split}_{kind}": None for split in ("train", "val")
                    for kind in ("images", "labels")}
        for arrays, shapes in (({"val_images": images[:, :, :8]}, "[[1, 8, 16], [1, 16, 16]]"),
                               (no_split, "[]")):
            path = saved(tmp_path, **arrays)
            with pytest.raises(D.DataError, match=re.escape(
                    f"needs splits of one [C, H, W], got {shapes}")):
                D.load_dataset(path)

    def test_label_out_of_range_named(self, tmp_path):
        path = saved(tmp_path, {"num_classes": 3})
        with pytest.raises(D.DataError, match="train_labels: label 3 out of range for 3"):
            D.load_dataset(path)

    def test_failed_save_keeps_previous_files(self, tmp_path):
        path = saved(tmp_path)
        before = path.read_bytes()
        ds = D.gen_synthetic("pattern-class", 4, 40, seed=5)
        images, labels = ds.splits["val"]
        ds.splits["val"] = (images, np.array([object()] * len(labels)))  # not storable as u16
        with pytest.raises(TypeError):
            D.save_dataset(ds, path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["ds.npz"]

    @pytest.mark.parametrize("key, value, cause", [
        ("generator", [1], "generator must be an object, got [1]"),
        ("normalization", [0.5], "manifest: TypeError"),
        ("mean", [0.5, 0.5], "one mean and one std per channel"),
        ("std", [0.0], "std positive"),
        ("mean", [float("nan")], "mean must be finite"),
        ("num_classes", 4.7, "num_classes must be a positive integer, got 4.7"),
        ("num_classes", True, "num_classes must be a positive integer, got True"),
        ("num_classes", 0, "num_classes must be a positive integer, got 0"),
        ("num_classes", -1, "num_classes must be a positive integer, got -1"),
        ("num_classes", None, "manifest: KeyError('num_classes')"),
        ("generator", 5, "generator must be an object, got 5"),
        ("generator", "ab", "generator must be an object, got 'ab'"),
    ])
    def test_bad_shape_or_normalization_named(self, tmp_path, key, value, cause):
        """Rejected at load, naming the file: a 2-entry mean used to
        broadcast the images to two channels, a zero std to give infinite
        pixels, a class count of 4.7 to load as 4 classes, true as 1, and -1
        to fail only at the first label. A generator that is not an object
        used to escape as a bare AttributeError, TypeError or ValueError."""
        path = saved(tmp_path, {key: value})
        with pytest.raises(D.DataError, match=re.escape(f"malformed dataset {path}: ") + ".*"
                           + re.escape(cause)):
            D.load_dataset(path)

    def test_missing_manifest(self, tmp_path):
        path = saved(tmp_path)
        C.save_arrays(path, {k: v for k, v in C.load_arrays(path).items() if k != "manifest"})
        with pytest.raises(D.DataError, match=re.escape(
                f"malformed dataset {path}: manifest: KeyError('manifest')")):
            D.load_dataset(path)

    @pytest.mark.parametrize("manifest", [np.array(["{}", "{}"]), np.array(b"[]")])
    def test_manifest_must_be_a_json_object_string(self, tmp_path, manifest):
        path = saved(tmp_path)
        C.save_arrays(path, {**C.load_arrays(path), "manifest": manifest})
        with pytest.raises(D.DataError, match=re.escape(f"malformed dataset {path}: manifest: ")):
            D.load_dataset(path)

    def test_old_dataset_directory_rejected(self, tmp_path):
        root = tmp_path / "ds"
        root.mkdir()
        (root / "manifest.json").write_text("{}")
        with pytest.raises(D.DataError, match=re.escape(f"cannot load dataset {root}")):
            D.load_dataset(root)

    def test_normalized_output_stats(self):
        ds = D.gen_synthetic("pattern-class", 4, 200, seed=6)
        images, labels = ds.normalized("train")
        assert images.dtype == np.float32 and labels.dtype == np.int64
        assert abs(float(images.mean())) < 0.05
        assert abs(float(images.std()) - 1.0) < 0.1
