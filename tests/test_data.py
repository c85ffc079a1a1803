import json
import re

import numpy as np
import pytest
from scipy import ndimage

from noah import data as D


class TestGenerators:
    def test_same_seed_byte_identical(self, tmp_path):
        for sub, task in (("a", "pattern-class"), ("b", "shape-count")):
            d1 = D.gen_synthetic(task, 8, 64, seed=3)
            d2 = D.gen_synthetic(task, 8, 64, seed=3)
            D.save_dataset(d1, tmp_path / sub / "one")
            D.save_dataset(d2, tmp_path / sub / "two")
            for f in sorted((tmp_path / sub / "one").iterdir()):
                assert f.read_bytes() == (tmp_path / sub / "two" / f.name).read_bytes(), f.name

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


class TestOnDiskFormat:
    def test_roundtrip(self, tmp_path):
        ds = D.gen_synthetic("shape-count", 4, 40, seed=4)
        D.save_dataset(ds, tmp_path / "ds")
        loaded = D.load_dataset(tmp_path / "ds")
        assert loaded.num_classes == 4
        assert loaded.image_shape == (1, 16, 16)
        for split in ("train", "val"):
            np.testing.assert_array_equal(loaded.split(split)[0], ds.split(split)[0])
            np.testing.assert_array_equal(loaded.split(split)[1], ds.split(split)[1])
        np.testing.assert_allclose(loaded.mean, ds.mean)

    def test_truncated_images_rejected(self, tmp_path):
        ds = D.gen_synthetic("shape-count", 4, 40, seed=4)
        D.save_dataset(ds, tmp_path / "ds")
        f = tmp_path / "ds" / "train_images.bin"
        f.write_bytes(f.read_bytes()[:-1])
        with pytest.raises(D.DataError, match="bytes"):
            D.load_dataset(tmp_path / "ds")

    def test_label_size_must_match_count(self, tmp_path):
        ds = D.gen_synthetic("pattern-class", 4, 40, seed=4)
        D.save_dataset(ds, tmp_path / "ds")
        f = tmp_path / "ds" / "val_labels.bin"
        f.write_bytes(f.read_bytes() + b"\x00\x00")
        with pytest.raises(D.DataError, match="manifest implies"):
            D.load_dataset(tmp_path / "ds")

    def test_failed_save_keeps_previous_files(self, tmp_path):
        root = tmp_path / "ds"
        D.save_dataset(D.gen_synthetic("pattern-class", 4, 40, seed=4), root)
        before = {f.name: f.read_bytes() for f in root.iterdir()}
        ds = D.gen_synthetic("pattern-class", 4, 40, seed=5)
        images, labels = ds.splits["val"]
        ds.splits["val"] = (images, np.array([object()] * len(labels)))  # not storable as u16
        with pytest.raises(TypeError):
            D.save_dataset(ds, root)
        assert {f.name: f.read_bytes() for f in root.iterdir()} == before

    def test_split_entry_without_count_named(self, tmp_path):
        root = tmp_path / "ds"
        D.save_dataset(D.gen_synthetic("pattern-class", 4, 40, seed=4), root)
        manifest = json.loads((root / "manifest.json").read_text())
        del manifest["splits"]["val"]["count"]
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(D.DataError, match="split 'val'.*count"):
            D.load_dataset(root)

    @pytest.mark.parametrize("count", [32.9, "32", True, -1])
    def test_non_integer_or_negative_count_named(self, tmp_path, count):
        """A split's count must be a non-negative JSON integer: 32.9 and "32"
        used to load the 32-sample train split through int() without error."""
        root = tmp_path / "ds"
        D.save_dataset(D.gen_synthetic("pattern-class", 4, 40, seed=4), root)
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["splits"]["train"]["count"] == 32
        manifest["splits"]["train"]["count"] = count
        (root / "manifest.json").write_text(json.dumps(manifest))
        cause = f"split 'train': count must be a non-negative integer, got {count!r}"
        with pytest.raises(D.DataError, match=re.escape(f"{root / 'manifest.json'}: {cause}")):
            D.load_dataset(root)

    def test_non_string_file_name_named(self, tmp_path):
        """A file name of 5 used to escape as a bare TypeError from the path join."""
        root = tmp_path / "ds"
        D.save_dataset(D.gen_synthetic("pattern-class", 4, 40, seed=4), root)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["splits"]["val"]["labels_file"] = 5
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(D.DataError, match="split 'val': file names must be strings"):
            D.load_dataset(root)

    def test_missing_split_file_named(self, tmp_path):
        root = tmp_path / "ds"
        D.save_dataset(D.gen_synthetic("pattern-class", 4, 40, seed=4), root)
        (root / "val_images.bin").unlink()
        with pytest.raises(D.DataError, match="split 'val'.*val_images.bin"):
            D.load_dataset(root)

    @pytest.mark.parametrize("key, value, cause", [
        ("image_shape", [16, 16], "image_shape must be three positive integers"),
        ("image_shape", [1, 0, 16], "image_shape must be three positive integers"),
        ("mean", [0.5, 0.5], "one mean and one std per channel"),
        ("std", [0.0], "std positive"),
        ("mean", [float("nan")], "mean must be finite"),
        ("num_classes", 4.7, "num_classes must be a positive integer, got 4.7"),
        ("num_classes", True, "num_classes must be a positive integer, got True"),
        ("num_classes", 0, "num_classes must be a positive integer, got 0"),
        ("num_classes", -1, "num_classes must be a positive integer, got -1"),
        ("splits", [], "splits must be an object"),
        ("generator", 5, "generator must be an object, got 5"),
        ("generator", "ab", "generator must be an object, got 'ab'"),
    ])
    def test_bad_shape_or_normalization_named(self, tmp_path, key, value, cause):
        """Rejected at load, naming the manifest: a 2-entry shape used to
        escape as a bare ValueError, a 2-entry mean to broadcast the images
        to two channels, a zero std to give infinite pixels, a class count
        of 4.7 to load as 4 classes, true as 1, and -1 to fail only at the
        first label. A list of splits and a generator that is not an object
        used to escape as bare AttributeError, TypeError or ValueError."""
        root = tmp_path / "ds"
        D.save_dataset(D.gen_synthetic("pattern-class", 4, 40, seed=4), root)
        manifest = json.loads((root / "manifest.json").read_text())
        top_level = key not in ("mean", "std")
        (manifest if top_level else manifest["normalization"])[key] = value
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(D.DataError, match=rf"manifest {root / 'manifest.json'}: .*{cause}"):
            D.load_dataset(root)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(D.DataError, match="manifest"):
            D.load_dataset(tmp_path / "nope")

    def test_normalized_output_stats(self):
        ds = D.gen_synthetic("pattern-class", 4, 200, seed=6)
        images, labels = ds.normalized("train")
        assert images.dtype == np.float32 and labels.dtype == np.int64
        assert abs(float(images.mean())) < 0.05
        assert abs(float(images.std()) - 1.0) < 0.1
