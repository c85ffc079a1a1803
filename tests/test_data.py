import json

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

    def test_missing_split_file_named(self, tmp_path):
        root = tmp_path / "ds"
        D.save_dataset(D.gen_synthetic("pattern-class", 4, 40, seed=4), root)
        (root / "val_images.bin").unlink()
        with pytest.raises(D.DataError, match="split 'val'.*val_images.bin"):
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
