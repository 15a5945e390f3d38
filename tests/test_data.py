"""Dataset parsing, synthesis, and augmentation."""

import numpy as np
import pytest

from gmconv.data import (
    DataError,
    DatasetSource,
    augment_batch,
    find_cifar10_root,
    load_dataset,
    make_synthetic,
    read_cifar_file,
)


def write_cifar_batch(path, n, label_bytes=1, label_fn=None):
    """Emit a well-formed CIFAR binary batch with recognizable pixels."""
    rng = np.random.default_rng(123)
    rows = []
    for i in range(n):
        label = (i % 10) if label_fn is None else label_fn(i)
        head = [0, label][-label_bytes:] if label_bytes == 2 else [label]
        pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
        pixels[0] = 255  # first red-plane byte, lands at images[i, 0, 0, 0]
        rows.append(np.concatenate([np.array(head, dtype=np.uint8), pixels]))
    np.concatenate(rows).tofile(path)


class TestCifarReader:
    def test_parses_shapes_and_channel_order(self, tmp_path):
        p = tmp_path / "data_batch_1.bin"
        write_cifar_batch(str(p), 7)
        images, labels = read_cifar_file(str(p))
        assert images.shape == (7, 3, 32, 32)
        assert images.dtype == np.uint8
        np.testing.assert_array_equal(labels, np.arange(7) % 10)
        assert images[0, 0, 0, 0] == 255  # first pixel byte is red plane, row 0 col 0

    def test_record_count_arithmetic(self, tmp_path):
        p = tmp_path / "big.bin"
        write_cifar_batch(str(p), 100)
        assert p.stat().st_size == 100 * 3073
        images, labels = read_cifar_file(str(p))
        assert len(images) == 100
        assert labels.min() >= 0 and labels.max() < 10

    def test_truncated_file_names_offset(self, tmp_path):
        p = tmp_path / "data_batch_1.bin"
        write_cifar_batch(str(p), 3)
        raw = p.read_bytes()
        p.write_bytes(raw[:-100])
        with pytest.raises(DataError) as err:
            read_cifar_file(str(p))
        assert "byte offset" in str(err.value)
        assert str(2 * 3073) in str(err.value)

    def test_label_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        write_cifar_batch(str(p), 3, label_fn=lambda i: 17 if i == 1 else 0)
        with pytest.raises(DataError) as err:
            read_cifar_file(str(p))
        assert "17" in str(err.value)
        assert "record 1" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_cifar_file(str(tmp_path / "nope.bin"))

    def test_two_label_bytes_use_the_last(self, tmp_path):
        p = tmp_path / "train.bin"
        write_cifar_batch(str(p), 4, label_bytes=2)
        images, labels = read_cifar_file(str(p), label_bytes=2, num_classes=100)
        assert images.shape == (4, 3, 32, 32)
        np.testing.assert_array_equal(labels, np.arange(4) % 10)

    def test_load_dataset_scales_and_normalizes(self, tmp_path):
        for name in ("data_batch_%d.bin" % i for i in range(1, 6)):
            write_cifar_batch(str(tmp_path / name), 5)
        src = DatasetSource("cifar10-bin", root=str(tmp_path), split="train")
        images, labels = load_dataset(src)
        assert images.shape == (25, 3, 32, 32)
        assert images.min() >= 0.0 and images.max() <= 1.0
        norm = DatasetSource(
            "cifar10-bin",
            root=str(tmp_path),
            split="train",
            normalization=((0.5, 0.5, 0.5), (0.25, 0.25, 0.25)),
            num_samples=10,
        )
        imgs2, labs2 = load_dataset(norm)
        assert imgs2.shape == (10, 3, 32, 32)
        np.testing.assert_allclose(imgs2, (images[:10] - 0.5) / 0.25, rtol=1e-15)


class TestSynthetic:
    def test_deterministic_across_runs(self):
        a_imgs, a_labs = make_synthetic(100, 10, (3, 32, 32), seed=7)
        b_imgs, b_labs = make_synthetic(100, 10, (3, 32, 32), seed=7)
        np.testing.assert_array_equal(a_imgs, b_imgs)
        np.testing.assert_array_equal(a_labs, b_labs)
        assert len(a_imgs) == 100

    def test_splits_differ_but_share_prototypes(self):
        tr_i, tr_l = make_synthetic(50, 4, (3, 8, 8), seed=1, split="train")
        te_i, te_l = make_synthetic(50, 4, (3, 8, 8), seed=1, split="test")
        assert not np.array_equal(tr_i, te_i)
        assert set(np.unique(te_l)) <= set(range(4))

    def test_values_in_unit_interval(self):
        imgs, _ = make_synthetic(20, 3, (3, 8, 8), seed=2)
        assert imgs.min() == 0.0 and imgs.max() == 1.0

    def test_linearly_separable_by_construction(self):
        """A least-squares linear classifier must fit the training set
        perfectly; that is what the prototype boost buys."""
        imgs, labs = make_synthetic(200, 5, (3, 8, 8), seed=3)
        x = imgs.reshape(200, -1)
        x = np.concatenate([x, np.ones((200, 1))], axis=1)
        onehot = np.eye(5)[labs]
        w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
        pred = np.argmax(x @ w, axis=1)
        assert np.mean(pred == labs) >= 0.99

    def test_load_dataset_path(self):
        src = DatasetSource("synthetic", num_samples=30, num_classes=4,
                            image_shape=(3, 8, 8), seed=9)
        imgs, labs = load_dataset(src)
        assert imgs.shape == (30, 3, 8, 8)
        assert labs.shape == (30,)
        default, _ = load_dataset(DatasetSource("synthetic", image_shape=(1, 2, 2)))
        assert default.shape == (1000, 1, 2, 2)  # num_samples=0 sizes the set at 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            make_synthetic(0, 10, (3, 8, 8), 0)
        with pytest.raises(ValueError):
            make_synthetic(10, 1, (3, 8, 8), 0)
        with pytest.raises(ValueError):
            DatasetSource("imagenet")
        with pytest.raises(ValueError):
            DatasetSource("synthetic", split="val")
        with pytest.raises(ValueError):
            DatasetSource("synthetic", num_samples=-1)
        # each field holds its type, and an image has at least one pixel
        for field, value in [("num_samples", 2.5), ("seed", True), ("image_shape", (3, 0, 8))]:
            with pytest.raises(ValueError, match=field):
                DatasetSource("synthetic", **{field: value})
        for stats in [
            ((0.5, 0.5), (0.25, 0.25)),  # two stats for three channels
            ((0.5, 0.5, 0.5), (0.25, 0.0, 0.25)),
            ((0.5, np.nan, 0.5), (0.25, 0.25, 0.25)),
            ((0.5, 0.5, 0.5), (0.25, np.nan, 0.25)),
        ]:
            with pytest.raises(DataError, match="normalization"):
                DatasetSource("synthetic", normalization=stats)
        # a one-channel source takes one stat per channel
        DatasetSource("synthetic", normalization=((0.5,), (0.25,)), image_shape=(1, 8, 8))
        with pytest.raises(ValueError, match="images"):
            DatasetSource("cifar10-bin", image_shape=(1, 32, 32))


class TestAugment:
    def test_none_is_identity(self):
        rng = np.random.default_rng(0)
        imgs = rng.normal(size=(3, 3, 32, 32))
        out = augment_batch(imgs, "none", rng)
        np.testing.assert_array_equal(out, imgs)

    def test_shape_preserved(self):
        rng = np.random.default_rng(1)
        imgs = rng.normal(size=(5, 3, 32, 32))
        out = augment_batch(imgs, "cifar-standard", rng)
        assert out.shape == imgs.shape

    def test_seeded_reproducibility(self):
        imgs = np.random.default_rng(2).normal(size=(4, 3, 32, 32))
        a = augment_batch(imgs, "cifar-standard", np.random.default_rng(42))
        b = augment_batch(imgs, "cifar-standard", np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_crops_come_from_zero_padding(self):
        """With all-ones images every crop stays {0, 1}-valued and any
        zeros can only be the injected padding ring."""
        imgs = np.ones((20, 1, 8, 8))
        out = augment_batch(imgs, "cifar-standard", np.random.default_rng(3))
        assert set(np.unique(out)) <= {0.0, 1.0}
        assert out.min() == 0.0  # at least one crop hit the padding

    def test_flip_occurs(self):
        imgs = np.zeros((10, 1, 8, 8))
        imgs[:, :, :, 0] = 1.0  # left edge stripe
        rng = np.random.default_rng(4)
        out = augment_batch(imgs, "cifar-standard", rng)
        right_mass = out[:, :, :, -1].sum()
        assert right_mass > 0.0  # some image got mirrored

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            augment_batch(np.zeros((1, 1, 4, 4)), "cutmix", np.random.default_rng(0))


class TestCifarDiscovery:
    def test_returns_none_when_absent(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GMCONV_CIFAR10_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert find_cifar10_root() is None

    def test_env_var_found(self, tmp_path, monkeypatch):
        for name in ["data_batch_%d.bin" % i for i in range(1, 6)] + ["test_batch.bin"]:
            write_cifar_batch(str(tmp_path / name), 1)
        monkeypatch.setenv("GMCONV_CIFAR10_DIR", str(tmp_path))
        assert find_cifar10_root() == str(tmp_path)
