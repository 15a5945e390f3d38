"""Dataset ingestion: CIFAR binary files, synthetic data.

Loaders return (images, labels) as float64 N x C x H x W in [0, 1]
(optionally channel-normalized) and int64 N. File formats are parsed
bit-exactly with explicit error messages carrying byte offsets, so a
truncated or mislabeled download fails loudly instead of training on
garbage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


class DataError(Exception):
    """Raised for missing, truncated, or malformed dataset files."""


CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILES = ["test_batch.bin"]

DATASET_IDS = ("cifar10-bin", "cifar100-bin", "synthetic")
_CIFAR_SHAPE = (3, 32, 32)


@dataclass(frozen=True)
class DatasetSource:
    """Where data comes from and how to prepare it. Every rule on these
    fields is checked when the source is built.

    `normalization`, when set, is (mean, std) per channel applied after
    the [0, 1] scaling: finite means and finite stds above 0, one per
    channel of `image_shape`, else DataError. A CIFAR id takes only the
    3 x 32 x 32 `image_shape` its files hold. `num_samples` caps a file
    dataset at its first N records (0 keeps every record) and sizes the
    synthetic one (0 means 1000). The synthetic generator ignores `root`;
    file readers ignore `num_classes` and `seed`.
    """

    id: str
    root: str = ""
    split: str = "train"
    normalization: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    num_samples: int = 0
    num_classes: int = 10
    image_shape: tuple[int, int, int] = _CIFAR_SHAPE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.id not in DATASET_IDS:
            raise ValueError(f"unknown dataset id {self.id!r}, expected one of {DATASET_IDS}")
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be train or test, got {self.split!r}")
        if self.id != "synthetic" and self.image_shape != _CIFAR_SHAPE:
            raise ValueError(f"{self.id} holds {_CIFAR_SHAPE} images, not {self.image_shape}")
        if self.num_samples < 0:
            raise ValueError("num_samples must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.normalization is not None:
            mean, std = (np.asarray(v, dtype=np.float64) for v in self.normalization)
            c = self.image_shape[0]
            if mean.shape != (c,) or std.shape != (c,):
                raise DataError(
                    f"normalization stats need one entry per channel "
                    f"({c}), got {mean.shape} and {std.shape}"
                )
            if not np.all(np.isfinite(mean)):
                raise DataError("normalization means must be finite")
            if not np.all(np.isfinite(std) & (std > 0)):
                raise DataError("normalization stds must be finite and positive")


def load_dataset(src: DatasetSource) -> tuple[np.ndarray, np.ndarray]:
    """Load a full split as (images, labels), scaled and normalized."""
    if src.id == "synthetic":
        images, labels = make_synthetic(
            src.num_samples or 1000, src.num_classes, src.image_shape, src.seed, src.split
        )
    else:  # cifar10-bin or cifar100-bin
        label_bytes = 1 if src.id == "cifar10-bin" else 2
        num_classes = 10 if src.id == "cifar10-bin" else 100
        names = CIFAR_TRAIN_FILES if src.split == "train" else CIFAR_TEST_FILES
        if src.id == "cifar100-bin":
            names = ["train.bin"] if src.split == "train" else ["test.bin"]
        parts = []
        label_parts = []
        for name in names:
            path = os.path.join(src.root, name)
            imgs, labs = read_cifar_file(path, label_bytes, num_classes)
            parts.append(imgs)
            label_parts.append(labs)
        images = np.concatenate(parts, axis=0).astype(np.float64) / 255.0
        labels = np.concatenate(label_parts, axis=0)

    if src.num_samples:
        images = images[: src.num_samples]
        labels = labels[: src.num_samples]
    if src.normalization is not None:
        mean, std = (np.asarray(v, dtype=np.float64)[:, None, None] for v in src.normalization)
        images = (images - mean) / std
    return images, labels.astype(np.int64)


def read_cifar_file(
    path: str, label_bytes: int = 1, num_classes: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Parse one CIFAR binary batch file.

    Each record is label_bytes label bytes followed by 3072 pixel bytes
    (three 32x32 planes, row-major, R then G then B). The last label byte
    is the class (CIFAR-100 stores coarse then fine). Returns uint8
    images N x 3 x 32 x 32 and int64 labels.
    """
    if not os.path.exists(path):
        raise DataError(f"{path}: no such file")
    raw = np.fromfile(path, dtype=np.uint8)
    record = label_bytes + 3072
    if raw.size == 0 or raw.size % record != 0:
        full = raw.size // record
        raise DataError(
            f"{path}: {raw.size} bytes is not a multiple of the {record}-byte "
            f"record size; trailing partial record starts at byte offset {full * record}"
        )
    records = raw.reshape(-1, record)
    labels = records[:, label_bytes - 1].astype(np.int64)
    if labels.size and labels.max() >= num_classes:
        bad = int(np.argmax(labels >= num_classes))
        raise DataError(
            f"{path}: record {bad} has label {labels[bad]} outside [0, {num_classes}) "
            f"(byte offset {bad * record})"
        )
    images = records[:, label_bytes:].reshape(-1, *_CIFAR_SHAPE)
    return images, labels


def make_synthetic(
    num_samples: int,
    num_classes: int,
    image_shape: tuple[int, int, int],
    seed: int,
    split: str = "train",
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Gaussian images with linearly separable class structure.

    Each class owns a fixed random +-1 patch tiled across the whole
    image; a sample is unit Gaussian noise plus its class tile. The
    tile is a repeated local texture at noise-level amplitude, so both
    a linear probe on raw pixels and a small conv net with global
    pooling can separate the classes. The test split uses an offset
    RNG stream from the same seed, keeping the two splits disjoint but
    identically distributed.
    """
    if num_samples < 1 or num_classes < 2:
        raise ValueError("need at least one sample and two classes")
    c, h, w = image_shape
    proto_rng = np.random.default_rng(seed)
    th, tw = min(4, h), min(4, w)
    patches = proto_rng.choice([-1.0, 1.0], size=(num_classes, c, th, tw))
    reps = (1, 1, -(-h // th), -(-w // tw))
    tiles = np.tile(patches, reps)[:, :, :h, :w]

    stream = np.random.default_rng((seed, 1 if split == "train" else 2))
    labels = stream.integers(0, num_classes, size=num_samples).astype(np.int64)
    images = stream.normal(size=(num_samples, c, h, w)) + tiles[labels]

    lo, hi = images.min(), images.max()
    images = (images - lo) / (hi - lo)
    return images, labels


def augment_batch(images: np.ndarray, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Train-time augmentation; output shape always equals input shape.

    "cifar-standard" pads each image with 4 zero pixels on every side,
    takes a random crop back to the original size, and mirrors
    horizontally with probability one half. "none" is the identity.
    """
    if mode == "none":
        return images
    if mode != "cifar-standard":
        raise ValueError(f"unknown augmentation mode {mode!r}")
    n, c, h, w = images.shape
    pad = 4
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    offsets = rng.integers(0, 2 * pad + 1, size=(n, 2))
    flips = rng.random(n) < 0.5
    out = np.empty_like(images)
    for i in range(n):
        dy, dx = offsets[i]
        crop = padded[i, :, dy : dy + h, dx : dx + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


def find_cifar10_root(explicit: str = "") -> str | None:
    """Locate a CIFAR-10 binary directory: explicit path, then the
    GMCONV_CIFAR10_DIR environment variable, then ./data/cifar-10-batches-bin.
    Returns None when nothing usable exists."""
    candidates = []
    if explicit:
        candidates.append(explicit)
    env = os.environ.get("GMCONV_CIFAR10_DIR")
    if env:
        candidates.append(env)
    candidates.append(os.path.join("data", "cifar-10-batches-bin"))
    for root in candidates:
        if all(os.path.exists(os.path.join(root, f)) for f in CIFAR_TRAIN_FILES + CIFAR_TEST_FILES):
            return root
    return None
