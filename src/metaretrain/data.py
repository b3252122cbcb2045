"""Dataset loading and data-scarcity splitting.

A dataset is one `Samples` table, a uint8 pixel stack [N,C,H,W] with a label
and a source id per row, which every loader, split and consumer passes on
whole; `samples[i]` views one row as an `ImageSample`.

Handles the stock binary distributions:

MNIST IDX image file (big-endian):
    [offset] [type]          [value]          [description]
    0000     32 bit integer  0x00000803       magic number
    0004     32 bit integer  60000            number of images
    0008     32 bit integer  28               rows
    0012     32 bit integer  28               columns
    0016...  unsigned bytes  pixels, row-major per image

MNIST IDX label file: magic 0x00000801, count, then one byte per label.

CIFAR-10 batch: records of 3073 bytes (1 label byte + 3072 channel-major
pixels). CIFAR-100: 3074 bytes (coarse byte, fine byte, 3072 pixels); the
fine label is used.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

MNIST_IMAGE_MAGIC = 0x00000803
MNIST_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class ImageSample:
    """One row of a `Samples` table: an image with its class label and source id."""

    pixels: np.ndarray  # uint8 [C,H,W]
    label: int
    source_id: int


@dataclass(frozen=True, eq=False)
class Samples:
    """uint8 pixels [N,C,H,W] with int64 labels [N] and source ids [N]; a
    source id names an image across splits and keys its transforms."""

    pixels: np.ndarray
    labels: np.ndarray
    source_ids: np.ndarray

    def __post_init__(self):
        if self.pixels.dtype != np.uint8 or self.pixels.ndim != 4:
            raise ValidationError("pixels must be a uint8 [N,C,H,W] array")
        for name in ("labels", "source_ids"):
            column = np.asarray(getattr(self, name))
            if column.shape != (len(self.pixels),) or (column.size and column.dtype.kind not in "iu"):
                raise ValidationError(f"{name} must hold one integer per image, {len(self.pixels)} in all")
            object.__setattr__(self, name, column.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return len(self.pixels)

    def __getitem__(self, i) -> ImageSample:
        return ImageSample(self.pixels[i], int(self.labels[i]), int(self.source_ids[i]))

    def take(self, rows) -> "Samples":
        """The table of `rows` (indices or a slice), in their order."""
        return Samples(self.pixels[rows], self.labels[rows], self.source_ids[rows])

    def keys(self, seed: int) -> list:
        """Each row's transform key, (seed, source_id)."""
        return [(seed, source_id) for source_id in self.source_ids.tolist()]


@dataclass(frozen=True)
class DatasetSplit:
    """Labeled / unlabeled / test tables of a subsampled dataset. Unlabeled
    rows keep their labels for evaluation-only diagnostics: the batch stream
    reads their pixels and source ids, never a label."""

    labeled: Samples
    unlabeled: Samples
    test: Samples

    def sizes(self) -> tuple:
        return (len(self.labeled), len(self.unlabeled), len(self.test))


def to_model_input(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels -> float32 in [0,1]; accepts [C,H,W] or [N,C,H,W].

    Divides in place in a fresh array, so one float32 array is made and a
    caller's float32 input is never changed."""
    out = np.array(pixels, dtype=np.float32)
    out /= 255.0
    return out


def _read_be_u32(data: bytes, offset: int, path, what: str) -> int:
    if len(data) < offset + 4:
        raise ValidationError(f"{path}: truncated {what} at offset {offset}")
    return struct.unpack_from(">I", data, offset)[0]


def load_mnist(images_path, labels_path) -> Samples:
    """Parse an IDX image/label file pair into a table; row i has source id i."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    img_data = images_path.read_bytes()
    lbl_data = labels_path.read_bytes()

    magic = _read_be_u32(img_data, 0, images_path, "magic")
    if magic != MNIST_IMAGE_MAGIC:
        raise ValidationError(f"{images_path}: bad image magic 0x{magic:08x} at offset 0")
    count = _read_be_u32(img_data, 4, images_path, "count")
    rows = _read_be_u32(img_data, 8, images_path, "rows")
    cols = _read_be_u32(img_data, 12, images_path, "cols")
    expected = 16 + count * rows * cols
    if len(img_data) != expected:
        raise ValidationError(
            f"{images_path}: expected {expected} bytes for {count} images, "
            f"found {len(img_data)} (pixel data starts at offset 16)"
        )

    lmagic = _read_be_u32(lbl_data, 0, labels_path, "magic")
    if lmagic != MNIST_LABEL_MAGIC:
        raise ValidationError(f"{labels_path}: bad label magic 0x{lmagic:08x} at offset 0")
    lcount = _read_be_u32(lbl_data, 4, labels_path, "count")
    if lcount != count:
        raise ValidationError(f"{labels_path}: label count {lcount} != image count {count}")
    if len(lbl_data) != 8 + lcount:
        raise ValidationError(f"{labels_path}: expected {8 + lcount} bytes, found {len(lbl_data)} (labels start at offset 8)")

    pixels = np.frombuffer(img_data, dtype=np.uint8, offset=16).reshape(count, 1, rows, cols)
    return Samples(pixels, np.frombuffer(lbl_data, dtype=np.uint8, offset=8), np.arange(count))


def load_cifar(batch_files, variant: int = 10) -> Samples:
    """Parse CIFAR-10/100 binary batches into one table; source ids run
    across files in order.

    Every file is sized before any is read, and each is read straight into
    its rows of one array, so loading holds the corpus once."""
    if variant not in (10, 100):
        raise ValidationError("variant must be 10 or 100")
    record = 3073 if variant == 10 else 3074
    label_offset = 0 if variant == 10 else 1  # CIFAR-100: fine label is byte 1
    sizes = [(file, Path(file).stat().st_size) for file in batch_files]
    for file, size in sizes:
        if size == 0 or size % record:
            raise ValidationError(f"{file}: length {size} is not a positive multiple of record size {record}")
    records = np.empty((sum(size for _, size in sizes) // record, record), dtype=np.uint8)
    flat, start = records.reshape(-1), 0
    for file, size in sizes:
        with open(file, "rb") as f:
            read = f.readinto(flat[start : start + size])
        if read != size:
            raise ValidationError(f"{file}: read {read} bytes, but its size was {size}")
        start += size
    return Samples(records[:, record - 3072 :].reshape(-1, 3, 32, 32), records[:, label_offset],
                   np.arange(len(records)))


def largest_remainder(total: int, weights) -> list:
    """Apportion `total` into integer parts proportional to `weights`."""
    weights = np.asarray(weights, dtype=np.float64)
    quotas = weights / weights.sum() * total
    base = np.floor(quotas).astype(int)
    # leftovers go to the largest fractional parts, ties by index
    base[np.argsort(base - quotas, kind="stable")[: total - int(base.sum())]] += 1
    return base.tolist()


def subsample_and_split(samples: Samples, fraction, ratios, seed) -> DatasetSplit:
    """Take round(fraction*N) rows and split them by largest-remainder ratios.

    `ratios` is (labeled, unlabeled, test). The subset is apportioned per
    class, so its per-class counts differ from proportional by at most one.
    """
    if not 0 < fraction <= 1:
        raise ValidationError("fraction must be in (0, 1]")
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or min(ratios) < 0:
        raise ValidationError("ratios must be three non-negative numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"ratios must sum to 1 within 1e-9, got {sum(ratios)}")

    n_total = len(samples)
    n_sub = round(fraction * n_total)
    if n_sub < 1:
        raise ValidationError(f"fraction {fraction} of {n_total} samples is empty")
    sizes = largest_remainder(n_sub, ratios)
    for name, size, ratio in zip(("labeled", "unlabeled", "test"), sizes, ratios):
        if ratio > 0 and size < 1:
            raise ValidationError(f"subset of {n_sub} gives no samples for the {name} split")

    rng = np.random.default_rng(seed)
    classes, counts = np.unique(samples.labels, return_counts=True)
    chosen = []
    for c, take in zip(classes, largest_remainder(n_sub, counts)):
        pool = np.flatnonzero(samples.labels == c)
        chosen.append(pool[rng.choice(len(pool), size=take, replace=False)])
    chosen = np.sort(np.concatenate(chosen))
    chosen = chosen[rng.permutation(len(chosen))]

    n_lab, n_unl, _ = sizes
    return DatasetSplit(
        labeled=samples.take(chosen[:n_lab]),
        unlabeled=samples.take(chosen[n_lab : n_lab + n_unl]),
        test=samples.take(chosen[n_lab + n_unl :]),
    )
