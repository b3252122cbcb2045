"""Procedural digit dataset in MNIST IDX format.

Renders a 5x7 bitmap font into jittered 28x28 grayscale images: random
placement, stroke intensity, and pixel noise make the task non-trivial while
staying learnable by a small CNN in seconds. Useful for demos and offline
test runs when the real MNIST binaries are not on disk; files written by
`write_idx` parse with `data.load_mnist`.

The corpus bytes of `make_digits(n, seed)` are fixed by the order of the
draws from `np.random.default_rng(seed)`. Image i (label i % 10) draws, in
this order and before image i + 1 draws anything:

1. `integers(2, 4)`: the glyph scale, 2 (10x14 glyph) or 3 (15x21);
2. `integers(lo, hi)` for the top row, then for the left column, each
   within 2 pixels of centring the glyph (`_OFFSETS`);
3. `uniform(0.75, 1.0)`: the stroke intensity, times 255;
4. `normal(0.0, 6.0, size=(28, 28))`: float64 pixel noise.

The pixels are `clip(float32(canvas + noise), 0, 255)` cast to uint8, where
the float32 canvas holds `glyph * float32(intensity)` at the drawn offset
and 0 elsewhere. Everything but the draws runs on blocks of `BLOCK` images.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .data import MNIST_IMAGE_MAGIC, MNIST_LABEL_MAGIC, Samples
from .errors import ValidationError
from .nn.checkpoint import write_atomic

_FONT = {
    0: ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    3: ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    4: ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}


def _glyph(digit: int) -> np.ndarray:
    rows = _FONT[digit]
    return np.array([[pix == "1" for pix in row] for row in rows], dtype=np.float32)


BLOCK = 2048  # images rendered together: bounds the float64 noise block at 12.8 MB


def _offset_bounds(scale: int) -> tuple:
    """(lo, hi) of the top-row and then the left-column draw at `scale`: the
    glyph lands within 2 pixels of centred on the 28x28 canvas."""
    return tuple((max(0, m // 2 - 2), min(m, m // 2 + 2) + 1) for m in (28 - 7 * scale, 28 - 5 * scale))


_OFFSETS = {scale: _offset_bounds(scale) for scale in (2, 3)}


def _templates(scale: int) -> np.ndarray:
    """The ten digits' glyphs at `scale`, float32 [10, 7*scale, 5*scale]."""
    block = np.ones((scale, scale), dtype=np.float32)
    return np.stack([np.kron(_glyph(digit), block) for digit in range(10)])


def make_digits(n: int, seed: int = 0) -> Samples:
    """A table of n digits with uniformly cycling labels, deterministic in seed."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValidationError(f"n: must be a non-negative integer, got {n!r}")
    n = int(n)
    rng = np.random.default_rng(seed)
    templates = {scale: _templates(scale) for scale in _OFFSETS}
    labels = np.arange(n) % 10
    pixels = np.empty((n, 1, 28, 28), dtype=np.uint8)
    size = min(n, BLOCK)
    scales = np.empty(size, dtype=np.int64)
    rows = np.empty(size, dtype=np.int64)
    cols = np.empty(size, dtype=np.int64)
    intensity = np.empty(size, dtype=np.float64)
    noise = np.empty((size, 28, 28), dtype=np.float64)
    canvas = np.empty((size, 28, 28), dtype=np.float32)
    for start in range(0, n, BLOCK):
        m = min(BLOCK, n - start)
        for j in range(m):
            scale = int(rng.integers(2, 4))
            (r_lo, r_hi), (c_lo, c_hi) = _OFFSETS[scale]
            scales[j] = scale
            rows[j] = rng.integers(r_lo, r_hi)
            cols[j] = rng.integers(c_lo, c_hi)
            intensity[j] = float(rng.uniform(0.75, 1.0)) * 255.0
            noise[j] = rng.normal(0.0, 6.0, size=(28, 28))
        block = canvas[:m]
        block.fill(0.0)
        digits = labels[start : start + m]
        for scale, glyphs in templates.items():
            idx = np.flatnonzero(scales[:m] == scale)
            gh, gw = glyphs.shape[1:]
            r = rows[idx, None, None] + np.arange(gh)[None, :, None]
            c = cols[idx, None, None] + np.arange(gw)[None, None, :]
            block[idx[:, None, None], r, c] = glyphs[digits[idx]] * intensity[idx].astype(np.float32)[:, None, None]
        block += noise[:m]
        np.clip(block, 0, 255, out=block)
        pixels[start : start + m, 0] = block
    return Samples(pixels, labels, np.arange(n))


def write_idx(samples: Samples, images_path, labels_path) -> None:
    """Write a one-channel table as a big-endian IDX image/label file pair.
    Each file is renamed into place whole, so an interrupted write leaves no
    truncated file at either path."""
    n, channels, h, w = samples.pixels.shape
    if channels != 1:
        raise ValidationError(f"write_idx: IDX images have one channel, got {channels}")
    bad = np.flatnonzero((samples.labels < 0) | (samples.labels > 255))
    if bad.size:
        raise ValidationError(f"write_idx: row {bad[0]} has label {samples.labels[bad[0]]}, "
                              "but IDX labels are bytes 0-255")
    images_path, labels_path = Path(images_path), Path(labels_path)
    images_path.parent.mkdir(parents=True, exist_ok=True)
    pixels = np.ascontiguousarray(samples.pixels)
    write_atomic(images_path, b"".join((struct.pack(">IIII", MNIST_IMAGE_MAGIC, n, h, w), pixels.data)))
    write_atomic(labels_path, struct.pack(">II", MNIST_LABEL_MAGIC, n) + samples.labels.astype(np.uint8).tobytes())


def ensure_dataset(data_dir, n_train: int = 2000, seed: int = 1234) -> dict:
    """Write `make_digits(n_train, seed)` as the train IDX pair, the files `run` and `test` read, under
    data_dir if absent; return their paths. Files already there must hold n_train items, or
    ValidationError names the file; IDX has no seed to check."""
    data_dir = Path(data_dir)
    paths = {"train_images": data_dir / "train-images-idx3-ubyte",
             "train_labels": data_dir / "train-labels-idx1-ubyte"}
    if not all(p.exists() for p in paths.values()):
        write_idx(make_digits(n_train, seed), paths["train_images"], paths["train_labels"])
        return paths
    for path in paths.values():
        with open(path, "rb") as f:
            have = int.from_bytes(f.read(8)[4:], "big")  # the count follows the 4-byte magic
        if have != n_train:
            raise ValidationError(f"{path}: holds {have} items, but {n_train} were asked for; "
                                  "remove the corpus files or ask for their sizes")
    return paths
