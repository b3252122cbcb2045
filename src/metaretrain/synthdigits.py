"""Procedural digit dataset in MNIST IDX format.

Renders a 5x7 bitmap font into jittered 28x28 grayscale images: random
placement, stroke intensity, and pixel noise make the task non-trivial while
staying learnable by a small CNN in seconds. Useful for demos and offline
test runs when the real MNIST binaries are not on disk; files written by
`write_idx` parse with `data.load_mnist`.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .data import Samples
from .errors import ValidationError

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


def render_digit(digit: int, rng: np.random.Generator) -> np.ndarray:
    """One 28x28 uint8 image of `digit` with placement/intensity/noise jitter."""
    scale = int(rng.integers(2, 4))  # 10x14 or 15x21 glyph
    glyph = np.kron(_glyph(digit), np.ones((scale, scale), dtype=np.float32))
    gh, gw = glyph.shape
    canvas = np.zeros((28, 28), dtype=np.float32)
    max_r, max_c = 28 - gh, 28 - gw
    r0 = int(rng.integers(max(0, max_r // 2 - 2), min(max_r, max_r // 2 + 2) + 1))
    c0 = int(rng.integers(max(0, max_c // 2 - 2), min(max_c, max_c // 2 + 2) + 1))
    intensity = float(rng.uniform(0.75, 1.0)) * 255.0
    canvas[r0 : r0 + gh, c0 : c0 + gw] = glyph * intensity
    canvas += rng.normal(0.0, 6.0, size=canvas.shape)
    return np.clip(canvas, 0, 255).astype(np.uint8)[None, :, :]


def make_digits(n: int, seed: int = 0) -> Samples:
    """A table of n digits with uniformly cycling labels, deterministic in seed."""
    rng = np.random.default_rng(seed)
    pixels = np.empty((n, 1, 28, 28), dtype=np.uint8)
    for i in range(n):
        pixels[i] = render_digit(i % 10, rng)
    return Samples(pixels, np.arange(n) % 10, np.arange(n))


def write_idx(samples: Samples, images_path, labels_path) -> None:
    """Write a one-channel table as a big-endian IDX image/label file pair."""
    n, channels, h, w = samples.pixels.shape
    if channels != 1:
        raise ValidationError(f"write_idx: IDX images have one channel, got {channels}")
    bad = np.flatnonzero((samples.labels < 0) | (samples.labels > 255))
    if bad.size:
        raise ValidationError(f"write_idx: row {bad[0]} has label {samples.labels[bad[0]]}, "
                              "but IDX labels are bytes 0-255")
    images_path, labels_path = Path(images_path), Path(labels_path)
    images_path.parent.mkdir(parents=True, exist_ok=True)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, h, w))
        f.write(samples.pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(samples.labels.astype(np.uint8).tobytes())


def ensure_dataset(data_dir, n_train: int = 2000, n_test: int = 400, seed: int = 1234) -> dict:
    """Materialize train/test IDX files under data_dir if absent; return paths."""
    data_dir = Path(data_dir)
    paths = {
        "train_images": data_dir / "train-images-idx3-ubyte",
        "train_labels": data_dir / "train-labels-idx1-ubyte",
        "test_images": data_dir / "t10k-images-idx3-ubyte",
        "test_labels": data_dir / "t10k-labels-idx1-ubyte",
    }
    if not all(p.exists() for p in paths.values()):
        write_idx(make_digits(n_train, seed), paths["train_images"], paths["train_labels"])
        write_idx(make_digits(n_test, seed + 1), paths["test_images"], paths["test_labels"])
    return paths
