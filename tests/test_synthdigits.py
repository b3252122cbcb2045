"""The synthetic digit corpus: its bytes, its input checks and its IDX files.

`make_digits` renders a block of images at a time. `per_image_digits` below
is the earlier renderer, one image per loop step, kept as the reference the
block renderer must equal byte for byte. The golden hashes pin the corpus
bytes themselves, so a change to the draw order fails here even if the
reference changes with it.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaretrain.data import Samples, load_mnist
from metaretrain.errors import ValidationError
from metaretrain import synthdigits
from metaretrain.synthdigits import _glyph, ensure_dataset, make_digits, write_idx


def per_image_digits(n: int, seed: int) -> Samples:
    """Reference renderer: each image drawn, placed, noised and cast alone."""
    rng = np.random.default_rng(seed)
    pixels = np.empty((n, 1, 28, 28), dtype=np.uint8)
    for i in range(n):
        scale = int(rng.integers(2, 4))
        glyph = np.kron(_glyph(i % 10), np.ones((scale, scale), dtype=np.float32))
        gh, gw = glyph.shape
        canvas = np.zeros((28, 28), dtype=np.float32)
        max_r, max_c = 28 - gh, 28 - gw
        r0 = int(rng.integers(max(0, max_r // 2 - 2), min(max_r, max_r // 2 + 2) + 1))
        c0 = int(rng.integers(max(0, max_c // 2 - 2), min(max_c, max_c // 2 + 2) + 1))
        intensity = float(rng.uniform(0.75, 1.0)) * 255.0
        canvas[r0 : r0 + gh, c0 : c0 + gw] = glyph * intensity
        canvas += rng.normal(0.0, 6.0, size=canvas.shape)
        pixels[i, 0] = np.clip(canvas, 0, 255).astype(np.uint8)
    return Samples(pixels, np.arange(n) % 10, np.arange(n))


# sha256 of make_digits(n, seed).pixels as rendered one image at a time;
# 2049 is one image past the first 2048-image block, and (12000, 41) is the
# benchmark's seed-41 corpus
GOLDEN = {
    (1, 0): "08315fb13dda414cd9ecc87f3e9238b4de03b9a0f078e55090ca61344da19913",
    (2049, 7): "2fa4b252c4c294718a053c20cdee9e8c4b85c36a9e2ede493ab1dfedcdf0530a",
    (12000, 41): "248be0c31362796deae0323b884d8af7d964d794c8df63b7d14370a8770cecb2",
}


@pytest.mark.parametrize("n,seed", sorted(GOLDEN))
def test_corpus_bytes_match_golden_hash(n, seed):
    pixels = make_digits(n, seed).pixels
    assert pixels.shape == (n, 1, 28, 28) and pixels.dtype == np.uint8
    assert hashlib.sha256(pixels.tobytes()).hexdigest() == GOLDEN[(n, seed)]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_block_renderer_equals_per_image_reference(n, seed):
    assert make_digits(n, seed).pixels.tobytes() == per_image_digits(n, seed).pixels.tobytes()


@pytest.mark.parametrize("block", [1, 7])
def test_bytes_do_not_depend_on_the_block_size(monkeypatch, block):
    monkeypatch.setattr(synthdigits, "BLOCK", block)
    assert make_digits(40, seed=11).pixels.tobytes() == per_image_digits(40, seed=11).pixels.tobytes()


def test_labels_cycle_and_source_ids_count_rows():
    samples = make_digits(23, seed=5)
    assert samples.labels.tolist() == [i % 10 for i in range(23)]
    assert samples.source_ids.tolist() == list(range(23))
    assert samples.labels.dtype == np.int64 and samples.source_ids.dtype == np.int64


def test_zero_images_is_an_empty_table():
    samples = make_digits(0, seed=1)
    assert samples.pixels.shape == (0, 1, 28, 28) and len(samples) == 0


@pytest.mark.parametrize("n", [-1, True, False, 2.0, "3", None])
def test_bad_count_raises_naming_n(n):
    with pytest.raises(ValidationError, match=r"^n: "):
        make_digits(n, seed=0)


def test_numpy_integer_count_is_accepted():
    assert make_digits(np.int64(3), seed=2).pixels.tobytes() == make_digits(3, seed=2).pixels.tobytes()


def read_pair(data_dir: Path, prefix: str) -> Samples:
    return load_mnist(data_dir / f"{prefix}-images-idx3-ubyte", data_dir / f"{prefix}-labels-idx1-ubyte")


def assert_same_table(got: Samples, want: Samples):
    assert got.pixels.tobytes() == want.pixels.tobytes()
    assert got.labels.tolist() == want.labels.tolist()


def test_ensure_dataset_writes_make_digits_of_seed_as_the_train_pair_alone(tmp_path):
    # the session fixture `data_dir` writes this table itself, relying on this
    paths = ensure_dataset(tmp_path, n_train=30, seed=9)
    assert_same_table(read_pair(tmp_path, "train"), make_digits(30, 9))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths.values()) == [
        "train-images-idx3-ubyte", "train-labels-idx1-ubyte"]


def test_ensure_dataset_of_other_sizes_raises_naming_file_and_counts_and_writes_nothing(tmp_path):
    ensure_dataset(tmp_path, n_train=30, seed=1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert ensure_dataset(tmp_path, n_train=30, seed=2)  # the seed is not recorded, so not checked
    with pytest.raises(ValidationError, match=r"train-images-idx3-ubyte: holds 30 items, but 50 were asked for"):
        ensure_dataset(tmp_path, n_train=50, seed=2)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    # the labels are checked too: an 8-label file beside the 30 images
    write_idx(make_digits(8, seed=1), tmp_path / "other-images", tmp_path / "train-labels-idx1-ubyte")
    with pytest.raises(ValidationError, match=r"train-labels-idx1-ubyte: holds 8 items, but 30 were asked for"):
        ensure_dataset(tmp_path, n_train=30, seed=1)


def test_interrupted_write_leaves_no_partial_file_and_is_redone(tmp_path, monkeypatch):
    calls = []
    real_write_bytes = Path.write_bytes

    def dies_on_the_last_write(self, data):
        calls.append(self)
        if len(calls) == 2:  # the labels, after the images
            real_write_bytes(self, bytes(data)[: len(data) // 2])
            raise OSError("killed mid-write")
        return real_write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", dies_on_the_last_write)
    with pytest.raises(OSError, match="killed mid-write"):
        ensure_dataset(tmp_path, n_train=20, seed=3)
    monkeypatch.undo()
    assert not (tmp_path / "train-labels-idx1-ubyte").exists()

    paths = ensure_dataset(tmp_path, n_train=20, seed=3)
    assert all(p.exists() for p in paths.values())
    assert_same_table(read_pair(tmp_path, "train"), make_digits(20, 3))


def test_idx_bytes_are_header_then_rows(tmp_path):
    samples = make_digits(3, seed=6)
    write_idx(samples, tmp_path / "imgs", tmp_path / "lbls")
    images = (tmp_path / "imgs").read_bytes()
    assert images[:16] == bytes.fromhex("00000803" "00000003" "0000001c" "0000001c")
    assert images[16:] == samples.pixels.tobytes()
    assert (tmp_path / "lbls").read_bytes() == bytes.fromhex("00000801" "00000003" "000102")
