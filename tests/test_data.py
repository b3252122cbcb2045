import os
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from util import reference_largest_remainder, reference_subsample_and_split, table

from metaretrain.data import (
    ImageSample,
    Samples,
    largest_remainder,
    load_cifar,
    load_mnist,
    subsample_and_split,
    to_model_input,
)
from metaretrain.errors import ValidationError
from metaretrain.synthdigits import make_digits, write_idx


def write_mnist_fixture(tmp_path, images, labels):
    n, h, w = images.shape
    img_path = tmp_path / "imgs"
    lbl_path = tmp_path / "lbls"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", 0x801, n) + bytes(labels))
    return img_path, lbl_path


class TestMnistLoader:
    def test_two_image_fixture_roundtrips_pixel_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(2, 4, 3), dtype=np.uint8)
        img, lbl = write_mnist_fixture(tmp_path, images, [7, 1])
        samples = load_mnist(img, lbl)
        assert len(samples) == 2
        assert samples[0].pixels.shape == (1, 4, 3)
        assert np.array_equal(samples[0].pixels[0], images[0])
        assert np.array_equal(samples[1].pixels[0], images[1])
        assert [s.label for s in samples] == [7, 1]
        assert [s.source_id for s in samples] == [0, 1]

    def test_empty_file_is_parse_error(self, tmp_path):
        img = tmp_path / "empty"
        img.write_bytes(b"")
        lbl = tmp_path / "lbl"
        lbl.write_bytes(struct.pack(">II", 0x801, 0))
        with pytest.raises(ValidationError, match="offset 0"):
            load_mnist(img, lbl)

    def test_bad_magic_is_parse_error(self, tmp_path):
        img = tmp_path / "img"
        img.write_bytes(struct.pack(">IIII", 0xdead, 1, 2, 2) + bytes(4))
        lbl = tmp_path / "lbl"
        lbl.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
        with pytest.raises(ValidationError, match="magic"):
            load_mnist(img, lbl)

    def test_truncated_pixels_is_parse_error(self, tmp_path):
        img = tmp_path / "img"
        img.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(5))
        lbl = tmp_path / "lbl"
        lbl.write_bytes(struct.pack(">II", 0x801, 2) + bytes(2))
        with pytest.raises(ValidationError, match="expected 24 bytes"):
            load_mnist(img, lbl)

    def test_count_mismatch_is_parse_error(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, _ = write_mnist_fixture(tmp_path, images, [0, 1])
        lbl = tmp_path / "short"
        lbl.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
        with pytest.raises(ValidationError, match="label count 1 != image count 2"):
            load_mnist(img, lbl)

    def test_bad_label_magic_names_the_label_file(self, tmp_path):
        img, lbl = write_mnist_fixture(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        lbl.write_bytes(struct.pack(">II", 0x803, 2) + bytes(2))
        with pytest.raises(ValidationError, match=re.escape(f"{lbl}: bad label magic 0x00000803 at offset 0")):
            load_mnist(img, lbl)

    @pytest.mark.parametrize("n_labels", [1, 4], ids=["one-short", "two-long"])
    def test_label_file_of_wrong_length_names_it(self, tmp_path, n_labels):
        img, lbl = write_mnist_fixture(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        lbl.write_bytes(struct.pack(">II", 0x801, 2) + bytes(n_labels))
        with pytest.raises(ValidationError, match=re.escape(f"{lbl}: expected 10 bytes, found {8 + n_labels} "
                                                            "(labels start at offset 8)")):
            load_mnist(img, lbl)

    def test_synthetic_idx_writer_roundtrips(self, tmp_path):
        samples = make_digits(30, seed=5)
        write_idx(samples, tmp_path / "imgs", tmp_path / "lbls")
        loaded = load_mnist(tmp_path / "imgs", tmp_path / "lbls")
        assert len(loaded) == 30
        for orig, back in zip(samples, loaded):
            assert np.array_equal(orig.pixels, back.pixels)
            assert orig.label == back.label

    def test_loader_is_pure(self, tmp_path):
        samples = make_digits(10, seed=6)
        write_idx(samples, tmp_path / "i", tmp_path / "l")
        a = load_mnist(tmp_path / "i", tmp_path / "l")
        b = load_mnist(tmp_path / "i", tmp_path / "l")
        assert all(np.array_equal(x.pixels, y.pixels) and x.label == y.label for x, y in zip(a, b))

    def test_idx_writer_rejects_multi_channel_images_before_writing(self, tmp_path):
        rows = [ImageSample(np.full((3, 4, 4), i, dtype=np.uint8), i, i) for i in range(2)]
        with pytest.raises(ValidationError, match="one channel, got 3"):
            write_idx(table(rows), tmp_path / "imgs", tmp_path / "lbls")
        assert list(tmp_path.iterdir()) == []

    def test_idx_writer_rejects_label_above_a_byte_before_writing(self, tmp_path):
        samples = make_digits(4, seed=2)
        samples = Samples(samples.pixels, [1, 2, 300, 3], samples.source_ids)
        with pytest.raises(ValidationError, match="row 2 has label 300"):
            write_idx(samples, tmp_path / "imgs", tmp_path / "lbls")
        assert list(tmp_path.iterdir()) == []

    def test_official_train_files_when_available(self):
        import os
        from pathlib import Path

        root = os.environ.get("METARETRAIN_DATA_DIR")
        images = Path(root) / "train-images-idx3-ubyte" if root else None
        if images is None or not images.exists():
            pytest.skip("official MNIST binaries not on disk")
        samples = load_mnist(images, images.parent / "train-labels-idx1-ubyte")
        assert len(samples) == 60000
        assert samples[0].pixels.shape == (1, 28, 28)


class TestCifarLoader:
    def make_batch(self, tmp_path, n, variant=10, seed=0):
        rng = np.random.default_rng(seed)
        record = 3073 if variant == 10 else 3074
        raw = rng.integers(0, 256, size=(n, record), dtype=np.uint8)
        if variant == 10:
            raw[:, 0] = rng.integers(0, 10, size=n)
        else:
            raw[:, 0] = rng.integers(0, 20, size=n)
            raw[:, 1] = rng.integers(0, 100, size=n)
        path = tmp_path / f"batch_{variant}_{n}.bin"
        path.write_bytes(raw.tobytes())
        return path, raw

    def test_single_record_roundtrips_exactly(self, tmp_path):
        path, raw = self.make_batch(tmp_path, 1)
        samples = load_cifar([path], variant=10)
        assert len(samples) == 1
        s = samples[0]
        assert s.label == int(raw[0, 0])
        assert s.pixels.shape == (3, 32, 32)
        assert np.array_equal(s.pixels.reshape(-1), raw[0, 1:])

    def test_bad_length_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3072))
        with pytest.raises(ValidationError, match="record size 3073"):
            load_cifar([path], variant=10)

    def test_cifar100_fine_labels_in_range(self, tmp_path):
        path, raw = self.make_batch(tmp_path, 12, variant=100)
        samples = load_cifar([path], variant=100)
        assert all(s.label < 100 for s in samples)
        assert [s.label for s in samples] == [int(b) for b in raw[:, 1]]

    def test_source_ids_run_across_files(self, tmp_path):
        p1, _ = self.make_batch(tmp_path, 3, seed=1)
        p2, _ = self.make_batch(tmp_path, 2, seed=2)
        samples = load_cifar([p1, p2], variant=10)
        assert [s.source_id for s in samples] == [0, 1, 2, 3, 4]

    def test_five_batches_load_holding_the_corpus_once(self, tmp_path):
        # tracemalloc sees numpy's buffers: a loader that keeps each file's
        # bytes and then concatenates them peaks near twice the corpus
        batches = []
        for i in range(5):
            (tmp_path / str(i)).mkdir()
            batches.append(self.make_batch(tmp_path / str(i), 200, seed=i))
        corpus = sum(path.stat().st_size for path, _ in batches)
        tracemalloc.start()
        try:
            samples = load_cifar([path for path, _ in batches], variant=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * corpus
        raw = np.concatenate([raw for _, raw in batches])
        assert np.array_equal(samples.pixels.reshape(len(raw), -1), raw[:, 1:])
        assert np.array_equal(samples.labels, raw[:, 0])

    def test_file_shorter_than_its_size_when_read_is_parse_error(self, tmp_path, monkeypatch):
        path, _ = self.make_batch(tmp_path, 2)
        # sized at three records, as if the file were cut short before its read
        monkeypatch.setattr(Path, "stat", lambda self: os.stat_result((0,) * 6 + (3 * 3073,) + (0,) * 3))
        with pytest.raises(ValidationError, match=f"{re.escape(str(path))}: read 6146 bytes, but its size was 9219"):
            load_cifar([path], variant=10)

    def test_bad_length_of_a_later_file_raised_before_any_read(self, tmp_path, monkeypatch):
        good, _ = self.make_batch(tmp_path, 2)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(3074))
        for opener in ("builtins.open", "io.open"):  # pathlib reads through io.open
            monkeypatch.setattr(opener, lambda file, *args, **kwargs: pytest.fail(f"opened {file}"))
        with pytest.raises(ValidationError, match=f"{re.escape(str(bad))}: length 3074 is not a positive multiple"):
            load_cifar([good, bad], variant=10)


class TestSamples:
    def test_rows_view_the_table(self):
        samples = make_digits(12, seed=3)
        assert len(samples) == 12 and samples.labels.dtype == samples.source_ids.dtype == np.int64
        row = samples[7]
        assert isinstance(row, ImageSample) and (row.label, row.source_id) == (7, 7)
        assert np.shares_memory(row.pixels, samples.pixels)
        part = samples.take([9, 2])
        assert part.labels.tolist() == [9, 2] and np.array_equal(part.pixels, samples.pixels[[9, 2]])
        assert part.keys(5) == [(5, 9), (5, 2)]

    @pytest.mark.parametrize("pixels,labels,source_ids,field", [
        (np.zeros((2, 1, 3, 3), dtype=np.float32), [0, 1], [0, 1], "pixels"),
        (np.zeros((1, 3, 3), dtype=np.uint8), [0], [0], "pixels"),
        (np.zeros((2, 1, 3, 3), dtype=np.uint8), [0], [0, 1], "labels"),
        (np.zeros((2, 1, 3, 3), dtype=np.uint8), [0, 1], [[0, 1]], "source_ids"),
        (np.zeros((2, 1, 3, 3), dtype=np.uint8), [0.5, 1.0], [0, 1], "labels"),
    ])
    def test_table_checks_dtype_rank_and_row_count(self, pixels, labels, source_ids, field):
        with pytest.raises(ValidationError, match=field):
            Samples(pixels, labels, source_ids)


class TestSubsampleAndSplit:
    def fake_samples(self, n, classes=10):
        return table(ImageSample(np.zeros((1, 2, 2), dtype=np.uint8), i % classes, i) for i in range(n))

    def test_mnist_scale_arithmetic(self):
        split = subsample_and_split(self.fake_samples(60000), 0.001, (0.1, 0.7, 0.2), seed=0)
        assert split.sizes() == (6, 42, 12)

    def test_everything_labeled(self):
        split = subsample_and_split(self.fake_samples(50), 1.0, (1.0, 0.0, 0.0), seed=0)
        assert split.sizes() == (50, 0, 0)

    def test_same_seed_gives_identical_source_ids(self):
        samples = self.fake_samples(500)
        a = subsample_and_split(samples, 0.2, (0.1, 0.7, 0.2), seed=9)
        b = subsample_and_split(samples, 0.2, (0.1, 0.7, 0.2), seed=9)
        for field in ("labeled", "unlabeled", "test"):
            assert [s.source_id for s in getattr(a, field)] == [s.source_id for s in getattr(b, field)]

    def test_splits_are_disjoint_by_source_id(self):
        split = subsample_and_split(self.fake_samples(300), 0.5, (0.2, 0.5, 0.3), seed=2)
        ids = [s.source_id for part in (split.labeled, split.unlabeled, split.test) for s in part]
        assert len(ids) == len(set(ids)) == 150

    def test_stratified_class_counts_within_one_of_proportional(self):
        samples = self.fake_samples(1000, classes=10)
        split = subsample_and_split(samples, 0.123, (0.3, 0.4, 0.3), seed=3)
        chosen = [s for part in (split.labeled, split.unlabeled, split.test) for s in part]
        counts = np.bincount([s.label for s in chosen], minlength=10)
        proportional = 123 / 10
        assert np.all(np.abs(counts - proportional) <= 1.0)

    def test_ratio_validation(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            subsample_and_split(self.fake_samples(100), 0.5, (0.5, 0.5, 0.1), seed=0)
        with pytest.raises(ValidationError):
            subsample_and_split(self.fake_samples(100), 0.0, (0.1, 0.7, 0.2), seed=0)

    def test_too_small_subset_is_validation_error(self):
        with pytest.raises(ValidationError, match="no samples"):
            subsample_and_split(self.fake_samples(100), 0.02, (0.1, 0.7, 0.2), seed=0)

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.integers(0, 11), min_size=1, max_size=200), fraction=st.floats(0.005, 1.0),
           weights=st.tuples(*[st.integers(0, 9)] * 3).filter(any), seed=st.integers(0, 2**32 - 1))
    @example(labels=[3, 0, 3, 7, 0, 0, 3, 7, 7, 3], fraction=0.5, weights=(2, 5, 3), seed=0)
    @example(labels=[4] * 9 + [1], fraction=0.3, weights=(1, 1, 1), seed=7)  # a class takes 0
    def test_draws_match_the_per_object_split(self, labels, fraction, weights, seed):
        # source ids that are not the row numbers, so a part cannot match by row alone
        ids = np.random.default_rng(seed).permutation(len(labels)) * 3 + 100
        rows = [ImageSample(np.full((1, 1, 1), i % 256, dtype=np.uint8), lab, int(sid))
                for i, (lab, sid) in enumerate(zip(labels, ids))]
        ratios = tuple(w / sum(weights) for w in weights)
        try:
            expected = reference_subsample_and_split(rows, fraction, ratios, seed)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=re.escape(str(exc))):
                subsample_and_split(table(rows), fraction, ratios, seed)
            return
        split = subsample_and_split(table(rows), fraction, ratios, seed)
        for name in ("labeled", "unlabeled", "test"):
            part, want = getattr(split, name), getattr(expected, name)
            assert part.source_ids.tolist() == [r.source_id for r in want], name
            assert part.labels.tolist() == [r.label for r in want], name
            assert part.pixels.tobytes() == b"".join(r.pixels.tobytes() for r in want), name

    @settings(max_examples=200, deadline=None)
    @given(total=st.integers(0, 500), weights=st.lists(st.floats(0, 50), min_size=1, max_size=12).filter(any))
    @example(total=10, weights=[1.0, 1.0, 1.0, 1.0])  # equal remainders go to the lower index
    def test_largest_remainder_matches_the_sorted_loop(self, total, weights):
        assert largest_remainder(total, weights) == reference_largest_remainder(total, weights)

    def test_largest_remainder_exact(self):
        assert largest_remainder(60, (0.1, 0.7, 0.2)) == [6, 42, 12]
        assert largest_remainder(7, (0.5, 0.5)) == [4, 3]
        assert sum(largest_remainder(11, (0.33, 0.33, 0.34))) == 11


class TestModelInput:
    def test_to_model_input_scales(self):
        arr = np.array([[[0, 255], [128, 64]]], dtype=np.uint8)
        out = to_model_input(arr)
        assert out.dtype == np.float32
        assert out.max() == 1.0 and out.min() == 0.0

    def test_to_model_input_leaves_float32_input_unchanged(self):
        arr = np.array([[[0.0, 255.0], [128.0, 64.0]]], dtype=np.float32)
        out = to_model_input(arr)
        assert out is not arr and arr.tolist() == [[[0.0, 255.0], [128.0, 64.0]]]
        assert np.array_equal(out, arr / np.float32(255.0))
