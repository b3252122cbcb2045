import tracemalloc

import numpy as np
import pytest
from util import table

from metaretrain.data import ImageSample, to_model_input
from metaretrain.errors import ValidationError
from metaretrain.metrics import evaluate, topn_accuracy
from metaretrain.nn import Dense, Flatten, Model, ModelSpec
from metaretrain.nn.layers import PREDICT_CHUNK


def probe_model():
    """Linear model whose logits equal the (scaled) 10 input pixels."""
    spec = ModelSpec(input_shape=(1, 1, 10), num_classes=10, layers=(Flatten(), Dense(10)))
    model = Model(spec, seed=0)
    model._params["1.weight"].data = np.eye(10, dtype=np.float32)
    model._params["1.bias"].data = np.zeros(10, dtype=np.float32)
    return model


def sample_with_logit_ranks(values, label, source_id):
    # pixel row drives the logits directly through the identity weight
    pixels = np.array(values, dtype=np.uint8).reshape(1, 1, 10)
    return ImageSample(pixels, label, source_id)


def evaluate_samples(model, samples, **kwargs):
    """evaluate() on the model's logits over `samples`."""
    logits = model.predict_logits(np.stack([to_model_input(s.pixels) for s in samples]))
    return evaluate(logits, [s.label for s in samples], **kwargs)


class TestTopN:
    def test_top_c_is_always_one(self):
        rng = np.random.default_rng(0)
        model = probe_model()
        samples = table([
            sample_with_logit_ranks(rng.integers(0, 256, size=10), int(rng.integers(0, 10)), i)
            for i in range(12)
        ])
        assert topn_accuracy(model, samples, 10) == 1.0

    def test_perfect_model_top1(self):
        model = probe_model()
        samples = []
        for i in range(8):
            values = np.zeros(10, dtype=np.uint8)
            label = i % 10
            values[label] = 255
            samples.append(sample_with_logit_ranks(values, label, i))
        assert topn_accuracy(model, table(samples), 1) == 1.0

    def test_hand_fixture_matches_manual_count(self):
        model = probe_model()
        # per-sample: descending pixel value gives the rank order directly
        rows = [
            ([250, 200, 150, 0, 0, 0, 0, 0, 0, 0], 0, True, True),   # rank 1
            ([250, 200, 150, 0, 0, 0, 0, 0, 0, 0], 1, False, True),  # rank 2
            ([250, 200, 150, 0, 0, 0, 0, 0, 0, 0], 2, False, True),  # rank 3
            ([250, 200, 150, 0, 0, 0, 0, 0, 0, 0], 3, False, False), # below rank 3
            ([0, 0, 0, 0, 0, 0, 0, 0, 200, 250], 9, True, True),
            ([0, 0, 0, 0, 0, 0, 0, 0, 200, 250], 8, False, True),
            ([0, 0, 0, 0, 0, 0, 0, 100, 200, 250], 7, False, True),
            ([10, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0, True, True),
            # class 1 leads; zero ties rank ascending, so class 0 is second
            ([0, 10, 0, 0, 0, 0, 0, 0, 0, 0], 0, False, True),
            ([0, 0, 0, 0, 0, 255, 0, 0, 0, 0], 5, True, True),
        ]
        samples = table(sample_with_logit_ranks(v, lab, i) for i, (v, lab, _, _) in enumerate(rows))
        expected_top1 = sum(1 for _, _, hit1, _ in rows if hit1) / len(rows)
        expected_top3 = sum(1 for _, _, _, hit3 in rows if hit3) / len(rows)
        assert topn_accuracy(model, samples, 1) == pytest.approx(expected_top1)
        assert topn_accuracy(model, samples, 3) == pytest.approx(expected_top3)

    def test_monotone_in_n(self):
        rng = np.random.default_rng(1)
        model = Model(ModelSpec((1, 1, 10), 10, (Flatten(), Dense(10))), seed=2)
        samples = table([
            ImageSample(rng.integers(0, 256, size=(1, 1, 10), dtype=np.uint8), int(rng.integers(0, 10)), i)
            for i in range(30)
        ])
        accs = [topn_accuracy(model, samples, n) for n in range(1, 11)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 1.0

    def test_ties_break_by_ascending_class_index(self):
        model = probe_model()
        flat = sample_with_logit_ranks(np.zeros(10), 2, 0)  # all logits equal
        assert topn_accuracy(model, table([flat]), 3) == 1.0  # classes 0,1,2 fill top-3
        flat_high = sample_with_logit_ranks(np.zeros(10), 3, 0)
        assert topn_accuracy(model, table([flat_high]), 3) == 0.0

    def test_validation(self):
        model = probe_model()
        with pytest.raises(ValidationError):
            topn_accuracy(model, table([], shape=(1, 1, 10)), 1)
        s = table([sample_with_logit_ranks(np.zeros(10), 0, 0)])
        with pytest.raises(ValidationError):
            topn_accuracy(model, s, 0)
        with pytest.raises(ValidationError):
            topn_accuracy(model, s, 11)


class TestEvaluate:
    def test_report_fields(self):
        rng = np.random.default_rng(3)
        model = probe_model()
        samples = [
            sample_with_logit_ranks(rng.integers(0, 256, size=10), int(rng.integers(0, 3)), i)
            for i in range(20)
        ]
        report = evaluate_samples(model, samples, topn_list=(1, 3, 10))
        assert report.sample_count == 20
        assert set(report.topn) == {1, 3, 10}
        assert report.topn[10] == 1.0
        assert all(0.0 <= v <= 1.0 for v in report.per_class_top1.values())
        d = report.to_dict()
        assert d["topn"]["1"] == report.topn[1]

    def test_per_class_accuracy_consistent_with_top1(self):
        rng = np.random.default_rng(4)
        model = probe_model()
        samples = [
            sample_with_logit_ranks(rng.integers(0, 256, size=10), int(rng.integers(0, 10)), i)
            for i in range(40)
        ]
        report = evaluate_samples(model, samples, topn_list=(1,))
        labels = np.array([s.label for s in samples])
        weights = np.array([np.sum(labels == c) for c in sorted(report.per_class_top1)])
        per_class = np.array([report.per_class_top1[c] for c in sorted(report.per_class_top1)])
        assert float((per_class * weights).sum() / weights.sum()) == pytest.approx(report.topn[1])


def test_topn_accuracy_converts_one_chunk_at_a_time():
    # tracemalloc sees numpy's buffers: a float32 copy of the table alone
    # would be four times the uint8 table
    rng = np.random.default_rng(40)
    samples = table([ImageSample(rng.integers(0, 256, size=(1, 28, 28), dtype=np.uint8), int(rng.integers(0, 10)), i)
                     for i in range(3000)])
    model = Model(ModelSpec((1, 28, 28), 10, (Flatten(), Dense(10))), seed=41)
    chunk_bytes = PREDICT_CHUNK * 28 * 28 * 4
    tracemalloc.start()
    try:
        accuracy = topn_accuracy(model, samples, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < samples.pixels.nbytes + 4 * chunk_bytes
    whole = model.predict_logits(to_model_input(samples.pixels))
    assert accuracy == evaluate(whole, samples.labels, topn_list=(3,)).topn[3]
