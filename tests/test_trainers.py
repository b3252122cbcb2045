import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from metaretrain.data import subsample_and_split
from metaretrain.errors import ValidationError
from metaretrain.nn import SGD, Conv2d, Dense, Flatten, MaxPool2d, Model, ModelSpec, ReLU, Tensor, backward
from metaretrain.nn import functional as F
from metaretrain.policy import (
    Batch,
    CycleDatasetSpec,
    base_policy,
    build_cycle_stream,
)
from metaretrain.relations import IDENTITY, MetamorphicRelation, catalog_by_id, catalog_default, label_map_array
from metaretrain.synthdigits import make_digits
from metaretrain.trainers import (
    ClassThresholds,
    LossBreakdown,
    TrainerConfig,
    build_trainer,
    mixmatch_mix,
    sharpen,
)

C = 10
SIZE = 8
SRC = Path(__file__).resolve().parent.parent / "src"

# One fixmatch and one flexmatch step of cnn_small on 28x28 images for each
# admitted count k from 1 to 32 of 32 unlabeled rows, from fresh parameters;
# prints the sha256 of each step's parameter bytes as one JSON list.
THREAD_COUNT_PROBE = """
import hashlib, json
import numpy as np
from metaretrain.nn import SGD, Model, model_spec
from metaretrain.policy import Batch
from metaretrain.relations import IDENTITY
from metaretrain.trainers import TrainerConfig, build_trainer

n_l, n_u, c = 8, 32, 10
spec = model_spec("cnn_small", (1, 28, 28), c)
digests = []
for name in ("fixmatch", "flexmatch"):
    rng = np.random.default_rng(60)
    for k in range(1, n_u + 1):
        batch = Batch(x_labeled=rng.random((n_l, 1, 28, 28), dtype=np.float32),
                      y_labeled=rng.integers(0, c, n_l),
                      x_unlabeled_weak=rng.random((1, n_u, 1, 28, 28), dtype=np.float32),
                      unlabeled_pixels=rng.integers(0, 256, (n_u, 1, 28, 28), dtype=np.uint8),
                      strong_mrs=(IDENTITY,) * n_u, strong_label_maps=np.tile(np.arange(c), (n_u, 1)),
                      seed=0, unlabeled_source_ids=tuple(range(n_u)))
        mask = np.zeros(n_u, dtype=bool)
        mask[rng.permutation(n_u)[:k]] = True
        raw = rng.integers(0, c, n_u)
        trainer = build_trainer(name, Model(spec, seed=61), SGD(0.05, 0.9), TrainerConfig())
        trainer._pseudo_labels = lambda _batch: (np.eye(c)[raw], mask.astype(np.float32), raw, raw)
        trainer.step(batch)
        params = b"".join(p.data.tobytes() for _, p in trainer.model.named_parameters())
        digests.append(hashlib.sha256(params).hexdigest())
print(json.dumps(digests))
"""


def tiny_model(seed=0, bias=None):
    spec = ModelSpec(input_shape=(1, SIZE, SIZE), num_classes=C, layers=(Flatten(), Dense(C)))
    model = Model(spec, seed=seed)
    if bias is not None:
        w = model._params["1.weight"]
        b = model._params["1.bias"]
        w.data = np.zeros_like(w.data)
        arr = np.zeros_like(b.data)
        arr[bias] = 6.0
        b.data = arr
    return model


def make_batch(rng, n_l=4, n_u=6, k=1, strong_map=None):
    x_l = rng.random((n_l, 1, SIZE, SIZE)).astype(np.float32)
    y_l = rng.integers(0, C, size=n_l).astype(np.int64)
    x_w = rng.random((k, n_u, 1, SIZE, SIZE)).astype(np.float32)
    pixels = rng.integers(0, 256, (n_u, 1, SIZE, SIZE), dtype=np.uint8)
    maps = np.tile(np.arange(C, dtype=np.int64), (n_u, 1)) if strong_map is None else strong_map
    return Batch(
        x_labeled=x_l, y_labeled=y_l, x_unlabeled_weak=x_w, unlabeled_pixels=pixels,
        strong_mrs=(IDENTITY,) * n_u, strong_label_maps=maps, seed=0, unlabeled_source_ids=tuple(range(n_u)),
    )


def empty_unlabeled_batch(rng, n_l=4):
    b = make_batch(rng, n_l=n_l, n_u=0)
    return Batch(
        x_labeled=b.x_labeled, y_labeled=b.y_labeled,
        x_unlabeled_weak=np.zeros((1, 0, 1, SIZE, SIZE), dtype=np.float32),
        unlabeled_pixels=np.zeros((0, 1, SIZE, SIZE), dtype=np.uint8),
        strong_mrs=(), strong_label_maps=np.zeros((0, C), dtype=np.int64), seed=0,
    )


def params_of(model):
    return {n: p.data.copy() for n, p in model.named_parameters()}


def gated_model(seed):
    """tiny_model with pixel 0 driving class 0's logit: a blank weak view sees
    a near-uniform softmax, one with pixel 0 lit is confident."""
    model = tiny_model(seed=seed)
    model._params["1.weight"].data[0, 0] = 10.0
    return model


def gated_batch(rng, confident_rows, n_u=20):
    """A batch whose weak views are blank but for pixel 0 of `confident_rows`."""
    batch = make_batch(rng, n_u=n_u)
    batch.x_unlabeled_weak[...] = 0.0
    batch.x_unlabeled_weak[0, list(confident_rows), 0, 0, 0] = 1.0
    return batch


def strong_forwards(monkeypatch, trainer, batch):
    """Inputs of the forwards a step makes after its labeled one, outside
    predict_logits: the strong-view forwards."""
    calls, depth = [], [0]
    forward, predict = Model.forward, Model.predict_logits

    def recording_forward(self, x):
        calls.append((depth[0], x.data.copy()))
        return forward(self, x)

    def nested_predict(self, images):
        depth[0] += 1
        try:
            return predict(self, images)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Model, "forward", recording_forward)
    monkeypatch.setattr(Model, "predict_logits", nested_predict)
    trainer.step(batch)
    monkeypatch.undo()
    outside = [x for inside, x in calls if not inside]
    assert np.array_equal(outside[0], batch.x_labeled)
    return outside[1:]


class TestFixMatch:
    def test_no_confident_sample_means_total_equals_sup(self):
        model = tiny_model(seed=1)
        for p in model.parameters():
            p.data = np.zeros_like(p.data)  # uniform softmax, confidence 0.1 < tau
        trainer = build_trainer("fixmatch", model, SGD(0.1), TrainerConfig())
        out = trainer.step(make_batch(np.random.default_rng(0)))
        assert out.mask_rate == 0.0
        assert out.l_unsup == 0.0
        assert out.total == out.l_sup

    @pytest.mark.parametrize("name", ["fixmatch", "flexmatch", "fullmatch"])
    def test_lambda_zero_matches_supervised_bitwise(self, name):
        batchs = [make_batch(np.random.default_rng(i)) for i in range(3)]
        model_a, model_b = tiny_model(seed=2, bias=3), tiny_model(seed=2, bias=3)
        fix = build_trainer(name, model_a, SGD(0.1, 0.9), TrainerConfig(lambda_u=0.0, lambda_p=0.0))
        sup = build_trainer("supervised", model_b, SGD(0.1, 0.9), TrainerConfig())
        for b in batchs:
            fix.step(b)
            sup.step(b)
        pa, pb = params_of(model_a), params_of(model_b)
        for n in pa:
            assert np.array_equal(pa[n], pb[n]), n

    def test_unsup_loss_matches_direct_definition(self):
        # bias-dominated model is confident everywhere; oracle recomputes the
        # masked mapped cross-entropy from raw logits
        model = tiny_model(seed=3, bias=2)
        rng = np.random.default_rng(4)
        maps = np.tile(label_map_array(catalog_by_id("mnist")["rot180"], C), (2, 1))
        batch = make_batch(rng, n_l=2, n_u=2, strong_map=maps)
        cfg = TrainerConfig(tau=0.5)
        trainer = build_trainer("fixmatch", model, SGD(0.0), cfg)

        weak_probs = F.softmax(model.predict_logits(batch.x_unlabeled_weak[0]))
        strong_logits = model.predict_logits(batch.x_unlabeled_strong).astype(np.float64)
        out = trainer.step(batch)

        conf, raw = weak_probs.max(axis=1), weak_probs.argmax(axis=1)
        mapped = maps[np.arange(2), raw]
        mask = conf >= 0.5
        log_p = strong_logits - np.log(np.exp(strong_logits).sum(axis=1, keepdims=True))
        expected = (-log_p[np.arange(2), mapped] * mask).sum() / 2
        assert out.mask_rate == 1.0
        assert abs(out.l_unsup - expected) < 1e-5

    def test_pseudo_labels_remapped_before_consistency_loss(self):
        model = tiny_model(seed=5, bias=2)  # predicts 2 confidently
        maps = np.tile(label_map_array(catalog_by_id("mnist")["rot180"], C), (3, 1))
        batch = make_batch(np.random.default_rng(6), n_l=1, n_u=3, strong_map=maps)
        trainer = build_trainer("fixmatch", model, SGD(0.0), TrainerConfig(tau=0.5))
        pseudo = trainer.step(batch).pseudo
        assert np.all(pseudo["raw"] == 2)
        assert np.all(pseudo["mapped"] == 5)

    def test_mask_rate_monotone_in_tau(self):
        batch = make_batch(np.random.default_rng(7), n_u=12)
        rates = {}
        for tau in (0.95, 0.5):
            model = tiny_model(seed=8)
            trainer = build_trainer("fixmatch", model, SGD(0.0), TrainerConfig(tau=tau))
            rates[tau] = trainer.step(batch).mask_rate
        assert rates[0.5] >= rates[0.95]


class TestFlexMatch:
    def test_threshold_formula(self):
        status = ClassThresholds(tau_max=0.9, tau_min=0.3, sigma=np.array([4, 4, 4]))
        assert np.allclose(status.thresholds(), [0.9, 0.9, 0.9])
        status = ClassThresholds(tau_max=0.9, tau_min=0.3, sigma=np.array([8, 4, 8]))
        assert np.allclose(status.thresholds(), [0.9, 0.45, 0.9])
        status = ClassThresholds(tau_max=0.9, tau_min=0.3, sigma=np.zeros(3, dtype=np.int64))
        assert np.allclose(status.thresholds(), [0.3, 0.3, 0.3])

    def test_thresholds_after_hand_worked_updates(self):
        # tau_c = max(0.8 * sigma_c / max(sigma), 0.2); update counts repeats
        status = ClassThresholds.fresh(4, tau_max=0.8, tau_min=0.2)
        steps = [
            ([], [0.2, 0.2, 0.2, 0.2]),  # nothing counted yet: every class at the floor
            ([0, 0, 1], [0.8, 0.4, 0.2, 0.2]),  # sigma [2, 1, 0, 0]
            ([1, 1, 3], [0.8 * 2 / 3, 0.8, 0.2, 0.8 / 3]),  # sigma [2, 3, 0, 1]
            ([], [0.8 * 2 / 3, 0.8, 0.2, 0.8 / 3]),  # an empty update changes nothing
            ([2] * 6, [0.8 / 3, 0.4, 0.8, 0.2]),  # sigma [2, 3, 6, 1]; 0.8 / 6 floored
        ]
        for confident, expected in steps:
            status.update(np.array(confident, dtype=np.int64))
            assert np.allclose(status.thresholds(), expected, rtol=0, atol=1e-15), confident
        assert status.sigma.tolist() == [2, 3, 6, 1]
        status.reset()
        assert status.thresholds().tolist() == [0.2, 0.2, 0.2, 0.2]

    def test_floor_applies(self):
        status = ClassThresholds(tau_max=0.9, tau_min=0.5, sigma=np.array([1, 100]))
        taus = status.thresholds()
        assert taus[0] == 0.5  # 0.9/100 floored
        assert taus[1] == 0.9

    def test_converged_status_reduces_to_fixmatch(self):
        model_a, model_b = tiny_model(seed=9, bias=4), tiny_model(seed=9, bias=4)
        cfg = TrainerConfig(tau=0.8)
        flex = build_trainer("flexmatch", model_a, SGD(0.1, 0.9), cfg)
        fix = build_trainer("fixmatch", model_b, SGD(0.1, 0.9), cfg)
        flex.status.sigma[:] = 5  # converged: all classes equally learned
        batch = make_batch(np.random.default_rng(10), n_u=8)
        out_flex = flex.step(batch)
        out_fix = fix.step(batch)
        assert out_flex.l_unsup == out_fix.l_unsup
        assert out_flex.total == out_fix.total
        pa, pb = params_of(model_a), params_of(model_b)
        for n in pa:
            assert np.array_equal(pa[n], pb[n])

    def test_zero_confident_predictions_pure_supervised(self):
        model = tiny_model(seed=11)
        for p in model.parameters():
            p.data = np.zeros_like(p.data)
        trainer = build_trainer("flexmatch", model, SGD(0.1), TrainerConfig())
        out = trainer.step(make_batch(np.random.default_rng(12)))
        assert out.l_unsup == 0.0 and out.total == out.l_sup

    def test_counters_monotone_within_epoch(self):
        model = tiny_model(seed=13, bias=1)
        trainer = build_trainer("flexmatch", model, SGD(0.01), TrainerConfig(tau=0.5))
        rng = np.random.default_rng(14)
        prev = trainer.status.sigma.copy()
        for _ in range(4):
            trainer.step(make_batch(rng))
            assert np.all(trainer.status.sigma >= prev)
            prev = trainer.status.sigma.copy()
        trainer.on_epoch_start(0, 1)
        assert np.all(trainer.status.sigma == 0)


class TestMixMatch:
    def test_mix_gamma_one_is_identity(self):
        x_i, y_i = np.array([[1.0, 2.0]]), np.array([[1.0, 0.0]])
        x_j, y_j = np.array([[9.0, 9.0]]), np.array([[0.0, 1.0]])
        x, y = mixmatch_mix((x_i, y_i), (x_j, y_j), 1.0)
        assert np.allclose(x, x_i) and np.allclose(y, y_i)

    def test_mix_half_blends_onehots(self):
        y_i = np.array([[1.0, 0.0, 0.0]])
        y_j = np.array([[0.0, 1.0, 0.0]])
        _, y = mixmatch_mix((np.zeros((1, 2)), y_i), (np.ones((1, 2)), y_j), 0.5)
        assert np.allclose(y, [[0.5, 0.5, 0.0]])

    def test_mix_rows_stay_normalized_under_beta_draws(self):
        rng = np.random.default_rng(15)
        y_i = rng.dirichlet(np.ones(5), size=16)
        y_j = rng.dirichlet(np.ones(5), size=16)
        gamma = rng.beta(0.75, 0.75, size=16)
        _, y = mixmatch_mix((np.zeros((16, 3)), y_i), (np.zeros((16, 3)), y_j), gamma)
        assert np.allclose(y.sum(axis=1), 1.0, atol=1e-9)

    def test_mix_prefers_first_pair(self):
        x, _ = mixmatch_mix((np.array([[0.0]]), np.array([[1.0]])),
                            (np.array([[1.0]]), np.array([[1.0]])), 0.2)
        assert x[0, 0] == pytest.approx(0.2)  # gamma' = 0.8 applied to pair_a

    def test_mix_rejects_bad_labels_and_gamma(self):
        with pytest.raises(ValidationError):
            mixmatch_mix((np.zeros((1, 1)), np.array([[0.5, 0.2]])),
                         (np.zeros((1, 1)), np.array([[0.5, 0.5]])), 0.5)
        with pytest.raises(ValidationError):
            mixmatch_mix((np.zeros((1, 1)), np.array([[1.0]])),
                         (np.zeros((1, 1)), np.array([[1.0]])), 1.5)

    def test_sharpen_limit_is_argmax_onehot(self):
        p = np.array([[0.5, 0.3, 0.2]])
        sharp = sharpen(p, temperature=0.01)
        assert np.argmax(sharp) == 0
        assert sharp[0, 0] > 0.999999

    def test_k1_identity_guess_equals_model_softmax(self):
        model = tiny_model(seed=16)
        cfg = TrainerConfig(k_augmentations=1, temperature=1.0)
        trainer = build_trainer("mixmatch", model, SGD(0.0), cfg)
        batch = make_batch(np.random.default_rng(17), n_u=3, k=1)
        expected = F.softmax(model.predict_logits(batch.x_unlabeled_weak[0]))
        assert np.allclose(trainer.step(batch).pseudo["guessed"], expected, atol=1e-7)

    @pytest.mark.parametrize("n_u", [1, 31, 32, 33])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_guess_equals_k_separate_forwards_bitwise(self, k, n_u):
        # K*n_u spans one to four of predict_logits' 32-row chunks, n_u = 32 exactly one at k = 1
        spec = ModelSpec(input_shape=(1, SIZE, SIZE), num_classes=C,
                         layers=(Conv2d(4, 3, padding=1), ReLU(), Flatten(), Dense(C)))
        model = Model(spec, seed=40)
        cfg = TrainerConfig(k_augmentations=k, temperature=0.5)
        trainer = build_trainer("mixmatch", model, SGD(0.1), cfg, seed=41)
        batch = make_batch(np.random.default_rng(42), n_l=2, n_u=n_u, k=k)
        mean = sum(F.softmax(model.predict_logits(batch.x_unlabeled_weak[v])) for v in range(k)) / k
        guessed = trainer.step(batch).pseudo["guessed"]
        assert guessed.dtype == np.float64 and guessed.shape == (n_u, C)
        assert guessed.tobytes() == sharpen(mean, 0.5).tobytes()

    def test_two_sample_case_matches_direct_definition(self):
        model = tiny_model(seed=18)
        cfg = TrainerConfig(k_augmentations=1, temperature=0.5, lambda_u=1.0, alpha=0.75)
        trainer = build_trainer("mixmatch", model, SGD(0.0), cfg, seed=21)
        batch = make_batch(np.random.default_rng(19), n_l=1, n_u=1, k=1)

        # oracle: replay the trainer's seeded draws, then apply the loss
        # definitions to raw logits computed outside the trainer
        rng = np.random.default_rng((21, 0x4D6978))
        guessed = sharpen(F.softmax(model.predict_logits(batch.x_unlabeled_weak[0])), 0.5)
        x_all = np.concatenate([batch.x_labeled, batch.x_unlabeled_weak[0]])
        y_all = np.concatenate([F.one_hot(batch.y_labeled, C, dtype=np.float64), guessed])
        perm = rng.permutation(2)
        gamma = rng.beta(0.75, 0.75, size=2)
        g = np.maximum(gamma, 1 - gamma).reshape(-1, 1, 1, 1)
        x_mix = g * x_all + (1 - g) * x_all[perm]
        y_mix = g[:, :, 0, 0] * y_all + (1 - g[:, :, 0, 0]) * y_all[perm]

        logits_l = model.predict_logits(x_mix[:1].astype(np.float32)).astype(np.float64)
        log_p = logits_l - np.log(np.exp(logits_l).sum(axis=1, keepdims=True))
        expected_sup = float(-(y_mix[:1] * log_p).sum(axis=1).mean())
        logits_u = model.predict_logits(x_mix[1:].astype(np.float32)).astype(np.float64)
        p_u = np.exp(logits_u) / np.exp(logits_u).sum(axis=1, keepdims=True)
        expected_unsup = float(((p_u - y_mix[1:]) ** 2).mean())

        out = trainer.step(batch)
        assert out.l_sup == pytest.approx(expected_sup, abs=1e-5)
        assert out.l_unsup == pytest.approx(expected_unsup, abs=1e-6)

    def test_lambda_zero_records_l_unsup_outside_the_total(self):
        trainer = build_trainer("mixmatch", tiny_model(seed=2, bias=3), SGD(0.1), TrainerConfig(lambda_u=0.0))
        out = trainer.step(make_batch(np.random.default_rng(0), k=2))
        assert out.total == out.l_sup
        assert out.l_unsup > 0.0

    def test_single_sample_batch_rejected(self):
        model = tiny_model(seed=20)
        cfg = TrainerConfig(k_augmentations=1)
        trainer = build_trainer("mixmatch", model, SGD(0.1), cfg)
        batch = make_batch(np.random.default_rng(21), n_l=0, n_u=1, k=1)
        with pytest.raises(ValidationError):
            trainer.step(batch)


class TestFullMatch:
    def test_lambda_p_zero_equals_fixmatch_total(self):
        # both trainers take the admitted-row path: equal totals every step
        # and the same parameter bits after. First a batch whose 6 rows all
        # pass on a model biased to class 7, then three steps with 3, 18 and
        # 1 of 20 rows admitted
        rng = np.random.default_rng(22)
        cases = [(tiny_model(seed=23, bias=7), tiny_model(seed=23, bias=7), SGD(0.1), SGD(0.1),
                  [make_batch(rng, n_u=6)], [1.0]),
                 (gated_model(seed=23), gated_model(seed=23), SGD(0.1, 0.9), SGD(0.1, 0.9),
                  [gated_batch(rng, rows) for rows in ([0, 3, 4], range(1, 19), [19])], [3 / 20, 18 / 20, 1 / 20])]
        for model_a, model_b, opt_a, opt_b, batches, rates in cases:
            full = build_trainer("fullmatch", model_a, opt_a, TrainerConfig(lambda_p=0.0, tau=0.5))
            fix = build_trainer("fixmatch", model_b, opt_b, TrainerConfig(tau=0.5))
            for batch, rate in zip(batches, rates):
                out_full, out_fix = full.step(batch), fix.step(batch)
                assert out_full.mask_rate == out_fix.mask_rate == rate
                assert out_full.total == out_fix.total
                assert out_full.l_penalty == 0.0
            pa, pb = params_of(model_a), params_of(model_b)
            for n in pa:
                assert np.array_equal(pa[n], pb[n]), n

    def test_uniform_softmax_entropy_is_ln_c(self):
        model = tiny_model(seed=24)
        for p in model.parameters():
            p.data = np.zeros_like(p.data)
        trainer = build_trainer("fullmatch", model, SGD(0.0), TrainerConfig())
        out = trainer.step(make_batch(np.random.default_rng(25), n_u=5))
        # uniform probs: every sample unmasked, entropy = ln C; 1/C >= low_tau
        # so no negative-learning contribution
        assert out.l_penalty == pytest.approx(np.log(C), abs=1e-6)

    def test_negative_learning_inactive_when_probs_above_low_tau(self):
        model = tiny_model(seed=26)
        for p in model.parameters():
            p.data = np.zeros_like(p.data)
        trainer = build_trainer("fullmatch", model, SGD(0.0), TrainerConfig(low_tau=0.05))
        out = trainer.step(make_batch(np.random.default_rng(27), n_u=4))
        assert out.l_penalty == pytest.approx(np.log(C), abs=1e-6)  # entropy only

    def test_penalty_matches_direct_definition(self):
        model = tiny_model(seed=28, bias=0)  # confident: low-prob classes exist
        cfg = TrainerConfig(tau=0.99999, low_tau=0.05, lambda_p=1.0)
        batch = make_batch(np.random.default_rng(29), n_u=3)
        weak_probs = F.softmax(model.predict_logits(batch.x_unlabeled_weak[0]))
        logits_s = model.predict_logits(batch.x_unlabeled_strong).astype(np.float64)
        trainer = build_trainer("fullmatch", model, SGD(0.0), cfg)
        out = trainer.step(batch)

        log_p = logits_s - np.log(np.exp(logits_s).sum(axis=1, keepdims=True))
        p = np.exp(log_p)
        mask = weak_probs.max(axis=1) >= cfg.tau
        unmasked = ~mask
        entropy = float((-(p * log_p).sum(axis=1) * unmasked).sum() / max(unmasked.sum(), 1))
        low = weak_probs < cfg.low_tau
        neg = float((-np.log(np.maximum(1 - p, 1e-6)) * low).sum() / (3 * C))
        assert low.any()
        assert out.l_penalty == pytest.approx(entropy + neg, abs=1e-5)


class TestAdmittedStrongRows:
    """Without FullMatch's penalty, a thresholded step forwards only the
    strong rows its mask admits, in one forward padded with zero rows to a
    multiple of 8."""

    @pytest.mark.parametrize("name", ["fixmatch", "flexmatch"])
    @pytest.mark.parametrize("rows", [[5], list(range(8)), [0, 2, 3, 7, 8, 9, 11, 13, 14, 17, 19], list(range(20))],
                             ids=["k1", "k8", "k11", "k20"])
    def test_strong_forward_is_the_admitted_rows(self, monkeypatch, name, rows):
        batch = gated_batch(np.random.default_rng(50), rows)
        trainer = build_trainer(name, gated_model(seed=51), SGD(0.1), TrainerConfig())
        (x,) = strong_forwards(monkeypatch, trainer, batch)
        assert len(x) == -(-len(rows) // 8) * 8
        assert np.array_equal(x[:len(rows)], batch.x_unlabeled_strong[rows])
        assert not x[len(rows):].any()

    @pytest.mark.parametrize("name", ["fixmatch", "flexmatch", "fullmatch"])
    def test_all_zero_mask_makes_no_strong_forward(self, monkeypatch, name):
        batch = gated_batch(np.random.default_rng(52), [])
        cfg = TrainerConfig(lambda_p=0.0)
        trainer = build_trainer(name, gated_model(seed=53), SGD(0.1), cfg)
        assert strong_forwards(monkeypatch, trainer, batch) == []

    def test_fullmatch_penalty_keeps_one_forward_of_every_strong_row(self, monkeypatch):
        batch = gated_batch(np.random.default_rng(54), [1, 4, 6])
        trainer = build_trainer("fullmatch", gated_model(seed=55), SGD(0.1), TrainerConfig(lambda_p=0.5))
        (x,) = strong_forwards(monkeypatch, trainer, batch)
        assert np.array_equal(x, batch.x_unlabeled_strong)

    @pytest.mark.parametrize("name", ["fixmatch", "flexmatch"])
    def test_step_equals_forwarding_every_strong_row(self, name):
        # the masked cross-entropy over all n_u rows, unadmitted rows weighed
        # 0, differs from the admitted-row step by float32 rounding alone
        spec = ModelSpec((1, SIZE, SIZE), C, (Conv2d(4, 3, padding=1), ReLU(), MaxPool2d(2), Flatten(), Dense(C)))
        cfg = TrainerConfig(lambda_u=1.5)
        n_u, rng = 20, np.random.default_rng(56)
        batch = make_batch(rng, n_u=n_u)
        mask = np.zeros(n_u, dtype=bool)
        mask[[0, 1, 2, 3, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 19]] = True
        raw = rng.integers(0, C, size=n_u)
        probs = F.one_hot(raw, C)

        def pseudo_labels(_batch):
            return probs, mask.astype(np.float32), raw, raw

        model, reference = Model(spec, seed=57), Model(spec, seed=57)
        trainer = build_trainer(name, model, SGD(0.1, 0.9), cfg)
        trainer._pseudo_labels = pseudo_labels
        tau = cfg.tau if trainer.status is None else trainer.status.thresholds()[raw]
        weights = (tau / cfg.tau * mask).astype(np.float32)
        out = trainer.step(batch)
        assert out.mask_rate == mask.mean()

        reference.zero_grads()
        l_sup = F.softmax_cross_entropy(reference.forward(Tensor(batch.x_labeled)), F.one_hot(batch.y_labeled, C))
        l_unsup = F.softmax_cross_entropy(reference.forward(Tensor(batch.x_unlabeled_strong)), F.one_hot(raw, C),
                                          weights=weights, normalizer=n_u)
        backward(reference, l_sup + l_unsup * cfg.lambda_u)
        SGD(0.1, 0.9).step(reference)
        assert out.l_unsup == pytest.approx(l_unsup.item(), rel=1e-5)
        pa, pb = params_of(model), params_of(reference)
        for n in pa:
            assert np.allclose(pa[n], pb[n], rtol=1e-5, atol=1e-7), n

    @pytest.mark.parametrize("name,built", [("fixmatch", "admitted"), ("flexmatch", "admitted"),
                                            ("fullmatch", "every"), ("mixmatch", "none"), ("supervised", "none")])
    def test_a_step_builds_only_the_strong_views_it_reads(self, name, built):
        keys = []

        def recorded(images, row_keys):
            keys.extend(row_keys)
            return images

        admitted, n_u = [1, 4, 6, 13], 20
        batch = replace(gated_batch(np.random.default_rng(58), admitted, n_u=n_u),
                        strong_mrs=(MetamorphicRelation("recorded", recorded),) * n_u, seed=7,
                        unlabeled_source_ids=tuple(range(100, 100 + n_u)))
        trainer = build_trainer(name, gated_model(seed=59), SGD(0.1), TrainerConfig(lambda_p=0.5))
        trainer.step(batch)
        rows = {"admitted": admitted, "every": list(range(n_u)), "none": []}[built]
        assert keys == [(7, 100 + i) for i in rows]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs for a second BLAS thread")
    def test_step_bytes_equal_at_one_and_two_blas_threads(self):
        # OpenBLAS splits the conv weight-gradient sgemm by thread, so its
        # bits depend on the thread count at most strong-forward row counts
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", THREAD_COUNT_PROBE], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            digests.append(json.loads(proc.stdout))
        one, two = digests
        steps = [(name, k) for name in ("fixmatch", "flexmatch") for k in range(1, 33)]
        assert len(one) == len(two) == len(steps)
        assert [step for step, a, b in zip(steps, one, two) if a != b] == []


class TestSharedInvariants:
    @pytest.mark.parametrize("name", ["fixmatch", "flexmatch", "mixmatch", "fullmatch", "supervised"])
    def test_decomposition_identity_every_step(self, name):
        split = subsample_and_split(make_digits(40, seed=30), 1.0, (0.3, 0.5, 0.2), seed=30)
        pol = base_policy(catalog_default("mnist"), seed=31)
        cfg = TrainerConfig(k_augmentations=2)
        model = Model(ModelSpec((1, 28, 28), 10, (Flatten(), Dense(10))), seed=32)
        trainer = build_trainer(name, model, SGD(0.05, 0.9), cfg, seed=33)
        spec = CycleDatasetSpec(split=split, policy=pol, batch_size=6, epochs=1, num_classes=10,
                                n_weak_views=trainer.n_weak_views)
        for batch in build_cycle_stream(spec):
            out = trainer.step(batch)
            expected = out.l_sup + out.lambda_u * out.l_unsup + out.lambda_p * out.l_penalty
            assert abs(out.total - expected) <= 1e-6

    @pytest.mark.parametrize("name", ["fixmatch", "flexmatch", "mixmatch", "fullmatch"])
    def test_unsupervised_term_weighed_by_lambda_u(self, name):
        # a low tau masks every weak view in, so the unsupervised term is
        # nonzero and a total that drops or divides by lambda_u differs
        cfg = TrainerConfig(lambda_u=2.5, tau=0.2, tau_min=0.2, k_augmentations=2)
        trainer = build_trainer(name, tiny_model(seed=42, bias=2), SGD(0.0), cfg, seed=43)
        out = trainer.step(make_batch(np.random.default_rng(44), k=trainer.n_weak_views))
        assert out.l_unsup > 1e-3
        assert out.total == pytest.approx(out.l_sup + 2.5 * out.l_unsup + cfg.lambda_p * out.l_penalty,
                                          rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("name", ["fixmatch", "flexmatch", "mixmatch", "fullmatch"])
    def test_empty_unlabeled_degenerates_to_supervised(self, name):
        rng = np.random.default_rng(34)
        batches = [empty_unlabeled_batch(rng) for _ in range(3)]
        model_a, model_b = tiny_model(seed=35), tiny_model(seed=35)
        ssl = build_trainer(name, model_a, SGD(0.1, 0.9), TrainerConfig(), seed=36)
        sup = build_trainer("supervised", model_b, SGD(0.1, 0.9), TrainerConfig(), seed=36)
        for b in batches:
            out = ssl.step(b)
            sup.step(b)
            assert out.total == out.l_sup
        pa, pb = params_of(model_a), params_of(model_b)
        for n in pa:
            assert np.array_equal(pa[n], pb[n]), (name, n)

    @pytest.mark.parametrize("name", ["fixmatch", "flexmatch", "mixmatch", "fullmatch", "supervised"])
    def test_batch_without_samples_rejected_naming_the_trainer(self, name):
        trainer = build_trainer(name, tiny_model(seed=35), SGD(0.1), TrainerConfig())
        with pytest.raises(ValidationError, match=f"^{name} step received no labeled samples$"):
            trainer.step(empty_unlabeled_batch(np.random.default_rng(34), n_l=0))

    @pytest.mark.parametrize("name", ["fixmatch", "flexmatch", "mixmatch", "fullmatch"])
    def test_unlabeled_rows_without_a_weighted_term_rejected_naming_the_trainer(self, name):
        # no labeled rows and every unlabeled weight 0: the step has no loss
        # term, and it raises before any SGD step
        model = tiny_model(seed=45, bias=2)
        before = params_of(model)
        trainer = build_trainer(name, model, SGD(0.1), TrainerConfig(lambda_u=0.0, lambda_p=0.0))
        batch = make_batch(np.random.default_rng(46), n_l=0, k=trainer.n_weak_views)
        with pytest.raises(ValidationError,
                           match=f"^{name} step received no labeled samples and no unlabeled term of nonzero weight$"):
            trainer.step(batch)
        after = params_of(model)
        assert all(np.array_equal(before[n], after[n]) for n in before)

    @pytest.mark.parametrize("name", ["fixmatch", "flexmatch", "fullmatch"])
    def test_mask_rate_is_exact_fraction(self, name):
        # pixel 0 drives class 0's logit: 7 of 20 weak views are confident and
        # the rest see a uniform softmax; 7/20 has no exact float32 value
        model = tiny_model(seed=37)
        w = np.zeros_like(model._params["1.weight"].data)
        w[0, 0] = 10.0
        model._params["1.weight"].data = w
        model._params["1.bias"].data = np.zeros_like(model._params["1.bias"].data)
        batch = make_batch(np.random.default_rng(38), n_u=20)
        batch.x_unlabeled_weak[...] = 0.0
        batch.x_unlabeled_weak[0, :7, 0, 0, 0] = 1.0
        trainer = build_trainer(name, model, SGD(0.0), TrainerConfig())
        assert trainer.step(batch).mask_rate == 7 / 20

    @pytest.mark.parametrize("name", ["fixmatch", "flexmatch", "mixmatch", "fullmatch", "supervised"])
    def test_record_holds_losses_only_and_pseudo_mask_gives_mask_rate(self, name):
        model = tiny_model(seed=39)  # 4 of the 6 weak views clear tau = tau_min = 0.2
        cfg = TrainerConfig(tau=0.2, tau_min=0.2, k_augmentations=2)
        trainer = build_trainer(name, model, SGD(0.0), cfg, seed=40)
        out = trainer.step(make_batch(np.random.default_rng(41), k=trainer.n_weak_views))
        assert list(out.to_record()) == ["l_sup", "l_unsup", "l_penalty", "total", "mask_rate"]
        if name in ("fixmatch", "flexmatch", "fullmatch"):
            assert sorted(out.pseudo) == ["mapped", "mask", "raw"]
            assert out.pseudo["mask"].mean() == out.mask_rate == 4 / 6
        else:
            assert sorted(out.pseudo) == (["guessed"] if name == "mixmatch" else [])

    def test_loss_breakdown_validates(self):
        with pytest.raises(ValidationError):
            LossBreakdown(l_sup=1.0, l_unsup=0.5, l_penalty=0.0, total=99.0,
                          mask_rate=0.5, lambda_u=1.0, lambda_p=0.0)
        with pytest.raises(ValidationError):
            LossBreakdown(l_sup=-1.0, l_unsup=0.0, l_penalty=0.0, total=-1.0,
                          mask_rate=0.0, lambda_u=1.0, lambda_p=0.0)

    def test_config_invariants(self):
        # each message starts with the field's name, which is also its config key
        bad = [({"tau": 0.0}, "tau"), ({"lambda_u": -0.1}, "lambda_u"), ({"lambda_p": -0.1}, "lambda_p"),
               ({"tau_min": 0.99}, "tau_min"), ({"low_tau": 0.95, "tau": 0.95}, "low_tau"),
               ({"k_augmentations": 0}, "k_augmentations"), ({"temperature": 0.0}, "temperature"),
               ({"alpha": float("nan")}, "alpha"), ({"alpha": 0.0}, "alpha")]
        for kwargs, key in bad:
            with pytest.raises(ValidationError, match=f"^{key}: "):
                TrainerConfig(**kwargs)

    def test_unknown_trainer_rejected(self):
        with pytest.raises(ValidationError):
            build_trainer("noisy-student", tiny_model(), SGD(0.1), TrainerConfig())
