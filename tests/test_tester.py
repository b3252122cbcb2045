import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from util import table

from metaretrain.data import ImageSample, to_model_input
from metaretrain.errors import ValidationError
from metaretrain.metrics import table_logits, topn_accuracy
from metaretrain.nn import Dense, Flatten, Model, ModelSpec
from metaretrain.relations import IDENTITY, LABEL_PRESERVING, MetamorphicRelation, catalog_by_id, catalog_default
from metaretrain.tester import SuiteOutcome, partition, robustness


def score(model, mr, sources, **kwargs):
    """One relation's outcome, scored on the path robustness() takes."""
    return robustness(model, [mr], sources, **kwargs).outcomes[0]


def tiny_model(seed=0, size=8, classes=10):
    spec = ModelSpec(input_shape=(1, size, size), num_classes=classes,
                     layers=(Flatten(), Dense(classes)))
    return Model(spec, seed=seed)


def constant_model(size=8, classes=10, winner=3):
    model = tiny_model(seed=0, size=size, classes=classes)
    w = model._params["1.weight"]
    b = model._params["1.bias"]
    w.data = np.zeros_like(w.data)
    bias = np.zeros_like(b.data)
    bias[winner] = 1.0
    b.data = bias
    return model


def digit_samples(n, size=8, seed=0):
    rng = np.random.default_rng(seed)
    return table([ImageSample(rng.integers(0, 256, size=(1, size, size), dtype=np.uint8),
                              int(rng.integers(0, 10)), i) for i in range(n)], shape=(1, size, size))


def mnist_samples(n, seed=0):
    return digit_samples(n, size=28, seed=seed)


def oracle_bits(model, mrs, sources, seed):
    """Independent per-case loop, fresh forward per image: {mr id: bits}."""
    expected_bits = {}
    for mr in mrs:
        bits = []
        for s in sources:
            gx = mr.transform(s.pixels, (seed, s.source_id))
            pred_gx = int(np.argmax(model.predict_logits(to_model_input(gx)[None])[0]))
            if mr.kind == LABEL_PRESERVING:
                ref = int(np.argmax(model.predict_logits(to_model_input(s.pixels)[None])[0]))
                ref = mr.label_map(ref)
            else:
                ref = mr.label_map(s.label)
            bits.append(int(pred_gx == ref))
        expected_bits[mr.id] = bits
    return expected_bits


class TestRunCase:
    """One metamorphic test case: one relation on one source."""

    def test_constant_model_passes_label_preserving(self):
        model = constant_model(size=28)
        mrs = catalog_by_id("mnist")
        for s in mnist_samples(5):
            assert score(model, mrs["rot90"], table([s])).bits.tolist() == [1]

    def test_mapped_label_mismatch_fails(self):
        # constant model predicts 2 everywhere; rot180 maps a source-2 to 5
        model = constant_model(size=28, winner=2)
        mrs = catalog_by_id("mnist")
        s = mnist_samples(1)[0]
        s = ImageSample(s.pixels, 2, s.source_id)
        assert score(model, mrs["rot180"], table([s])).bits.tolist() == [0]

    def test_matches_brute_force_enumeration(self):
        model = tiny_model(seed=4, size=28)
        mrs = catalog_default("mnist")[:3]
        sources = mnist_samples(10, seed=5)
        report = robustness(model, mrs, sources, pass_threshold=0.8, seed=0)

        expected_bits = oracle_bits(model, mrs, sources, seed=0)
        for outcome in report.outcomes:
            assert outcome.bits.tolist() == expected_bits[outcome.mr.id]

    @settings(max_examples=25, deadline=None)
    @given(n_sources=st.integers(1, 6), data_seed=st.integers(0, 2**16), model_seed=st.integers(0, 2**16),
           tester_seed=st.integers(0, 2**16),
           picks=st.lists(st.sampled_from(sorted(catalog_by_id("mnist"))), min_size=1, unique=True))
    @example(n_sources=3, data_seed=0, model_seed=0, tester_seed=0, picks=["rot180", "rot15", "noise8"])
    def test_matches_oracle_on_random_sources_and_relations(self, n_sources, data_seed, model_seed,
                                                            tester_seed, picks):
        mrs = [catalog_by_id("mnist")[mr_id] for mr_id in picks]
        model = tiny_model(seed=model_seed, size=28)
        sources = mnist_samples(n_sources, seed=data_seed)
        report = robustness(model, mrs, sources, seed=tester_seed)

        expected_bits = oracle_bits(model, mrs, sources, seed=tester_seed)
        for outcome in report.outcomes:
            assert outcome.bits.tolist() == expected_bits[outcome.mr.id]
            assert outcome.mode == ("consistency" if outcome.mr.kind == LABEL_PRESERVING else "mapped_truth")


class TestCaseSelection:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 12), max_cases=st.integers(1, 14), seed=st.integers(0, 2**32 - 1))
    @example(n=12, max_cases=5, seed=0)
    def test_capped_cases_are_the_seeded_draw(self, n, max_cases, seed):
        # a relation whose transform records the (seed, source_id) key of every case it sees;
        # the tester hands it stacks, one key per image
        seen = []

        def recording(x, keys):
            seen.extend(keys)
            return IDENTITY.transform(x, keys)

        probe = MetamorphicRelation("probe", recording, strength="weak")
        mrs = [probe, catalog_by_id("mnist")["rot180"], catalog_by_id("mnist")["noise8"]]
        model = tiny_model(seed=n, size=28)
        samples = mnist_samples(n, seed=seed % 997)
        report = robustness(model, mrs, samples, max_cases=max_cases, seed=seed)

        rows = sorted(np.random.default_rng(seed).permutation(n)[:max_cases])
        assert seen == [(seed, int(i)) for i in rows]
        expected_bits = oracle_bits(model, mrs, [samples[i] for i in rows], seed=seed)
        for outcome in report.outcomes:
            assert outcome.bits.tolist() == expected_bits[outcome.mr.id]

    @pytest.mark.parametrize("max_cases", [0, -5])
    def test_max_cases_below_one_rejected_naming_field(self, max_cases):
        with pytest.raises(ValidationError, match="max_cases"):
            robustness(tiny_model(size=28), catalog_default("mnist"), mnist_samples(5), max_cases=max_cases)


class TestRunSuite:
    def test_all_pass(self):
        model = constant_model()
        out = score(model, IDENTITY, digit_samples(4), pass_threshold=0.8)
        assert out.success_rate == 1.0 and out.verdict == "passed"

    def test_half_rate_fails_at_0_8(self):
        out = SuiteOutcome(IDENTITY, np.array([1, 0, 1, 0], dtype=np.int8), 0.5, "failed", "consistency")
        assert out.success_rate == np.mean(out.bits)
        model = constant_model()
        # craft cases where rate is deterministic 1.0, then check threshold logic directly
        full = score(model, IDENTITY, digit_samples(4), pass_threshold=0.8)
        assert full.verdict == "passed"

    def test_zero_threshold_always_passes(self):
        model = tiny_model(seed=9)
        mrs = catalog_by_id("cifar10")
        s = digit_samples(6, seed=3)
        out = score(model, IDENTITY, s, pass_threshold=0.0)
        assert out.verdict == "passed"

    def test_threshold_one_passes_only_a_perfect_suite(self):
        # every model is perfect on the identity; this one scores 10 of 12 on contrast_up
        relations = [IDENTITY, catalog_by_id("mnist")["contrast_up"]]
        verdicts = {}
        for threshold in (0.8, 1.0):
            report = robustness(tiny_model(seed=2, size=28), relations, mnist_samples(12, seed=5),
                                pass_threshold=threshold)
            verdicts[threshold] = [(o.mr.id, o.success_rate, o.verdict) for o in report.outcomes]
        assert verdicts[0.8] == [("contrast_up", 10 / 12, "passed"), ("identity", 1.0, "passed")]
        assert verdicts[1.0] == [("contrast_up", 10 / 12, "failed"), ("identity", 1.0, "passed")]

    def test_empty_suite_rejected(self):
        with pytest.raises(ValidationError):
            score(constant_model(), IDENTITY, table([], shape=(1, 8, 8)))

    def test_bad_threshold_rejected(self):
        model = constant_model()
        with pytest.raises(ValidationError):
            score(model, IDENTITY, digit_samples(2), pass_threshold=1.5)

    def test_rate_equals_mean_bits(self):
        model = tiny_model(seed=2, size=28)
        mrs = catalog_by_id("mnist")
        out = score(model, mrs["noise8"], mnist_samples(9, seed=8))
        assert out.success_rate == pytest.approx(out.bits.mean())
        assert out.verdict == ("passed" if out.success_rate >= 0.8 else "failed")


class TestRobustness:
    def test_sr_is_global_case_average(self):
        model = tiny_model(seed=1, size=28)
        mrs = catalog_default("mnist")[:4]
        report = robustness(model, mrs, mnist_samples(5, seed=1))
        total_bits = np.concatenate([o.bits for o in report.outcomes])
        assert report.total_cases == 20
        assert report.sr_mt == pytest.approx(total_bits.mean())

    def test_arithmetic_two_suites(self):
        # two relations on 5 cases with 8 total passes -> 0.8; realized via constant model
        model = constant_model(size=28, winner=2)
        mrs = catalog_by_id("mnist")
        sources = mnist_samples(5, seed=4)
        # identity suite passes 5/5; rot180 mapped-truth passes where map(label)==2
        labels = [2, 5, 5, 5, 0]  # map -> 5,2,2,2,0; prediction 2 passes 3 cases
        sources = table(ImageSample(s.pixels, lab, s.source_id) for s, lab in zip(sources, labels))
        report = robustness(model, [IDENTITY, mrs["rot180"]], sources)
        assert report.total_cases == 10
        assert report.sr_mt == pytest.approx(0.8)  # 5 + 3 passes

    def test_perfect_model_on_identity(self):
        model = tiny_model(seed=3)
        assert robustness(model, [IDENTITY], digit_samples(8, seed=2)).sr_mt == 1.0

    def test_invariant_under_suite_reordering(self):
        model = tiny_model(seed=5, size=28)
        mrs = catalog_default("mnist")[:5]
        sources = mnist_samples(6, seed=6)
        a = robustness(model, mrs, sources)
        b = robustness(model, list(reversed(mrs)), sources)
        assert a.sr_mt == b.sr_mt
        assert [o.mr.id for o in a.outcomes] == sorted(mr.id for mr in mrs)
        assert [o.mr.id for o in b.outcomes] == [o.mr.id for o in a.outcomes]

    def test_deterministic_for_fixed_snapshot(self):
        model = tiny_model(seed=6, size=28)
        sources = mnist_samples(4, seed=7)
        a = robustness(model, catalog_default("mnist"), sources, seed=3)
        b = robustness(model, catalog_default("mnist"), sources, seed=3)
        assert a.to_dict() == b.to_dict()

    def test_empty_suites_rejected(self):
        with pytest.raises(ValidationError):
            robustness(tiny_model(), [], digit_samples(2))

    def test_each_source_predicted_once(self, monkeypatch):
        # 10 relations over k of N samples: one forward of the N-sample split,
        # which also gives top-N accuracy, plus 10 follow-up sets of k cases
        forwarded = []
        original = Model.predict_logits

        def counting(self, images, *args, **kwargs):
            forwarded.append(len(images))
            return original(self, images, *args, **kwargs)

        monkeypatch.setattr(Model, "predict_logits", counting)
        catalog = catalog_default("mnist")
        assert len(catalog) == 10
        n = 7
        samples = mnist_samples(n, seed=12)
        model = tiny_model(seed=11, size=28)
        for max_cases, k in ((None, n), (3, 3)):
            forwarded.clear()
            report = robustness(model, catalog, samples, max_cases=max_cases, topn=(1, 5))
            assert report.total_cases == 10 * k
            assert sum(forwarded) == n + 10 * k
            assert report.accuracy.topn == {1: topn_accuracy(model, samples, 1), 5: topn_accuracy(model, samples, 5)}

    def test_predict_converts_the_stack_like_each_image(self, monkeypatch):
        forwarded = []
        original = Model.predict_logits

        def capturing(self, images, *args, **kwargs):
            forwarded.append(np.array(images, copy=True))
            return original(self, images, *args, **kwargs)

        monkeypatch.setattr(Model, "predict_logits", capturing)
        images = [s.pixels for s in mnist_samples(9, seed=4)] + [np.zeros((1, 28, 28), np.uint8),
                                                                 np.full((1, 28, 28), 255, np.uint8)]
        model = tiny_model(seed=5, size=28)
        logits = table_logits(model, images)
        per_image = np.stack([to_model_input(x) for x in images])
        (got,) = forwarded
        assert got.dtype == per_image.dtype and got.tobytes() == per_image.tobytes()
        assert np.array_equal(logits, original(model, per_image))

    def test_constant_model_below_one_with_label_map(self):
        model = constant_model(size=28, winner=2)
        mrs = catalog_by_id("mnist")
        sources = table(ImageSample(s.pixels, 2, s.source_id) for s in mnist_samples(6, seed=9))
        report = robustness(model, [mrs["rot180"]], sources)
        assert report.sr_mt < 1.0

    def test_repeated_relation_rejected_naming_it(self):
        model = constant_model()
        mrs = catalog_by_id("mnist")
        with pytest.raises(ValidationError, match="repeated: identity$"):
            robustness(model, [IDENTITY, mrs["rot180"], IDENTITY], digit_samples(2))

    def test_relation_id_names_the_suite_in_the_report(self):
        mrs = catalog_default("mnist")[:3]
        report = robustness(constant_model(size=28), mrs, mnist_samples(4, seed=2))
        for record in report.to_dict()["suites"]:
            assert record["suite_id"] == record["mr_id"]
        assert [line.split()[0] for line in report.to_text().splitlines()[1:-1]] == sorted(m.id for m in mrs)


class TestPartition:
    def outcome(self, mr, verdict):
        return SuiteOutcome(mr, np.array([1], dtype=np.int8), 1.0, verdict, "consistency")

    def test_all_passed_gives_empty_failed(self):
        mrs = catalog_default("mnist")[:3]
        failed, passed = partition([self.outcome(m, "passed") for m in mrs])
        assert failed == []
        assert [m.id for m in passed] == [m.id for m in mrs]

    def test_disjoint_and_exhaustive(self):
        mrs = catalog_default("mnist")[:4]
        verdicts = ["passed", "failed", "passed", "failed"]
        failed, passed = partition([self.outcome(m, v) for m, v in zip(mrs, verdicts)])
        failed_ids = {m.id for m in failed}
        passed_ids = {m.id for m in passed}
        assert failed_ids.isdisjoint(passed_ids)
        assert failed_ids | passed_ids == {m.id for m in mrs}
        assert [m.id for m in failed] == [mrs[1].id, mrs[3].id]  # outcome order kept
