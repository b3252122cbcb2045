import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metaretrain.data import ImageSample, to_model_input
from metaretrain.errors import ValidationError
from metaretrain.nn import Dense, Flatten, Model, ModelSpec
from metaretrain.relations import IDENTITY, LABEL_PRESERVING, MetamorphicRelation, catalog_by_id, catalog_default
from metaretrain.tester import (
    SuiteOutcome,
    TestSuite,
    _predict,
    build_suites,
    partition,
    robustness,
)


def score(model, suite, **kwargs):
    """One suite's outcome, scored on the path robustness() takes."""
    return robustness(model, [suite], **kwargs).outcomes[0]


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
    return [ImageSample(rng.integers(0, 256, size=(1, size, size), dtype=np.uint8), int(rng.integers(0, 10)), i)
            for i in range(n)]


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
    """One metamorphic test case: a one-source suite."""

    def test_constant_model_passes_label_preserving(self):
        model = constant_model(size=28)
        mrs = catalog_by_id("mnist")
        for s in mnist_samples(5):
            suite = TestSuite(mr=mrs["rot90"], sources=(s,))
            assert score(model, suite).bits.tolist() == [1]

    def test_mapped_label_mismatch_fails(self):
        # constant model predicts 2 everywhere; rot180 maps a source-2 to 5
        model = constant_model(size=28, winner=2)
        mrs = catalog_by_id("mnist")
        s = mnist_samples(1)[0]
        s = ImageSample(s.pixels, 2, s.source_id)
        suite = TestSuite(mr=mrs["rot180"], sources=(s,))
        assert score(model, suite).bits.tolist() == [0]

    def test_matches_brute_force_enumeration(self):
        model = tiny_model(seed=4, size=28)
        mrs = catalog_default("mnist")[:3]
        sources = mnist_samples(10, seed=5)
        suites = build_suites(mrs, sources, seed=0)
        report = robustness(model, suites, pass_threshold=0.8, seed=0)

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
        report = robustness(model, build_suites(mrs, sources), seed=tester_seed)

        expected_bits = oracle_bits(model, mrs, sources, seed=tester_seed)
        for outcome in report.outcomes:
            assert outcome.bits.tolist() == expected_bits[outcome.mr.id]
            assert outcome.mode == ("consistency" if outcome.mr.kind == LABEL_PRESERVING else "mapped_truth")


class TestBuildSuites:
    def test_suites_share_one_source_tuple(self):
        suites = build_suites(catalog_default("mnist"), mnist_samples(5), max_cases=3)
        assert all(suite.sources is suites[0].sources for suite in suites)
        assert suites[0].n_cases == 3

    @pytest.mark.parametrize("max_cases", [0, -5])
    def test_max_cases_below_one_rejected_naming_field(self, max_cases):
        with pytest.raises(ValidationError, match="max_cases"):
            build_suites(catalog_default("mnist"), mnist_samples(5), max_cases=max_cases)


class TestRunSuite:
    def test_all_pass(self):
        model = constant_model()
        suite = TestSuite(mr=IDENTITY, sources=tuple(digit_samples(4)))
        out = score(model, suite, pass_threshold=0.8)
        assert out.success_rate == 1.0 and out.verdict == "passed"

    def test_half_rate_fails_at_0_8(self):
        out = SuiteOutcome(IDENTITY, np.array([1, 0, 1, 0], dtype=np.int8), 0.5, "failed", "consistency")
        assert out.success_rate == np.mean(out.bits)
        model = constant_model()
        # craft a suite where rate is deterministic 1.0, then check threshold logic directly
        suite = TestSuite(mr=IDENTITY, sources=tuple(digit_samples(4)))
        full = score(model, suite, pass_threshold=0.8)
        assert full.verdict == "passed"

    def test_zero_threshold_always_passes(self):
        model = tiny_model(seed=9)
        mrs = catalog_by_id("cifar10")
        s = digit_samples(6, seed=3)
        suite = TestSuite(mr=IDENTITY, sources=tuple(s))
        out = score(model, suite, pass_threshold=0.0)
        assert out.verdict == "passed"

    def test_empty_suite_rejected(self):
        with pytest.raises(ValidationError):
            TestSuite(mr=IDENTITY, sources=())

    def test_bad_threshold_rejected(self):
        model = constant_model()
        suite = TestSuite(mr=IDENTITY, sources=tuple(digit_samples(2)))
        with pytest.raises(ValidationError):
            score(model, suite, pass_threshold=1.5)

    def test_rate_equals_mean_bits(self):
        model = tiny_model(seed=2, size=28)
        mrs = catalog_by_id("mnist")
        suite = TestSuite(mr=mrs["noise8"], sources=tuple(mnist_samples(9, seed=8)))
        out = score(model, suite)
        assert out.success_rate == pytest.approx(out.bits.mean())
        assert out.verdict == ("passed" if out.success_rate >= 0.8 else "failed")


class TestRobustness:
    def test_sr_is_global_case_average(self):
        model = tiny_model(seed=1, size=28)
        mrs = catalog_default("mnist")[:4]
        suites = build_suites(mrs, mnist_samples(5, seed=1))
        report = robustness(model, suites)
        total_bits = np.concatenate([o.bits for o in report.outcomes])
        assert report.total_cases == 20
        assert report.sr_mt == pytest.approx(total_bits.mean())

    def test_arithmetic_two_suites(self):
        # two 5-case suites with 7 total passes -> 0.7; realized via constant model
        model = constant_model(size=28, winner=2)
        mrs = catalog_by_id("mnist")
        sources = mnist_samples(5, seed=4)
        # identity suite passes 5/5; rot180 mapped-truth passes where map(label)==2
        labels = [2, 5, 5, 5, 0]  # map -> 5,2,2,2,0; prediction 2 passes 3 cases
        sources = [ImageSample(s.pixels, lab, s.source_id) for s, lab in zip(sources, labels)]
        suites = [
            TestSuite(mr=IDENTITY, sources=tuple(sources)),
            TestSuite(mr=mrs["rot180"], sources=tuple(sources)),
        ]
        report = robustness(model, suites)
        assert report.total_cases == 10
        assert report.sr_mt == pytest.approx(0.8)  # 5 + 3 passes

    def test_perfect_model_on_identity(self):
        model = tiny_model(seed=3)
        suites = [TestSuite(mr=IDENTITY, sources=tuple(digit_samples(8, seed=2)))]
        assert robustness(model, suites).sr_mt == 1.0

    def test_invariant_under_suite_reordering(self):
        model = tiny_model(seed=5, size=28)
        mrs = catalog_default("mnist")[:5]
        suites = build_suites(mrs, mnist_samples(6, seed=6))
        a = robustness(model, suites)
        b = robustness(model, list(reversed(suites)))
        assert a.sr_mt == b.sr_mt
        assert [o.mr.id for o in a.outcomes] == sorted(mr.id for mr in mrs)
        assert [o.mr.id for o in b.outcomes] == [o.mr.id for o in a.outcomes]

    def test_deterministic_for_fixed_snapshot(self):
        model = tiny_model(seed=6, size=28)
        suites = build_suites(catalog_default("mnist"), mnist_samples(4, seed=7))
        a = robustness(model, suites, seed=3)
        b = robustness(model, suites, seed=3)
        assert a.to_dict() == b.to_dict()

    def test_empty_suites_rejected(self):
        with pytest.raises(ValidationError):
            robustness(tiny_model(), [])

    def test_each_source_predicted_once(self, monkeypatch):
        # 10 relations over N sources: 10 follow-up sets plus one shared source set
        forwarded = []
        original = Model.predict_logits

        def counting(self, images, *args, **kwargs):
            forwarded.append(len(images))
            return original(self, images, *args, **kwargs)

        monkeypatch.setattr(Model, "predict_logits", counting)
        catalog = catalog_default("mnist")
        assert len(catalog) == 10
        n = 7
        suites = build_suites(catalog, mnist_samples(n, seed=12))
        report = robustness(tiny_model(seed=11, size=28), suites)
        assert report.total_cases == 10 * n
        assert sum(forwarded) == 11 * n

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
        preds = _predict(model, images)
        per_image = np.stack([to_model_input(x) for x in images])
        (got,) = forwarded
        assert got.dtype == per_image.dtype and got.tobytes() == per_image.tobytes()
        assert np.array_equal(preds, np.argmax(original(model, per_image), axis=1))

    def test_source_sets_keyed_by_object_not_source_id(self):
        # same source ids, different pixels: each suite must use its own source predictions
        model = tiny_model(seed=13)
        a = digit_samples(6, seed=14)
        b = digit_samples(6, seed=15)
        preds = [np.argmax(model.predict_logits(np.stack([to_model_input(s.pixels) for s in x])), axis=1)
                 for x in (a, b)]
        assert (preds[0] != preds[1]).any()
        twin = MetamorphicRelation("identity_twin", IDENTITY.transform, strength="weak")
        suites = [TestSuite(mr=IDENTITY, sources=tuple(a)), TestSuite(mr=twin, sources=tuple(b))]
        assert robustness(model, suites).sr_mt == 1.0

    def test_constant_model_below_one_with_label_map(self):
        model = constant_model(size=28, winner=2)
        mrs = catalog_by_id("mnist")
        sources = [ImageSample(s.pixels, 2, s.source_id) for s in mnist_samples(6, seed=9)]
        suites = [TestSuite(mr=mrs["rot180"], sources=tuple(sources))]
        report = robustness(model, suites)
        assert report.sr_mt < 1.0

    def test_repeated_relation_rejected_naming_it(self):
        model = constant_model()
        mrs = catalog_by_id("mnist")
        sources = tuple(digit_samples(2))
        suites = [TestSuite(mr=mr, sources=sources) for mr in (IDENTITY, mrs["rot180"], IDENTITY)]
        with pytest.raises(ValidationError, match="repeated: identity$"):
            robustness(model, suites)

    def test_relation_id_names_the_suite_in_the_report(self):
        mrs = catalog_default("mnist")[:3]
        report = robustness(constant_model(size=28), build_suites(mrs, mnist_samples(4, seed=2)))
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
