import functools
import inspect
import typing
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import table

from metaretrain.data import ImageSample, subsample_and_split, to_model_input
from metaretrain import policy
from metaretrain.errors import ValidationError
from metaretrain.policy import (
    AugmentationPolicy,
    Batch,
    CycleDatasetSpec,
    adaptive_policy,
    base_policy,
    base_pools,
    _draw,
    _uniform_cdf,
    build_cycle_stream,
    static_policy,
)
from metaretrain.relations import IDENTITY, MetamorphicRelation, catalog_by_id, catalog_default
from metaretrain.synthdigits import make_digits


def mnist_split(n=60, seed=0, ratios=(0.2, 0.6, 0.2)):
    return subsample_and_split(make_digits(n, seed=seed), 1.0, ratios, seed=seed)


def assert_batches_equal(a, b):
    """Every Batch field equal: arrays in dtype, shape and value, ids as tuples."""
    for f in fields(Batch):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def identity_policy(seed=0):
    return AugmentationPolicy(mode="base", weak_pool=(IDENTITY,), strong_pool=(IDENTITY,), seed=seed)


def _adaptive_policy(catalog, seed):
    mrs = catalog_by_id("mnist")
    failed = [mrs[i] for i in ("rot15", "rot90", "translate_p3", "translate_m3", "noise8")]
    return adaptive_policy(failed, *base_pools(catalog), seed=seed)


POLICIES = {"base": base_policy, "static": static_policy, "adaptive": _adaptive_policy}


@functools.cache
def policy_batches(mode):
    """One epoch of a stream of the `mode` policy on the MNIST catalog, 8 unlabeled rows a batch."""
    pol = POLICIES[mode](catalog_default("mnist"), seed=14)
    spec = CycleDatasetSpec(split=mnist_split(40, ratios=(0.3, 0.5, 0.2)), policy=pol, batch_size=8,
                            epochs=1, num_classes=10)
    return list(build_cycle_stream(spec))


class TestAdaptivePolicy:
    def test_failed_set_becomes_strong_pool(self):
        mrs = catalog_by_id("mnist")
        weak, strong = base_pools(catalog_default("mnist"))
        pol = adaptive_policy([mrs["rot90"]], weak, strong)
        assert [m.id for m in pol.strong_pool] == ["rot90"]
        assert not pol.fallback_used

    def test_empty_failed_falls_back_and_flags(self):
        weak, strong = base_pools(catalog_default("mnist"))
        pol = adaptive_policy([], weak, strong)
        assert pol.fallback_used
        assert [m.id for m in pol.strong_pool] == [m.id for m in strong]

    def test_duplicates_deduplicated(self):
        mrs = catalog_by_id("mnist")
        weak, strong = base_pools(catalog_default("mnist"))
        pol = adaptive_policy([mrs["rot90"], mrs["rot90"]], weak, strong)
        assert len(pol.strong_pool) == 1


class TestStaticPolicy:
    def test_pair_enumeration(self):
        mrs = catalog_by_id("mnist")
        pol = static_policy([mrs["rot90"], mrs["rot180"]])
        assert {m.id for m in pol.strong_pool} == {"rot90+rot180", "rot180+rot90"}

    def test_seeded_draw_frequencies(self):
        mrs = catalog_by_id("mnist")
        pol = static_policy([mrs["rot90"], mrs["rot180"]], seed=3)
        split = mnist_split(250, ratios=(0.8, 0.2, 0.0))  # 200 labeled, 50 unlabeled
        spec = CycleDatasetSpec(split=split, policy=pol, batch_size=100, epochs=20, num_classes=10)
        strong = [mr.id for b in build_cycle_stream(spec) for mr in b.strong_mrs]
        assert len(strong) == 2000
        assert abs(strong.count("rot90+rot180") / 2000 - 0.5) <= 0.05
        # labeled draws: half from the weak pool (2 singles), half from the strong pool (2 pairs)
        labeled = [i for b in build_cycle_stream(spec) for i in b.labeled_mr_ids]
        assert len(labeled) == 4000
        for mr_id in ("rot90", "rot180", "rot90+rot180", "rot180+rot90"):
            assert abs(labeled.count(mr_id) / 4000 - 0.25) <= 0.04, mr_id

    @pytest.mark.parametrize("dataset,pairs", [("mnist", 90), ("cifar10", 110)])
    def test_strong_pool_is_every_ordered_pair_of_the_catalog(self, dataset, pairs):
        catalog = catalog_default(dataset)
        pol = static_policy(catalog)
        assert len(pol.strong_pool) == pairs == len(catalog) * (len(catalog) - 1)
        assert [m.id for m in pol.strong_pool] == [f"{a.id}+{b.id}" for a in catalog for b in catalog if a is not b]
        assert pol.weak_pool == tuple(catalog)

    def test_small_catalog_rejected(self):
        with pytest.raises(ValidationError):
            static_policy([IDENTITY])


class TestPolicyBasics:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            AugmentationPolicy(mode="base", weak_pool=(), strong_pool=(IDENTITY,), seed=0)

    def test_log_dict_fields(self):
        pol = base_policy(catalog_default("mnist"), seed=5)
        d = pol.to_log_dict()
        assert d["mode"] == "base" and d["seed"] == 5
        assert "rot15" in d["weak_pool"]
        assert any("+" in s for s in d["strong_pool"])  # includes compositions

    def test_base_strong_pool_is_label_preserving(self):
        _, strong = base_pools(catalog_default("mnist"))
        assert all(m.kind == "label_preserving" for m in strong)

    def test_every_annotation_resolves(self):
        # a name an annotation uses but the module does not import fails here
        for obj in vars(policy).values():
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == policy.__name__:
                typing.get_type_hints(obj)


class TestCycleStream:
    def test_identity_policy_reproduces_raw_batches(self):
        split = mnist_split(30, ratios=(1.0, 0.0, 0.0))
        spec = CycleDatasetSpec(split=split, policy=identity_policy(), batch_size=30,
                                epochs=1, num_classes=10)
        stream = build_cycle_stream(spec)
        assert len(stream) == 1
        batch = next(iter(stream))
        by_source = {s.source_id: s for s in split.labeled}
        for x, y, sid in zip(batch.x_labeled, batch.y_labeled, batch.labeled_source_ids):
            assert np.array_equal(x, to_model_input(by_source[sid].pixels))
            assert y == by_source[sid].label

    def test_labeled_six_under_rot180_emits_nine(self):
        split = mnist_split(40, ratios=(1.0, 0.0, 0.0))
        mrs = catalog_by_id("mnist")
        pol = AugmentationPolicy(mode="adaptive", weak_pool=(mrs["rot180"],),
                                 strong_pool=(mrs["rot180"],), seed=1)
        spec = CycleDatasetSpec(split=split, policy=pol, batch_size=40, epochs=1, num_classes=10)
        stream = build_cycle_stream(spec)
        by_source = {s.source_id: s.label for s in split.labeled}
        sixes = [(y, sid) for b in stream for y, sid in zip(b.y_labeled, b.labeled_source_ids)
                 if by_source[sid] == 6]
        assert sixes, "fixture must contain sixes"
        assert all(y == 9 for y, _ in sixes)

    def test_emitted_labels_match_label_map(self):
        split = mnist_split(50, ratios=(0.4, 0.4, 0.2))
        pol = base_policy(catalog_default("mnist"), seed=2)
        spec = CycleDatasetSpec(split=split, policy=pol, batch_size=8, epochs=2, num_classes=10)
        stream = build_cycle_stream(spec)
        mrs = {m.id: m for m in list(pol.weak_pool) + list(pol.strong_pool)}
        by_source = {s.source_id: s.label for s in split.labeled}
        checked = 0
        for batch in stream:
            for y, mr_id, sid in zip(batch.y_labeled, batch.labeled_mr_ids, batch.labeled_source_ids):
                assert y == mrs[mr_id].label_map(by_source[sid])
                checked += 1
        assert checked > 0

    def test_same_seed_identical_batches(self):
        split = mnist_split(50)
        pol = base_policy(catalog_default("mnist"), seed=7)
        spec = CycleDatasetSpec(split=split, policy=pol, batch_size=8, epochs=2, num_classes=10)
        a, b = build_cycle_stream(spec), build_cycle_stream(spec)
        assert len(a) == len(b)
        for ba, bb in zip(a, b):
            assert np.array_equal(ba.x_labeled, bb.x_labeled)
            assert np.array_equal(ba.y_labeled, bb.y_labeled)
            assert np.array_equal(ba.x_unlabeled_weak, bb.x_unlabeled_weak)
            assert np.array_equal(ba.x_unlabeled_strong, bb.x_unlabeled_strong)
            assert ba.strong_mrs == bb.strong_mrs

    def test_steps_per_epoch_covers_larger_subset(self):
        split = mnist_split(60, ratios=(0.1, 0.7, 0.2))  # 6 labeled, 42 unlabeled
        pol = base_policy(catalog_default("mnist"), seed=3)
        spec = CycleDatasetSpec(split=split, policy=pol, batch_size=8, epochs=1, num_classes=10)
        stream = build_cycle_stream(spec)
        assert stream.steps_per_epoch == int(np.ceil(42 / 8))
        seen = set()
        for batch in stream:
            seen.update(batch.unlabeled_source_ids)
        assert seen == {s.source_id for s in split.unlabeled}

    def test_unlabeled_views_are_paired_per_sample(self):
        split = mnist_split(40, ratios=(0.25, 0.5, 0.25))
        pol = base_policy(catalog_default("mnist"), seed=4)
        spec = CycleDatasetSpec(split=split, policy=pol, batch_size=8, epochs=1,
                                num_classes=10, n_weak_views=2)
        stream = build_cycle_stream(spec)
        for batch in stream:
            assert batch.x_unlabeled_weak.shape[0] == 2
            assert batch.x_unlabeled_weak.shape[1] == batch.n_unlabeled
            assert batch.strong_label_maps.shape == (batch.n_unlabeled, 10)

    def test_fresh_draws_differ_between_epochs(self):
        split = mnist_split(30)
        pol = base_policy(catalog_default("mnist"), seed=5)
        spec = CycleDatasetSpec(split=split, policy=pol, batch_size=8, epochs=2, num_classes=10)
        stream = build_cycle_stream(spec)
        per_epoch = stream.steps_per_epoch
        batches = list(stream)
        same = all(
            np.array_equal(batches[i].x_unlabeled_strong, batches[i + per_epoch].x_unlabeled_strong)
            for i in range(per_epoch)
        )
        assert not same

    def test_weak_views_for_pseudo_labels_are_label_preserving(self):
        mrs = catalog_by_id("mnist")
        pol = AugmentationPolicy(mode="static", weak_pool=(mrs["rot180"],),
                                 strong_pool=(mrs["rot90"],), seed=6)
        split = mnist_split(30, ratios=(0.0, 0.8, 0.2))
        spec = CycleDatasetSpec(split=split, policy=pol, batch_size=8, epochs=1, num_classes=10)
        stream = build_cycle_stream(spec)
        # weak pool has no label-preserving member; pseudo-label views fall back
        # to identity, i.e. the raw unlabeled images
        by_source = {s.source_id: s for s in split.unlabeled}
        for batch in stream:
            for v, sid in zip(batch.x_unlabeled_weak[0], batch.unlabeled_source_ids):
                assert np.array_equal(v, to_model_input(by_source[sid].pixels))

    def test_stream_depends_only_on_pools_seed_and_spec(self):
        catalog = catalog_default("mnist")[:4]
        static = static_policy(catalog, seed=9)
        plain = AugmentationPolicy(mode="base", weak_pool=static.weak_pool,
                                   strong_pool=static.strong_pool, seed=9)
        split = mnist_split(40, ratios=(0.3, 0.5, 0.2))
        a, b = (build_cycle_stream(CycleDatasetSpec(split=split, policy=pol, batch_size=8, epochs=2,
                                                    num_classes=10, n_weak_views=2))
                for pol in (static, plain))
        assert len(a) == len(b) > 0
        for ba, bb in zip(a, b):
            assert_batches_equal(ba, bb)

    def test_stream_never_reads_unlabeled_labels(self):
        split = mnist_split(40, ratios=(0.3, 0.5, 0.2))
        relabeled = replace(split, unlabeled=table(
            ImageSample(s.pixels, (s.label + 1) % 10, s.source_id) for s in split.unlabeled))
        catalog = catalog_default("mnist")
        for pol in (base_policy(catalog, seed=10), static_policy(catalog, seed=10)):
            a, b = (build_cycle_stream(CycleDatasetSpec(split=sp, policy=pol, batch_size=8, epochs=2,
                                                        num_classes=10, n_weak_views=2))
                    for sp in (split, relabeled))
            assert len(a) == len(b) > 0 and next(iter(a)).n_unlabeled > 0
            for ba, bb in zip(a, b):
                assert_batches_equal(ba, bb)

    def test_stream_is_built_one_batch_at_a_time(self):
        calls = []

        def counted(images, keys):
            calls.extend(keys)  # the stream hands it stacks, one key per image
            return images

        mr = MetamorphicRelation("counted", counted, strength="weak")
        pol = AugmentationPolicy(mode="base", weak_pool=(mr,), strong_pool=(mr,), seed=11)
        split = mnist_split(60, ratios=(0.2, 0.5, 0.3))  # 12 labeled, 30 unlabeled
        spec = CycleDatasetSpec(split=split, policy=pol, batch_size=8, epochs=2,
                                num_classes=10, n_weak_views=2)
        stream = build_cycle_stream(spec)
        assert calls == []
        batches = iter(stream)
        first = next(batches)
        # one batch: 8 labeled images, then 2 weak views of 8 unlabeled ones;
        # a strong view is built only for a row asked for
        assert len(calls) == 8 + 2 * 8
        assert len(calls) == first.x_labeled.shape[0] + 2 * first.n_unlabeled
        first.strong_views([5, 2])
        assert calls[-2:] == [(11, first.unlabeled_source_ids[5]), (11, first.unlabeled_source_ids[2])]
        assert len(stream) == 1 + sum(1 for _ in batches) == 2 * stream.steps_per_epoch

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_strong_views_of_any_rows_equal_those_rows_of_every_strong_view(self, data):
        batch = data.draw(st.sampled_from(policy_batches(data.draw(st.sampled_from(sorted(POLICIES))))))
        rows = data.draw(st.lists(st.integers(0, batch.n_unlabeled - 1), unique=True))  # any subset, any order
        views, every = batch.strong_views(rows), batch.x_unlabeled_strong
        assert every.shape == (batch.n_unlabeled, 1, 28, 28) and every.dtype == views.dtype == np.float32
        assert views.shape == every[rows].shape and views.tobytes() == every[rows].tobytes()

    def test_iterating_batches_twice_gives_equal_batches(self):
        split = mnist_split(40, ratios=(0.3, 0.5, 0.2))
        pol = static_policy(catalog_default("mnist"), seed=12)
        stream = build_cycle_stream(CycleDatasetSpec(split=split, policy=pol, batch_size=8, epochs=2,
                                                     num_classes=10, n_weak_views=2))
        first, second = list(stream.batches), list(stream.batches)
        assert len(first) == len(second) == len(stream) > 0
        for a, b in zip(first, second):
            assert_batches_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 150), seed=st.integers(0, 2**63), draws=st.integers(1, 5))
    def test_cdf_draw_matches_choice_with_uniform_p(self, n, seed, draws):
        cdf = _uniform_cdf(n)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            assert _draw(ours, cdf) == theirs.choice(n, p=np.full(n, 1.0 / n))
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_degenerate_spec_rejected(self):
        split = mnist_split(20)
        with pytest.raises(ValidationError):
            CycleDatasetSpec(split=split, policy=identity_policy(), batch_size=0, epochs=1, num_classes=10)
        empty = subsample_and_split(make_digits(20, seed=0), 1.0, (0.0, 0.0, 1.0), seed=0)
        with pytest.raises(ValidationError):
            CycleDatasetSpec(split=empty, policy=identity_policy(), batch_size=4, epochs=1, num_classes=10)
