import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaretrain.data import ImageSample
from metaretrain.errors import ValidationError
from metaretrain.relations import (
    IDENTITY,
    LABEL_PRESERVING,
    NON_LABEL_PRESERVING,
    MetamorphicRelation,
    apply,
    catalog_by_id,
    catalog_default,
    compose,
    _COS15,
    _SIN15,
    label_map_array,
    mnist_rot180_labelmap,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def sample(label=2, seed=0, size=28):
    rng = np.random.default_rng(seed)
    return ImageSample(rng.integers(0, 256, size=(1, size, size), dtype=np.uint8), label, seed)


class TestLabelMap:
    def test_paper_stated_swaps(self):
        assert mnist_rot180_labelmap(2) == 5
        assert mnist_rot180_labelmap(6) == 9

    def test_other_digits_fixed(self):
        for d in (0, 1, 3, 4, 7, 8):
            assert mnist_rot180_labelmap(d) == d

    def test_involution_on_all_digits(self):
        for d in range(10):
            assert mnist_rot180_labelmap(mnist_rot180_labelmap(d)) == d

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            mnist_rot180_labelmap(10)
        with pytest.raises(ValidationError):
            mnist_rot180_labelmap(-1)


class TestApply:
    def test_hflip_preserves_label(self):
        mrs = catalog_by_id("cifar10")
        rng = np.random.default_rng(1)
        s = ImageSample(rng.integers(0, 256, size=(3, 32, 32), dtype=np.uint8), 4, 1)
        image, label = apply(mrs["hflip"], s)
        assert label == 4
        assert np.array_equal(image, s.pixels[:, :, ::-1])

    def test_mnist_rot180_maps_2_to_5(self):
        mrs = catalog_by_id("mnist")
        _, label = apply(mrs["rot180"], sample(label=2))
        assert label == 5

    def test_mnist_rot180_maps_6_to_9(self):
        mrs = catalog_by_id("mnist")
        _, label = apply(mrs["rot180"], sample(label=6))
        assert label == 9

    def test_noise_is_seeded_per_sample(self):
        mrs = catalog_by_id("mnist")
        s1, s2 = sample(seed=1), sample(seed=2)
        a1, _ = apply(mrs["noise8"], s1, seed=7)
        a1_again, _ = apply(mrs["noise8"], s1, seed=7)
        b, _ = apply(mrs["noise8"], s2, seed=7)
        assert np.array_equal(a1, a1_again)
        assert not np.array_equal(a1, b)


class TestCompose:
    def test_double_rot180_is_identity_on_labels(self):
        mrs = catalog_by_id("mnist")
        double = compose([mrs["rot180"], mrs["rot180"]])
        for d in range(10):
            assert double.label_map(d) == d
        assert double.kind == NON_LABEL_PRESERVING  # components are non-preserving

    def test_double_flip_is_pixel_identity(self):
        mrs = catalog_by_id("cifar10")
        double = compose([mrs["hflip"], mrs["hflip"]])
        s = sample(size=32)
        img = ImageSample(np.repeat(s.pixels, 3, axis=0), s.label, s.source_id)
        out, _ = apply(double, img)
        assert np.array_equal(out, img.pixels)

    def test_rot90_twice_equals_rot180_pixels(self):
        mrs = catalog_by_id("mnist")
        twice = compose([mrs["rot90"], mrs["rot90"]])
        s = sample(seed=3)
        out_twice, _ = apply(twice, s)
        out_180, _ = apply(mrs["rot180"], s)
        assert np.array_equal(out_twice, out_180)

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            compose([])

    def test_composite_id_and_flattening(self):
        mrs = catalog_by_id("mnist")
        c = compose([mrs["rot90"], compose([mrs["rot180"], mrs["noise8"]])])
        assert c.id == "rot90+rot180+noise8"
        assert len(c.components) == 3

    def test_label_map_composition_is_associative(self):
        mrs = catalog_by_id("mnist")
        a, b, c = mrs["rot180"], mrs["rot90"], mrs["rot180"]
        left = compose([compose([a, b]), c])
        right = compose([a, compose([b, c])])
        for digit in range(10):
            assert left.label_map(digit) == right.label_map(digit)

    def test_composition_is_a_relation_listing_its_parts(self):
        mrs = catalog_by_id("mnist")
        c = compose([mrs["rot90"], mrs["noise8"]])
        assert isinstance(c, MetamorphicRelation)
        # the very objects given, so a wrapped catalog transform stays wrapped
        assert len(c.components) == 2
        assert c.components[0] is mrs["rot90"] and c.components[1] is mrs["noise8"]
        assert all(mr.components == () for mr in catalog_default("mnist") + [IDENTITY])

    def test_component_i_transforms_under_key_plus_i(self):
        noise8 = catalog_by_id("mnist")["noise8"]
        x, key = sample(seed=5).pixels, (3, 17)
        expected = noise8.transform(noise8.transform(x, key + (0,)), key + (1,))
        assert compose([noise8, noise8]).transform(x, key).tobytes() == expected.tobytes()
        assert compose([noise8]).transform(x, key).tobytes() == noise8.transform(x, key + (0,)).tobytes()

    @pytest.mark.parametrize("dataset", ["mnist", "cifar10"])
    def test_kind_is_preserving_iff_every_component_is_and_strength_strong(self, dataset):
        catalog = catalog_default(dataset)
        for a in catalog:
            for b in catalog:
                c = compose([a, b])
                preserving = a.kind == b.kind == LABEL_PRESERVING
                assert c.kind == (LABEL_PRESERVING if preserving else NON_LABEL_PRESERVING), c.id
                assert c.strength == "strong", c.id

    def test_equality_and_hash_agree_both_ways(self):
        mrs = catalog_by_id("mnist")
        rot90, single = mrs["rot90"], compose([mrs["rot90"]])
        pair, pair_again = compose([mrs["rot90"], mrs["rot180"]]), compose([mrs["rot90"], mrs["rot180"]])
        for a, b in [(rot90, single), (pair, pair_again), (rot90, catalog_by_id("mnist")["rot90"])]:
            assert a == b and b == a and hash(a) == hash(b)
            assert len({a, b}) == len({b, a}) == 1
        assert rot90 != pair and pair != rot90
        assert len({rot90, pair, single}) == 2


class TestCatalog:
    def test_mnist_rot180_is_non_label_preserving(self):
        mrs = catalog_by_id("mnist")
        assert mrs["rot180"].kind == NON_LABEL_PRESERVING

    def test_cifar_rot180_is_label_preserving(self):
        mrs = catalog_by_id("cifar10")
        assert mrs["rot180"].kind == LABEL_PRESERVING
        assert all(mrs["rot180"].label_map(c) == c for c in range(10))

    def test_mnist_catalog_excludes_hflip(self):
        assert "hflip" not in catalog_by_id("mnist")
        assert "hflip" in catalog_by_id("cifar100")

    def test_minimum_catalog_contents(self):
        ids = set(catalog_by_id("mnist"))
        required = {"rot15", "rot90", "rot180", "brightness_up", "brightness_down",
                    "contrast_up", "contrast_down", "noise8", "translate_p3", "translate_m3"}
        assert required <= ids

    @pytest.mark.parametrize("dataset,channels", [("mnist", 1), ("cifar10", 3)])
    def test_every_entry_keeps_shape_and_range(self, dataset, channels):
        size = 28 if dataset == "mnist" else 32
        rng = np.random.default_rng(11)
        s = ImageSample(rng.integers(0, 256, size=(channels, size, size), dtype=np.uint8), 3, 11)
        for mr in catalog_default(dataset):
            image, label = apply(mr, s, seed=5)
            assert image.shape == s.pixels.shape, mr.id
            assert image.dtype == np.uint8, mr.id
            assert 0 <= label < (10 if dataset != "cifar100" else 100), mr.id

    def test_kind_iff_identity_label_map(self):
        for dataset in ("mnist", "cifar10"):
            for mr in catalog_default(dataset):
                identity = all(mr.label_map(c) == c for c in range(10))
                assert identity == (mr.kind == LABEL_PRESERVING), mr.id

    def test_label_preserving_maps_are_identity(self):
        for mr in catalog_default("mnist"):
            if mr.kind == LABEL_PRESERVING:
                table = label_map_array(mr, 10)
                assert np.array_equal(table, np.arange(10))

    def test_identity_relation(self):
        s = sample()
        image, label = apply(IDENTITY, s)
        assert np.array_equal(image, s.pixels) and label == s.label

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValidationError):
            catalog_default("svhn")

    def test_rot15_shape_only_contract(self):
        # interpolated rotation: shape/range guaranteed, invertibility is not
        mrs = catalog_by_id("mnist")
        s = sample(seed=13)
        out, _ = apply(mrs["rot15"], s)
        assert out.shape == s.pixels.shape
        assert out.dtype == np.uint8


CATALOGS = {"mnist": catalog_default("mnist"), "cifar10": catalog_default("cifar10")}
IMAGE_SHAPES = {"mnist": (1, 28, 28), "cifar10": (3, 32, 32)}
# relations that push a uniform image of this value past the uint8 range
SATURATING = {0: {"brightness_down", "contrast_up"}, 255: {"brightness_up", "contrast_up"}}
# a dataset with one catalog relation or an ordered composition of up to three
relation_cases = st.sampled_from(sorted(CATALOGS)).flatmap(
    lambda ds: st.tuples(st.just(ds), st.lists(st.sampled_from(CATALOGS[ds]), min_size=1, max_size=3)))


def relation_of(parts):
    return parts[0] if len(parts) == 1 else compose(parts)


class TestRelationProperties:
    @settings(max_examples=150, deadline=None)
    @given(case=relation_cases, fill=st.sampled_from([None, 0, 255]), pixel_seed=st.integers(0, 2**32 - 1),
           key=st.tuples(st.integers(0, 2**31), st.integers(0, 2**31)))
    def test_transform_is_uint8_same_shape_and_keyed(self, case, fill, pixel_seed, key):
        dataset, parts = case
        mr = relation_of(parts)
        shape = IMAGE_SHAPES[dataset]
        if fill is None:
            image = np.random.default_rng(pixel_seed).integers(0, 256, size=shape, dtype=np.uint8)
        else:  # saturated images: brightness and contrast must clamp, not wrap
            image = np.full(shape, fill, dtype=np.uint8)
        before = image.tobytes()
        out = mr.transform(image, key)
        assert out.dtype == np.uint8 and out.shape == shape, mr.id
        assert mr.transform(image, key).tobytes() == out.tobytes(), mr.id
        assert image.tobytes() == before, mr.id
        if fill is not None and {c.id for c in parts} <= SATURATING[fill]:
            assert np.all(out == fill), mr.id

    @settings(max_examples=100, deadline=None)
    @given(case=relation_cases)
    def test_label_map_array_agrees_with_label_map(self, case):
        _, parts = case
        mr = relation_of(parts)
        table = label_map_array(mr, 10)
        assert table.dtype == np.int64 and table.shape == (10,)
        assert table.tolist() == [mr.label_map(c) for c in range(10)], mr.id

    @pytest.mark.parametrize("dataset", sorted(CATALOGS))
    @settings(max_examples=25, deadline=None)
    @given(pixel_seed=st.integers(0, 2**32 - 1))
    def test_rot180_is_an_involution(self, dataset, pixel_seed):
        rot180 = catalog_by_id(dataset)["rot180"]
        table = label_map_array(rot180, 10)
        assert np.array_equal(table[table], np.arange(10))
        image = np.random.default_rng(pixel_seed).integers(0, 256, size=IMAGE_SHAPES[dataset], dtype=np.uint8)
        assert np.array_equal(rot180.transform(rot180.transform(image)), image)

    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(st.integers(1, 3), st.integers(1, 40), st.integers(1, 40)),
           pixel_seed=st.integers(0, 2**32 - 1))
    def test_rot15_equals_ndimage_rotate(self, shape, pixel_seed):
        image = np.random.default_rng(pixel_seed).integers(0, 256, size=shape, dtype=np.uint8)
        expected = ndimage_rot15(image)
        for dataset in sorted(CATALOGS):
            out = catalog_by_id(dataset)["rot15"].transform(image)
            assert out.dtype == np.uint8 and out.tobytes() == expected.tobytes(), dataset


STACK_SHAPES = {"mnist": (1, 28, 28), "cifar10": (3, 32, 32), "cifar100": (3, 32, 32)}
image_keys = st.tuples(st.integers(0, 2**31), st.integers(0, 2**31))


class TestStackTransforms:
    """A uint8 stack [N,C,H,W] with one key per image transforms to the
    images' own results, byte for byte."""

    @pytest.mark.parametrize("dataset", sorted(STACK_SHAPES))
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 70), pixel_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_stack_equals_each_image_alone(self, dataset, n, pixel_seed, data):
        # every catalog relation, alone and followed by one or two drawn parts
        catalog = catalog_default(dataset)
        tail = data.draw(st.lists(st.sampled_from(catalog), min_size=1, max_size=2))
        images = np.random.default_rng(pixel_seed).integers(0, 256, size=(n, *STACK_SHAPES[dataset]),
                                                            dtype=np.uint8)
        images[: n // 4] = 255  # saturated rows: clamping must not depend on the stack
        keys = data.draw(st.lists(image_keys, min_size=n, max_size=n))
        before = images.tobytes()
        for mr in [relation for head in catalog for relation in (head, compose([head, *tail]))]:
            out = mr.transform(images, keys)
            assert out.dtype == np.uint8 and out.shape == images.shape, mr.id
            assert images.tobytes() == before, mr.id
            for image, key, row in zip(images, keys, out):
                assert mr.transform(image, key).tobytes() == row.tobytes(), mr.id

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 70), pixel_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_noise8_row_depends_on_its_own_image_and_key_alone(self, n, pixel_seed, data):
        # the rows of a second stack: a permutation of the first, with some
        # rows replaced by other images under other keys
        noise8 = catalog_by_id("mnist")["noise8"]
        rng = np.random.default_rng(pixel_seed)
        images = rng.integers(0, 256, size=(n, 1, 28, 28), dtype=np.uint8)
        keys = data.draw(st.lists(image_keys, min_size=n, max_size=n, unique=True))
        out = noise8.transform(images, keys)
        order = data.draw(st.permutations(range(n)))
        replaced = set(data.draw(st.lists(st.integers(0, n - 1), max_size=n - 1)))
        others = rng.integers(0, 256, size=images.shape, dtype=np.uint8)
        other_keys = [(key[1], key[0] + 1) for key in keys]
        stack = np.stack([others[i] if j in replaced else images[i] for j, i in enumerate(order)])
        stack_keys = [other_keys[i] if j in replaced else keys[i] for j, i in enumerate(order)]
        again = noise8.transform(stack, stack_keys)
        for j, i in enumerate(order):
            if j not in replaced:
                assert again[j].tobytes() == out[i].tobytes()

    @pytest.mark.parametrize("ids", [["noise8"], ["rot90", "noise8"]])
    def test_stack_without_one_key_per_image_rejected(self, ids):
        mr = relation_of([catalog_by_id("mnist")[i] for i in ids])
        with pytest.raises(ValidationError, match="one key per image"):
            mr.transform(np.zeros((3, 1, 28, 28), np.uint8), [(0, 1), (0, 2)])


def ndimage_rot15(image):
    """The oracle: scipy's interpolated rotation, clamped as every relation clamps."""
    ndimage = pytest.importorskip("scipy.ndimage")
    rotated = ndimage.rotate(image.astype(np.float32), 15, axes=(2, 1), reshape=False, order=1)
    return np.clip(np.rint(rotated), 0, 255).astype(np.uint8)


class TestRot15Oracle:
    @pytest.mark.parametrize("dataset", sorted(CATALOGS))
    @pytest.mark.parametrize("fill", [None, 0, 255])
    def test_equals_ndimage_rotate_at_bench_shapes(self, dataset, fill):
        shape = IMAGE_SHAPES[dataset]
        if fill is None:
            image = np.random.default_rng(11).integers(0, 256, size=shape, dtype=np.uint8)
        else:
            image = np.full(shape, fill, dtype=np.uint8)
        rot15 = catalog_by_id(dataset)["rot15"]
        expected = ndimage_rot15(image).tobytes()
        # the first call builds the plane's table, the second reads it from the cache
        assert [rot15.transform(image).tobytes() for _ in range(2)] == [expected, expected]

    def test_cos_sin_literals_equal_special_cosdg_sindg(self):
        special = pytest.importorskip("scipy.special")
        assert _COS15 == special.cosdg(15.0)
        assert _SIN15 == special.sindg(15.0)


class TestNumpyOnlyRuntime:
    def test_cli_import_loads_no_scipy(self):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = ("import sys, metaretrain.cli; "
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                                check=True)
        assert result.stdout.strip() == "[]"

    def test_package_source_never_names_scipy(self):
        sources = sorted(SRC.rglob("*.py"))
        assert sources
        for path in sources:
            for number, line in enumerate(path.read_text().splitlines(), 1):
                assert "scipy" not in line, f"{path.relative_to(SRC)}:{number}: {line.strip()}"
