"""Metamorphic relations: image transformations paired with label mappings.

A relation is a pure pair (transform g, label_map h). A transform takes one
uint8 image [C,H,W] with its key, or a uint8 stack [N,C,H,W] with one key per
image; it preserves shape and clamps to [0,255]. A stack's result equals the
results of its images transformed one at a time, byte for byte, so callers
transform a block of images in one call. Stochastic transforms (noise) derive
each image's randomness from that image's key alone, so every application is
reproducible whatever stack it is part of; deterministic transforms ignore
the key. A composition is itself a relation, whose parts are listed in
`components`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import ImageSample
from .errors import ValidationError

LABEL_PRESERVING = "label_preserving"
NON_LABEL_PRESERVING = "non_label_preserving"


def identity_label_map(label: int) -> int:
    return label


def mnist_rot180_labelmap(label: int) -> int:
    """Digit identity after 180-degree rotation: 2<->5, 6<->9, rest fixed.

    The swap is an involution so that rotating twice maps every label back to
    itself.
    """
    if not 0 <= label <= 9:
        raise ValidationError(f"digit label out of range: {label}")
    return {2: 5, 5: 2, 6: 9, 9: 6}.get(label, label)


@dataclass(frozen=True, eq=False)
class MetamorphicRelation:
    """Input transformation g paired with label mapping h. A composition lists
    its parts in `components`; catalog relations have none. Relations are
    equal, and hash alike, when their ids are."""

    id: str
    transform: Callable  # (uint8 [C,H,W], key) or (uint8 [N,C,H,W], N keys) -> same shape
    label_map: Callable = identity_label_map
    kind: str = LABEL_PRESERVING
    strength: str = "strong"
    components: tuple = ()

    def __eq__(self, other):
        return isinstance(other, MetamorphicRelation) and other.id == self.id

    def __hash__(self):
        return hash(self.id)


def _per_image_keys(fn):
    """Lift `fn(stack, keys)`, which reads one key per image of a uint8 stack
    [N,C,H,W], to the transform contract: it also takes one [C,H,W] image
    with its key."""

    def transform(images, keys=()):
        if images.ndim == 3:
            return fn(images[None], [keys])[0]
        if len(keys) != len(images):
            raise ValidationError(f"a stack of {len(images)} images needs one key per image, got {len(keys)}")
        return fn(images, keys)

    return transform


def compose(mrs) -> MetamorphicRelation:
    """Ordered composition applied left to right; composed inputs contribute
    their components. Component `i` transforms each image under that image's
    `key + (i,)`."""
    parts = tuple(part for mr in mrs for part in (mr.components or (mr,)))
    if not parts:
        raise ValidationError("compose() requires a non-empty relation list")

    @_per_image_keys
    def transform(images, keys):
        for i, part in enumerate(parts):
            images = part.transform(images, [tuple(key) + (i,) for key in keys])
        return images

    def label_map(label):
        for part in parts:
            label = part.label_map(label)
        return label

    preserving = all(part.kind == LABEL_PRESERVING for part in parts)
    return MetamorphicRelation("+".join(part.id for part in parts), transform, label_map,
                               LABEL_PRESERVING if preserving else NON_LABEL_PRESERVING, "strong",
                               components=parts)


def apply(mr, sample: ImageSample, seed: int = 0):
    """Transform a sample; returns (image', expected_label')."""
    image = mr.transform(sample.pixels, (seed, sample.source_id))
    return image, mr.label_map(sample.label)


def label_map_array(mr, n_classes: int) -> np.ndarray:
    """h as a lookup table: out[c] = h(c)."""
    return np.array([mr.label_map(c) for c in range(n_classes)], dtype=np.int64)


# -- transform implementations -------------------------------------------------
# Each works on the last two axes, or elementwise, so it takes one image and a
# stack alike; noise reads its keys, and is lifted from its stack form.


def _clamp(img: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def _rot_right_angle(k: int):
    def transform(images, keys=()):
        if images.shape[-2] != images.shape[-1]:
            raise ValidationError("right-angle rotation requires square images")
        return np.ascontiguousarray(np.rot90(images, k, axes=(-2, -1)))

    return transform


# cos and sin of 15 degrees, the float64 values that `special.cosdg(15.0)` and
# `special.sindg(15.0)` return
_COS15, _SIN15 = 0.9659258262890683, 0.25881904510252074


def _rot15_table(plane: tuple) -> tuple:
    """Bilinear gather table of a 15-degree rotation about the plane centre:
    4 flat neighbour indices and 4 float64 weights per output pixel. Source
    coordinates, neighbour order and weights follow
    `ndimage.affine_transform(order=1, cval=0)` with the matrix and offset of
    `ndimage.rotate`; neighbours are clamped to the edge, and a pixel whose
    source lies outside `[0, n - 1]` on either axis gets zero weights."""
    matrix = np.array([[_COS15, _SIN15], [-_SIN15, _COS15]])
    center = (np.asarray(plane) - 1) / 2
    offset = center - matrix @ center
    rows, cols = np.indices(plane, dtype=np.float64)
    ends, axis_weights, outside = [], [], False
    for axis, n in enumerate(plane):
        coord = (offset[axis] + rows * matrix[axis, 0]) + cols * matrix[axis, 1]
        start = np.floor(coord)
        w0 = 1.0 - (coord - start)
        ends.append(np.clip([start, start + 1], 0, n - 1).astype(np.intp))
        axis_weights.append((w0, 1.0 - w0))
        outside = outside | (coord < 0) | (coord > n - 1)
    (ys, xs), (wys, wxs) = ends, axis_weights
    indices = np.stack([(y * plane[1] + x).ravel() for y in ys for x in xs])
    weights = np.stack([np.where(outside, 0.0, wy * wx).ravel() for wy in wys for wx in wxs])
    return indices, weights


def _rot15():
    """`ndimage.rotate(image, 15, axes=(2, 1), reshape=False, order=1)` on
    float32, then `_clamp`, equal byte for byte, in numpy alone. Each call
    gathers every channel plane of its image or stack through `_rot15_table`,
    built once per plane shape, sums the four weighted neighbours in float64
    and stores the sum as float32 before clamping, as the affine transform
    writes its float32 output."""
    tables = {}

    def transform(images, keys=()):
        plane = images.shape[-2:]
        if plane not in tables:
            tables[plane] = _rot15_table(plane)
        indices, weights = tables[plane]
        neighbours = np.take(images.reshape(-1, plane[0] * plane[1]), indices, axis=1) * weights
        rotated = np.add.reduce(neighbours, axis=1)  # in neighbour order, as affine_transform sums
        return _clamp(rotated.astype(np.float32).reshape(images.shape))

    return transform


def _hflip(images, keys=()):
    return np.ascontiguousarray(images[..., ::-1])


def _brightness(delta: float):
    def transform(images, keys=()):
        return _clamp(images.astype(np.float32) + delta * 255.0)

    return transform


def _contrast(factor: float):
    def transform(images, keys=()):
        return _clamp((images.astype(np.float32) - 127.5) * factor + 127.5)

    return transform


def _gaussian_noise(sigma: float):
    @_per_image_keys
    def transform(images, keys):
        # one generator per image, seeded by its key alone (0 for an empty key)
        noise = np.stack([np.random.default_rng(tuple(int(k) for k in key) if key else 0)
                          .normal(0.0, sigma, size=images.shape[1:]) for key in keys])
        return _clamp(images.astype(np.float32) + noise)

    return transform


def _translate(dy: int, dx: int):
    def transform(images, keys=()):
        out = np.zeros_like(images)
        h, w = images.shape[-2:]
        ys = slice(max(dy, 0), h + min(dy, 0))
        xs = slice(max(dx, 0), w + min(dx, 0))
        ys_src = slice(max(-dy, 0), h + min(-dy, 0))
        xs_src = slice(max(-dx, 0), w + min(-dx, 0))
        out[..., ys, xs] = images[..., ys_src, xs_src]
        return out

    return transform


IDENTITY = MetamorphicRelation(
    id="identity", transform=lambda images, keys=(): images, strength="weak"
)


def catalog_default(dataset_kind: str) -> list:
    """Stock relation catalog for a dataset family.

    For MNIST the 180-degree rotation carries the digit label map and the
    horizontal flip is omitted (mirrored digits are not valid digits). CIFAR
    object classes are treated as rotation- and flip-invariant.
    """
    dataset_kind = dataset_kind.lower()
    if dataset_kind not in ("mnist", "cifar10", "cifar100"):
        raise ValidationError(f"unknown dataset kind {dataset_kind!r}")

    rot180_map = mnist_rot180_labelmap if dataset_kind == "mnist" else identity_label_map
    rot180_kind = NON_LABEL_PRESERVING if dataset_kind == "mnist" else LABEL_PRESERVING
    catalog = [
        MetamorphicRelation("rot15", _rot15(), strength="weak"),
        MetamorphicRelation("translate_p3", _translate(3, 3), strength="weak"),
        MetamorphicRelation("translate_m3", _translate(-3, -3), strength="weak"),
        MetamorphicRelation("rot90", _rot_right_angle(1)),
        MetamorphicRelation("rot180", _rot_right_angle(2), label_map=rot180_map, kind=rot180_kind),
        MetamorphicRelation("brightness_up", _brightness(0.25)),
        MetamorphicRelation("brightness_down", _brightness(-0.25)),
        MetamorphicRelation("contrast_up", _contrast(1.25)),
        MetamorphicRelation("contrast_down", _contrast(0.75)),
        MetamorphicRelation("noise8", _gaussian_noise(8.0)),
    ]
    if dataset_kind != "mnist":
        catalog.insert(3, MetamorphicRelation("hflip", _hflip))
    return catalog


def catalog_by_id(dataset_kind: str) -> dict:
    return {mr.id: mr for mr in catalog_default(dataset_kind)}
