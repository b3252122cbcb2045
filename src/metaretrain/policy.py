"""Per-cycle augmentation policies and the batch stream they generate.

Three modes mirror the retraining techniques: base (stock weak/strong pools,
ignores test outcomes), adaptive (previous cycle's failed relations become the
strong pool), and static (catalog singles as weak, ordered pairs of distinct
relations as strong, each pool sampled uniformly).

A cycle's stream is generated one batch at a time, every epoch in order: each
batch holds an augmented labeled part (labels remapped through the applied
relation) and weak/strong views of the unlabeled part together with each
strong relation's label-map table, which trainers use to remap pseudo-labels.
A spec for a trainer that reads no strong views (MixMatch, supervised) gives
a stream without them: each strong relation is still drawn, so every other
byte of the batch is the same, but none is applied, and the strong fields are
empty.
Each view's samples are transformed one relation at a time, every sample a
relation was drawn for in one call, and put back in draw order.
The stream keeps no batch it has yielded. Everything is a pure function of
(policy, split, cycle index, epoch), so iterating a stream again, or
rebuilding it, always yields bitwise-identical batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .data import DatasetSplit, Samples, to_model_input
from .errors import ValidationError
from .relations import IDENTITY, LABEL_PRESERVING, compose, label_map_array


def _uniform_cdf(n: int) -> np.ndarray:
    """The CDF `rng.choice(n, p=np.full(n, 1 / n))` searches. `_draw` through
    it gives that call's index and leaves the RNG in the same state, so seeded
    streams keep their draws while the CDF is built once per pool."""
    cdf = np.full(n, 1.0 / n).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray) -> int:
    return int(cdf.searchsorted(rng.random(), side="right"))


@dataclass(frozen=True)
class AugmentationPolicy:
    mode: str  # base | adaptive | static
    weak_pool: tuple
    strong_pool: tuple
    seed: int
    fallback_used: bool = False

    def __post_init__(self):
        if not self.weak_pool or not self.strong_pool:
            raise ValidationError("augmentation pools must be non-empty after fallback resolution")

    def to_log_dict(self) -> dict:
        return {
            "mode": self.mode,
            "weak_pool": [mr.id for mr in self.weak_pool],
            "strong_pool": [mr.id for mr in self.strong_pool],
            "seed": self.seed,
            "fallback_used": self.fallback_used,
        }


def base_pools(catalog) -> tuple:
    """Stock pools: mild transforms as weak, label-preserving strong singles
    plus their ordered pairings as strong."""
    weak = [mr for mr in catalog if mr.strength == "weak"]
    singles = [mr for mr in catalog if mr.strength == "strong" and mr.kind == LABEL_PRESERVING]
    pairs = [compose([a, b]) for a, b in permutations(singles, 2)]
    return weak, singles + pairs


def base_policy(catalog, seed: int = 0) -> AugmentationPolicy:
    weak, strong = base_pools(catalog)
    return AugmentationPolicy(mode="base", weak_pool=tuple(weak), strong_pool=tuple(strong), seed=seed)


def adaptive_policy(failed, base_weak, base_strong, seed: int = 0) -> AugmentationPolicy:
    """Failed relations become the strong pool; empty failure set falls back to
    the base strong pool (flagged; the loop logs it)."""
    strong = list(dict.fromkeys(failed))  # first relation seen per id
    fallback = not strong
    if fallback:
        strong = list(base_strong)
    return AugmentationPolicy(
        mode="adaptive",
        weak_pool=tuple(base_weak),
        strong_pool=tuple(strong),
        seed=seed,
        fallback_used=fallback,
    )


def static_policy(catalog, seed: int = 0) -> AugmentationPolicy:
    """Catalog singles as weak, every ordered pair of distinct relations as
    strong: n * (n - 1) compositions, 90 on MNIST and 110 on CIFAR-10."""
    catalog = list(catalog)
    if len(catalog) < 2:
        raise ValidationError("static policy needs a catalog of at least 2 relations")
    strong = [compose(pair) for pair in permutations(catalog, 2)]
    return AugmentationPolicy(mode="static", weak_pool=tuple(catalog), strong_pool=tuple(strong), seed=seed)


# -- stream construction -------------------------------------------------------


@dataclass(frozen=True)
class CycleDatasetSpec:
    split: DatasetSplit
    policy: AugmentationPolicy
    batch_size: int
    epochs: int
    num_classes: int
    n_weak_views: int = 1
    strong_views: bool = True  # the trainer's reads_strong_views
    cycle_index: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValidationError("batch_size must be positive")
        if self.epochs < 1:
            raise ValidationError("epochs must be at least 1")
        if self.n_weak_views < 1:
            raise ValidationError("n_weak_views must be at least 1")
        if not self.split.labeled and not self.split.unlabeled:
            raise ValidationError("split has neither labeled nor unlabeled samples")


@dataclass(frozen=True)
class Batch:
    x_labeled: np.ndarray  # [bl,C,H,W] float32, augmented and normalized
    y_labeled: np.ndarray  # [bl] int64, remapped through the applied relation
    x_unlabeled_weak: np.ndarray  # [K,bu,C,H,W]; bu is the batch's unlabeled count
    x_unlabeled_strong: np.ndarray  # [bu,C,H,W], or [0,C,H,W] in a stream without strong views
    strong_label_maps: np.ndarray  # [bu,num_classes] int64 lookup tables, or [0,num_classes]
    labeled_mr_ids: tuple = ()
    strong_mr_ids: tuple = ()  # one per strong view, () without them
    labeled_source_ids: tuple = ()
    unlabeled_source_ids: tuple = ()

    @property
    def n_unlabeled(self) -> int:
        return self.x_unlabeled_weak.shape[1]


@dataclass(frozen=True)
class CycleStream:
    """A cycle's batches, every epoch in order, each built when it is asked
    for. No yielded batch is kept, so a consumer that drops each batch after
    its step holds one at a time."""

    spec: CycleDatasetSpec
    steps_per_epoch: int

    @property
    def batches(self):
        """A fresh generator over every batch; each access yields the same
        batches, because they are a pure function of the spec."""
        return _generate_batches(self.spec, self.steps_per_epoch)

    def __iter__(self):
        return self.batches

    def __len__(self):
        return self.steps_per_epoch * self.spec.epochs


def _weak_candidates(policy: AugmentationPolicy) -> tuple:
    """Weak views feed pseudo-labeling, so only label-preserving weak relations
    qualify; falls back to the identity relation when none do."""
    usable = [mr for mr in policy.weak_pool if mr.kind == LABEL_PRESERVING]
    return tuple(usable) if usable else (IDENTITY,)


def build_cycle_stream(spec: CycleDatasetSpec) -> CycleStream:
    """The cycle's stream; nothing is drawn or transformed until it is iterated."""
    steps = max(math.ceil(len(spec.split.labeled) / spec.batch_size),
                math.ceil(len(spec.split.unlabeled) / spec.batch_size))
    return CycleStream(spec=spec, steps_per_epoch=steps)


def _views(mrs, samples: Samples, seed: int) -> np.ndarray:
    """uint8 [len(mrs),C,H,W]: row i is row i of `samples` transformed by
    mrs[i]; one transform call per relation, each row keeping its own bits."""
    groups = {}  # relation -> its rows
    for i, mr in enumerate(mrs):
        groups.setdefault(mr, []).append(i)
    out = np.empty((len(mrs),) + samples.pixels.shape[1:], dtype=np.uint8)
    for mr, rows in groups.items():
        group = samples.take(rows)
        out[rows] = mr.transform(group.pixels, group.keys(seed))
    return out


def _generate_batches(spec: CycleDatasetSpec, steps: int):
    policy, seed = spec.policy, spec.policy.seed
    labeled, unlabeled = spec.split.labeled, spec.split.unlabeled
    bsz, n_views = spec.batch_size, spec.n_weak_views
    n_lab, n_unl = min(bsz, len(labeled)), min(bsz, len(unlabeled))
    weak_cdf = _uniform_cdf(len(policy.weak_pool))
    strong_cdf = _uniform_cdf(len(policy.strong_pool))
    weak_candidates = _weak_candidates(policy)
    strong_maps = np.stack([label_map_array(mr, spec.num_classes) for mr in policy.strong_pool])
    for epoch in range(spec.epochs):
        rng = np.random.default_rng((seed, spec.cycle_index, epoch))
        # an empty part's permutation is empty and draws nothing
        lab_order, unl_order = rng.permutation(len(labeled)), rng.permutation(len(unlabeled))
        for step in range(steps):
            base = step * bsz
            # seeded streams depend on the draw order: each labeled sample's
            # relation, then per unlabeled sample its weak views and its strong
            # relation; transforms draw nothing, so they run afterwards
            lab = labeled.take(lab_order.take(np.arange(base, base + n_lab), mode="wrap"))
            # labeled samples draw from both pools so non-label-preserving
            # strong relations reach supervised training with remapped labels
            lab_mrs = [policy.weak_pool[_draw(rng, weak_cdf)] if rng.random() < 0.5
                       else policy.strong_pool[_draw(rng, strong_cdf)] for _ in range(n_lab)]
            unl = unlabeled.take(unl_order.take(np.arange(base, base + n_unl), mode="wrap"))
            weak_mrs, strong_idx = [[] for _ in range(n_views)], []  # weak_mrs[view][sample]
            for _ in range(n_unl):
                for view in weak_mrs:
                    view.append(weak_candidates[rng.choice(len(weak_candidates))])
                strong_idx.append(_draw(rng, strong_cdf))
            if not spec.strong_views:
                strong_idx = []  # drawn for the draw order, never transformed
            strong_mrs = [policy.strong_pool[i] for i in strong_idx]
            # to_model_input is elementwise, so converting a stack gives each image's own bits
            yield Batch(
                x_labeled=to_model_input(_views(lab_mrs, lab, seed)),
                y_labeled=np.array([mr.label_map(y) for mr, y in zip(lab_mrs, lab.labels.tolist())], dtype=np.int64),
                x_unlabeled_weak=to_model_input(np.stack([_views(mrs, unl, seed) for mrs in weak_mrs])),
                x_unlabeled_strong=to_model_input(_views(strong_mrs, unl, seed)),
                strong_label_maps=strong_maps[np.array(strong_idx, dtype=np.intp)],
                labeled_mr_ids=tuple(mr.id for mr in lab_mrs),
                strong_mr_ids=tuple(mr.id for mr in strong_mrs),
                labeled_source_ids=tuple(lab.source_ids.tolist()),
                unlabeled_source_ids=tuple(unl.source_ids.tolist()),
            )
