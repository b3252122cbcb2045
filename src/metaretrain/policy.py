"""Per-cycle augmentation policies and the batch stream they generate.

Three modes mirror the retraining techniques: base (stock weak/strong pools,
ignores test outcomes), adaptive (previous cycle's failed relations become the
strong pool), and static (catalog singles as weak, ordered compositions as
strong, each pool sampled uniformly).

The stream materializes, per epoch, batches holding an augmented labeled part
(labels remapped through the applied relation) and weak/strong views of the
unlabeled part together with each strong relation's label-map table, which
trainers use to remap pseudo-labels. Everything is a pure function of
(policy, split, cycle index, epoch), so rebuilding a stream always yields
bitwise-identical batches.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .data import DatasetSplit, to_model_input
from .errors import ValidationError
from .relations import IDENTITY, LABEL_PRESERVING, compose, label_map_array

log = logging.getLogger(__name__)


def _draw(rng: np.random.Generator, pool):
    # p= consumes the RNG differently from choice(n); seeded base/adaptive streams rely on it
    return pool[rng.choice(len(pool), p=np.full(len(pool), 1.0 / len(pool)))]


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

    def draw_strong(self, rng: np.random.Generator):
        return _draw(rng, self.strong_pool)

    def draw_labeled(self, rng: np.random.Generator):
        """Labeled samples draw from both pools so non-label-preserving strong
        relations reach supervised training with remapped labels."""
        return _draw(rng, self.weak_pool) if rng.random() < 0.5 else self.draw_strong(rng)

    def to_log_dict(self) -> dict:
        return {
            "mode": self.mode,
            "weak_pool": [mr.id for mr in self.weak_pool],
            "strong_pool": [mr.id for mr in self.strong_pool],
            "seed": self.seed,
            "fallback_used": self.fallback_used,
        }


def _dedup(mrs) -> list:
    seen = {}
    for mr in mrs:
        seen.setdefault(mr.id, mr)
    return list(seen.values())


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
    the base strong pool (flagged and logged)."""
    strong = _dedup(failed)
    fallback = not strong
    if fallback:
        strong = list(base_strong)
        log.info("adaptive policy: no failed relations, falling back to base strong pool")
    return AugmentationPolicy(
        mode="adaptive",
        weak_pool=tuple(base_weak),
        strong_pool=tuple(strong),
        seed=seed,
        fallback_used=fallback,
    )


def static_policy(catalog, k: int = 2, seed: int = 0) -> AugmentationPolicy:
    """Catalog singles as weak, all ordered k-tuples as strong."""
    catalog = list(catalog)
    if len(catalog) < 2:
        raise ValidationError("static policy needs a catalog of at least 2 relations")
    if k < 2:
        raise ValidationError("static compositions need k >= 2")
    strong = [compose(combo) for combo in permutations(catalog, k)]
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
    frozen_realizations: bool = False
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
    x_unlabeled_weak: np.ndarray  # [K,bu,C,H,W]
    x_unlabeled_strong: np.ndarray  # [bu,C,H,W]
    strong_label_maps: np.ndarray  # [bu,num_classes] int64 lookup tables
    labeled_mr_ids: tuple = ()
    strong_mr_ids: tuple = ()
    labeled_source_ids: tuple = ()
    unlabeled_source_ids: tuple = ()

    @property
    def n_unlabeled(self) -> int:
        return self.x_unlabeled_strong.shape[0]


@dataclass(frozen=True)
class CycleStream:
    batches: tuple  # all epochs concatenated
    steps_per_epoch: int

    def __iter__(self):
        return iter(self.batches)

    def __len__(self):
        return len(self.batches)


def _weak_candidates(policy: AugmentationPolicy) -> tuple:
    """Weak views feed pseudo-labeling, so only label-preserving weak relations
    qualify; falls back to the identity relation when none do."""
    usable = [mr for mr in policy.weak_pool if mr.kind == LABEL_PRESERVING]
    return tuple(usable) if usable else (IDENTITY,)


def build_cycle_stream(spec: CycleDatasetSpec) -> CycleStream:
    split, policy = spec.split, spec.policy
    labeled = list(split.labeled)
    unlabeled = list(split.unlabeled)
    bsz = spec.batch_size
    steps = max(
        math.ceil(len(labeled) / bsz) if labeled else 0,
        math.ceil(len(unlabeled) / bsz) if unlabeled else 0,
    )
    weak_candidates = _weak_candidates(policy)
    shape = labeled[0].pixels.shape if labeled else unlabeled[0].pixels.shape
    all_batches = []
    for epoch in range(spec.epochs):
        # frozen realizations: every epoch replays epoch 0's draws
        key = 0 if spec.frozen_realizations else epoch
        rng = np.random.default_rng((policy.seed, spec.cycle_index, key))
        lab_order = rng.permutation(len(labeled)) if labeled else np.array([], dtype=int)
        unl_order = rng.permutation(len(unlabeled)) if unlabeled else np.array([], dtype=int)
        for step in range(steps):
            xl, yl, l_ids, l_src = [], [], [], []
            if labeled:
                base = step * bsz
                take = min(bsz, len(labeled))
                for j in range(take):
                    s = labeled[lab_order[(base + j) % len(labeled)]]
                    mr = policy.draw_labeled(rng)
                    image = mr.transform(s.pixels, (policy.seed, s.source_id))
                    xl.append(to_model_input(image))
                    yl.append(mr.label_map(s.label))
                    l_ids.append(mr.id)
                    l_src.append(s.source_id)
            xw: list = [[] for _ in range(spec.n_weak_views)]
            xs, maps, s_ids, u_src = [], [], [], []
            if unlabeled:
                base = step * bsz
                take = min(bsz, len(unlabeled))
                for j in range(take):
                    s = unlabeled[unl_order[(base + j) % len(unlabeled)]]
                    for v in range(spec.n_weak_views):
                        weak_mr = weak_candidates[rng.choice(len(weak_candidates))]
                        xw[v].append(to_model_input(weak_mr.transform(s.pixels, (policy.seed, s.source_id))))
                    strong_mr = policy.draw_strong(rng)
                    xs.append(to_model_input(strong_mr.transform(s.pixels, (policy.seed, s.source_id))))
                    maps.append(label_map_array(strong_mr, spec.num_classes))
                    s_ids.append(strong_mr.id)
                    u_src.append(s.source_id)
            batch = Batch(
                x_labeled=np.stack(xl) if xl else np.zeros((0,) + shape, dtype=np.float32),
                y_labeled=np.array(yl, dtype=np.int64),
                x_unlabeled_weak=(
                    np.stack([np.stack(v) for v in xw])
                    if xs
                    else np.zeros((spec.n_weak_views, 0) + shape, dtype=np.float32)
                ),
                x_unlabeled_strong=np.stack(xs) if xs else np.zeros((0,) + shape, dtype=np.float32),
                strong_label_maps=(
                    np.stack(maps) if maps else np.zeros((0, spec.num_classes), dtype=np.int64)
                ),
                labeled_mr_ids=tuple(l_ids),
                strong_mr_ids=tuple(s_ids),
                labeled_source_ids=tuple(l_src),
                unlabeled_source_ids=tuple(u_src),
            )
            all_batches.append(batch)
    return CycleStream(batches=tuple(all_batches), steps_per_epoch=steps)
