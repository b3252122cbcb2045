"""Semi-supervised training steps sharing one interface.

Each trainer consumes a Batch (augmented labeled part plus weak/strong views
of the unlabeled part), builds its loss, runs one SGD step, and returns a
LossBreakdown. A trainer whose `reads_strong_views` is False gets batches
without strong views. Pseudo-labels are always produced from weak views without
gradient flow and remapped through the strong relation's label map before
entering any consistency loss. Skipped loss branches (zero weight, empty
batch) are omitted from the graph entirely, so degenerate runs reproduce a
plain supervised loop bit for bit. Zero-weight rows are omitted too: without
FullMatch's penalty, which reads every strong row, a thresholded step forwards
only the strong rows its mask admits, in one forward padded with zero rows of
weight 0 (see STRONG_ROW_MULTIPLE), so its cost follows its mask rate. A
non-finite value in a strong row the mask leaves out is therefore never
computed and does not abort the step; the labeled and weak-view forwards still
cover, and check, every row.

Implemented steps:
  * ThresholdedTrainer serves three names. FixMatch: confidence-thresholded
    pseudo-labels, masked cross-entropy. FlexMatch: the same step with
    per-class thresholds scaled by estimated learning status. FullMatch: the
    FixMatch step plus an entropy/negative-learning penalty.
  * MixMatch: sharpened K-view label guessing, from one forward over the
    stacked weak views, plus pairwise input mixing.
  * Trainer itself is the supervised step: labeled cross-entropy only
    (reference for degeneracy checks), and every trainer's loss on a batch
    without unlabeled rows.

FlexMatch here departs from Zhang et al. 2021 in four ways, each on purpose:
  1. Per-epoch reset. `ClassThresholds` counts from zero at every epoch start
     (`ThresholdedTrainer.on_epoch_start`) instead of keeping each unlabeled
     sample's latest prediction over the whole run. The status is then a
     function of the current epoch alone, so a run resumed at a cycle
     boundary reproduces its thresholds without checkpointing the counters,
     and the step needs no per-sample prediction table.
  2. Counting against the fixed tau, per prediction. sigma_c counts this
     epoch's weak-view predictions of class c with confidence >= tau (the
     configured tau_max). The paper's sigma also tests the fixed tau, not the
     moving tau_c (which would let a lowered threshold raise its own count),
     but with a strict > and once per sample, on its latest prediction. Here
     the test is >= like the mask's, and a sample drawn twice in an epoch
     counts twice, which spares the step any sample identity.
  3. Normalising by the max over classes. beta_c = sigma_c / max_c' sigma_c',
     mapped linearly and floored at tau_min. FlexMatch's warm-up divides by
     max(max sigma, N - sum sigma), with N the unlabeled pool size, which a
     step that sees only batches does not know; the floor keeps thresholds
     of not-yet-seen classes from falling to 0 at each epoch start.
  4. tau_c / tau_max sample weights instead of a 0/1 mask. A masked
     sample's loss is weighed by its class threshold over tau_max, so
     pseudo-labels admitted under a lowered threshold count for less. With a
     converged status (every tau_c == tau_max) the weights are the 0/1 mask
     and the step equals FixMatch bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .nn import Model, SGD, Tensor, backward
from .nn import functional as F
from .policy import Batch

TRAINER_NAMES = ("fixmatch", "flexmatch", "mixmatch", "fullmatch", "supervised")


@dataclass(frozen=True)
class TrainerConfig:
    lambda_u: float = 1.0  # unsupervised loss weight
    lambda_p: float = 0.5  # FullMatch penalty weight
    tau: float = 0.95  # confidence threshold (FlexMatch: tau_max)
    tau_min: float = 0.5  # FlexMatch per-class floor
    temperature: float = 0.5  # MixMatch sharpening
    alpha: float = 0.75  # MixMatch Beta parameter
    k_augmentations: int = 2  # MixMatch weak view count
    low_tau: float = 0.05  # FullMatch negative-learning threshold

    def __post_init__(self):
        """Each message starts with the field's name, which is also its config key."""
        for name in ("lambda_u", "lambda_p"):
            if not getattr(self, name) >= 0:
                raise ValidationError(f"{name}: loss weights must be non-negative, got {getattr(self, name)}")
        if not 0.0 < self.tau <= 1.0:
            raise ValidationError(f"tau: must be in (0, 1], got {self.tau}")
        if not 0.0 < self.tau_min <= self.tau:
            raise ValidationError(f"tau_min: must be in (0, tau], got {self.tau_min}")
        if not self.temperature > 0:
            raise ValidationError(f"temperature: must be positive, got {self.temperature}")
        if not self.alpha > 0:
            raise ValidationError(f"alpha: must be positive, got {self.alpha}")
        if self.k_augmentations < 1:
            raise ValidationError(f"k_augmentations: must be at least 1, got {self.k_augmentations}")
        if not self.low_tau < self.tau:
            raise ValidationError(f"low_tau: must be below tau, got {self.low_tau}")


@dataclass(frozen=True)
class LossBreakdown:
    RECORD_KEYS = ("l_sup", "l_unsup", "l_penalty", "total", "mask_rate")  # the step record's fields

    l_sup: float
    l_unsup: float
    l_penalty: float
    total: float
    mask_rate: float
    lambda_u: float
    lambda_p: float
    # the step's pseudo-label arrays: raw, mapped and mask (thresholded
    # trainers) or guessed (MixMatch); not part of the step record
    pseudo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for name in ("l_sup", "l_unsup", "l_penalty"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")
        if not 0.0 <= self.mask_rate <= 1.0:
            raise ValidationError("mask_rate must be in [0, 1]")
        expected = self.l_sup + self.lambda_u * self.l_unsup + self.lambda_p * self.l_penalty
        # absolute 1e-6 at ordinary loss magnitudes, relative for diverging runs
        if abs(self.total - expected) > 1e-6 * max(1.0, abs(self.total)):
            raise ValidationError(
                f"loss decomposition broken: total {self.total} vs components {expected}"
            )

    def to_record(self) -> dict:
        return {key: getattr(self, key) for key in self.RECORD_KEYS}


@dataclass
class ClassThresholds:
    """FlexMatch learning status: confident-prediction counters per class."""

    tau_max: float
    tau_min: float
    sigma: np.ndarray  # int64 [C]

    @staticmethod
    def fresh(n_classes: int, tau_max: float, tau_min: float) -> "ClassThresholds":
        return ClassThresholds(tau_max=tau_max, tau_min=tau_min, sigma=np.zeros(n_classes, dtype=np.int64))

    def thresholds(self) -> np.ndarray:
        """tau_c = max(tau_max * sigma_c / max(max_c' sigma_c', 1), tau_min)."""
        beta = self.sigma / max(int(self.sigma.max()), 1)
        return np.maximum(beta * self.tau_max, self.tau_min)

    def update(self, confident_classes: np.ndarray) -> None:
        np.add.at(self.sigma, confident_classes, 1)

    def reset(self) -> None:
        self.sigma[:] = 0


def mixmatch_mix(pair_a, pair_b, gamma):
    """MixUp with the mix kept closer to pair_a: gamma' = max(gamma, 1-gamma)."""
    x_i, y_i = pair_a
    x_j, y_j = pair_b
    gamma = np.asarray(gamma, dtype=np.float64)
    if np.any(gamma < 0) or np.any(gamma > 1):
        raise ValidationError("gamma must lie in [0, 1]")
    for y in (y_i, y_j):
        rows = np.atleast_2d(np.asarray(y, dtype=np.float64))
        if not np.allclose(rows.sum(axis=1), 1.0, atol=1e-6):
            raise ValidationError("mix labels must be probability rows summing to 1")
    g = np.maximum(gamma, 1.0 - gamma)
    gx = g.reshape((-1,) + (1,) * (np.ndim(x_i) - 1)) if np.ndim(gamma) else g
    gy = g.reshape((-1,) + (1,) * (np.ndim(y_i) - 1)) if np.ndim(gamma) else g
    x_mix = gx * np.asarray(x_i, dtype=np.float64) + (1.0 - gx) * np.asarray(x_j, dtype=np.float64)
    y_mix = gy * np.asarray(y_i, dtype=np.float64) + (1.0 - gy) * np.asarray(y_j, dtype=np.float64)
    return x_mix, y_mix


def sharpen(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Lower the entropy of probability rows via a temperature exponent."""
    p = np.asarray(probs, dtype=np.float64) ** (1.0 / temperature)
    return p / p.sum(axis=1, keepdims=True)


class Trainer:
    """The supervised step; a semi-supervised one overrides `_losses` for batches with unlabeled rows."""

    name = "supervised"
    n_weak_views = 1
    reads_strong_views = False  # True: the cycle stream carries strong views

    def __init__(self, model: Model, optimizer: SGD, cfg: TrainerConfig, num_classes: int, seed: int = 0):
        self.model = model
        self.optimizer = optimizer
        self.cfg = cfg
        self.num_classes = num_classes
        self.seed = seed

    def on_epoch_start(self, cycle: int, epoch: int) -> None:
        """Called before the first step of each epoch of each cycle."""

    def step(self, batch: Batch) -> LossBreakdown:
        self.model.zero_grads()
        total_t, parts = self._losses(batch) if batch.n_unlabeled else Trainer._losses(self, batch)
        total = total_t.item()  # an op output, so Tensor._make has checked it finite
        backward(self.model, total_t)
        self.optimizer.step(self.model)
        return LossBreakdown(
            l_sup=parts.get("l_sup", 0.0),
            l_unsup=parts.get("l_unsup", 0.0),
            l_penalty=parts.get("l_penalty", 0.0),
            total=total,
            mask_rate=parts.get("mask_rate", 0.0),
            lambda_u=self.cfg.lambda_u,
            lambda_p=self.cfg.lambda_p,
            pseudo=parts.get("pseudo", {}),
        )

    def _losses(self, batch: Batch):
        """(total loss tensor, parts: floats plus the "pseudo" arrays). Here the
        labeled cross-entropy alone, which `step` also uses for every trainer
        on a batch without unlabeled rows."""
        l_sup_t = self._supervised_loss(batch)
        if l_sup_t is None:
            raise ValidationError(f"{self.name} step received no labeled samples")
        return l_sup_t, {"l_sup": l_sup_t.item(), "mask_rate": 0.0}

    def _supervised_loss(self, batch: Batch):
        if batch.x_labeled.shape[0] == 0:
            return None
        targets = F.one_hot(batch.y_labeled, self.num_classes)
        return F.softmax_cross_entropy(self.model.forward(Tensor(batch.x_labeled)), targets)

    def _pseudo_labels(self, batch: Batch):
        """Confidence and mapped pseudo-labels from the first weak view (no grad)."""
        logits = self.model.predict_logits(batch.x_unlabeled_weak[0])
        probs = F.softmax(logits)
        conf = probs.max(axis=1)
        raw = probs.argmax(axis=1)
        mapped = np.take_along_axis(batch.strong_label_maps, raw[:, None], axis=1)[:, 0]
        return probs, conf, raw, mapped


def _plus(total_t, term_t):
    return term_t if total_t is None else total_t + term_t


# A forward of the admitted strong rows is padded to a multiple of this many
# rows. At most other row counts, OpenBLAS gives the conv weight gradient other
# bits at another thread count.
STRONG_ROW_MULTIPLE = 8


class ThresholdedTrainer(Trainer):
    """FixMatch's step: masked cross-entropy on the strong view against the
    confident weak-view pseudo-labels.

    `status` swaps the fixed tau for FlexMatch's per-class thresholds, and
    `penalty` adds FullMatch's term on the same strong-view logits.
    """

    reads_strong_views = True

    def __init__(self, model: Model, optimizer: SGD, cfg: TrainerConfig, num_classes: int,
                 seed: int = 0, *, name: str, status: ClassThresholds | None = None,
                 penalty: bool = False):
        super().__init__(model, optimizer, cfg, num_classes, seed=seed)
        self.name = name
        self.status = status
        self.penalty = penalty

    def on_epoch_start(self, cycle: int, epoch: int) -> None:
        if self.status is not None:
            self.status.reset()

    def _losses(self, batch: Batch):
        n_u = batch.n_unlabeled
        l_sup_t = self._supervised_loss(batch)
        total_t = l_sup_t
        probs_weak, conf, raw, mapped = self._pseudo_labels(batch)
        tau = self.cfg.tau if self.status is None else self.status.thresholds()[raw]
        mask = conf >= tau
        # per-class weighting normalized by tau_max, so a fixed tau (or a
        # converged status, all tau_c == tau_max) weighs by the mask alone
        weights = (tau / self.cfg.tau * mask).astype(np.float32)
        parts = {"l_sup": l_sup_t.item() if l_sup_t is not None else 0.0, "mask_rate": float(mask.mean()),
                 "pseudo": {"raw": raw, "mapped": mapped, "mask": mask}}
        need_unsup = self.cfg.lambda_u != 0.0 and mask.any()
        need_penalty = self.penalty and self.cfg.lambda_p != 0.0
        if need_unsup or need_penalty:
            # the penalty reads every strong row; the admitted rows alone get
            # zero rows of label 0 and weight 0 appended
            rows = np.arange(n_u) if need_penalty else np.flatnonzero(mask)
            pad = 0 if need_penalty else -len(rows) % STRONG_ROW_MULTIPLE
            x_s = np.pad(batch.x_unlabeled_strong[rows], [(0, pad)] + [(0, 0)] * 3)
            logits_s = self.model.forward(Tensor(x_s))
        if need_unsup:
            l_unsup_t = F.softmax_cross_entropy(
                logits_s, F.one_hot(np.pad(mapped[rows], (0, pad)), self.num_classes),
                weights=np.pad(weights[rows], (0, pad)), normalizer=n_u,
            )
            parts["l_unsup"] = l_unsup_t.item()
            total_t = _plus(total_t, l_unsup_t * self.cfg.lambda_u)
        if need_penalty:
            l_pen_t = self._penalty(logits_s, probs_weak, mask)
            if l_pen_t is not None:
                parts["l_penalty"] = l_pen_t.item()
                total_t = _plus(total_t, l_pen_t * self.cfg.lambda_p)
        if self.status is not None:
            self.status.update(raw[conf >= self.cfg.tau])
        if total_t is None:
            raise ValidationError(f"{self.name} step received an entirely empty batch")
        return total_t, parts

    def _penalty(self, logits_s: Tensor, probs_weak: np.ndarray, mask: np.ndarray):
        """FullMatch: entropy minimization on below-threshold samples plus
        negative learning on classes the weak prediction deems implausible."""
        n_u, n_c = probs_weak.shape
        total_t = None
        unmasked = (~mask).astype(np.float32)
        ls = logits_s.log_softmax()
        p = ls.exp()
        if unmasked.any():
            entropy_per = -(p * ls).sum(axis=1)
            total_t = (entropy_per * Tensor(unmasked)).sum() * (1.0 / float(unmasked.sum()))
        low = (probs_weak < self.cfg.low_tau).astype(np.float32)
        if low.any():
            neg_log = -(((1.0 - p).clamp_min(1e-6)).log())
            total_t = _plus(total_t, (neg_log * Tensor(low)).sum() * (1.0 / float(n_u * n_c)))
        return total_t


class MixMatchTrainer(Trainer):
    name = "mixmatch"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_weak_views = self.cfg.k_augmentations
        self.rng = np.random.default_rng((self.seed, 0x4D6978))

    def on_epoch_start(self, cycle: int, epoch: int) -> None:
        # one cycle-keyed stream per cycle, so resumed runs replay the identical draw sequence
        if epoch == 0:
            self.rng = np.random.default_rng((self.seed, 0x4D6978, cycle))

    def _losses(self, batch: Batch):
        n_u = batch.n_unlabeled
        n_l = batch.x_labeled.shape[0]
        if n_l + n_u * self.n_weak_views < 2:
            raise ValidationError("mixmatch needs at least 2 samples to mix")

        # the K weak views stacked view-major, [K*bu,C,H,W]: one guess forward,
        # whose rows each depend on their own image alone
        k = batch.x_unlabeled_weak.shape[0]
        x_weak = batch.x_unlabeled_weak.reshape((k * n_u,) + batch.x_unlabeled_weak.shape[2:])
        probs = F.softmax(self.model.predict_logits(x_weak)).reshape(k, n_u, self.num_classes)
        guessed = sharpen(probs.sum(axis=0) / k, self.cfg.temperature)

        x_all = np.concatenate([batch.x_labeled, x_weak], axis=0)
        y_all = np.concatenate(
            [F.one_hot(batch.y_labeled, self.num_classes, dtype=np.float64)] + [guessed] * k, axis=0
        )
        perm = self.rng.permutation(len(x_all))
        gamma = self.rng.beta(self.cfg.alpha, self.cfg.alpha, size=len(x_all))
        x_mix, y_mix = mixmatch_mix((x_all, y_all), (x_all[perm], y_all[perm]), gamma)
        x_mix = x_mix.astype(np.float32)

        parts = {"mask_rate": 1.0, "pseudo": {"guessed": guessed}}
        total_t = None
        if n_l:
            total_t = F.softmax_cross_entropy(self.model.forward(Tensor(x_mix[:n_l])), y_mix[:n_l])
            parts["l_sup"] = total_t.item()
        l_unsup_t = F.soft_mse(self.model.forward(Tensor(x_mix[n_l:])), y_mix[n_l:])
        parts["l_unsup"] = l_unsup_t.item()
        if self.cfg.lambda_u != 0.0:
            total_t = _plus(total_t, l_unsup_t * self.cfg.lambda_u)
        if total_t is None:
            raise ValidationError("mixmatch step produced no loss terms")
        return total_t, parts


# name -> (per-class FlexMatch thresholds, FullMatch penalty)
_THRESHOLDED = {"fixmatch": (False, False), "flexmatch": (True, False), "fullmatch": (False, True)}


def build_trainer(name: str, model: Model, optimizer: SGD, cfg: TrainerConfig,
                  num_classes: int, seed: int = 0) -> Trainer:
    if name in _THRESHOLDED:
        per_class, penalty = _THRESHOLDED[name]
        status = ClassThresholds.fresh(num_classes, cfg.tau, cfg.tau_min) if per_class else None
        return ThresholdedTrainer(model, optimizer, cfg, num_classes, seed=seed,
                                  name=name, status=status, penalty=penalty)
    if name == "mixmatch":
        return MixMatchTrainer(model, optimizer, cfg, num_classes, seed=seed)
    if name == "supervised":
        return Trainer(model, optimizer, cfg, num_classes, seed=seed)
    raise ValidationError(f"unknown trainer {name!r} (choose from {sorted(TRAINER_NAMES)})")
