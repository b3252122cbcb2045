"""Semi-supervised training steps sharing one interface.

Each trainer consumes a Batch (augmented labeled part, weak views of the
unlabeled part, and the strong relation drawn for each unlabeled row) and
returns the loss terms its algorithm computes, by name (`l_sup`, `l_unsup`,
`l_penalty`), with its mask rate and pseudo-labels. `Trainer.step` alone
weighs them, total = l_sup + lambda_u * l_unsup + lambda_p * l_penalty, runs
one SGD step and returns a LossBreakdown. Pseudo-labels are always produced
from weak views without gradient flow and remapped through the strong
relation's label map before entering any consistency loss. A term of weight 0
stays out of the total, and a thresholded step does not compute it, so
degenerate runs reproduce a plain supervised loop bit for bit. Zero-weight
rows are omitted too: without FullMatch's penalty, which reads every strong
row, a thresholded step builds and forwards only the strong views its mask
admits, in one forward padded with zero rows of weight 0 (see
STRONG_ROW_MULTIPLE), so its cost follows its mask rate. MixMatch and the
supervised step build no strong view.

Implemented steps:
  * ThresholdedTrainer serves three names, and its name alone sets its
    variant. FixMatch: confidence-thresholded pseudo-labels, masked
    cross-entropy (`l_unsup`). FlexMatch: the same step with per-class
    thresholds scaled by estimated learning status. FullMatch: the FixMatch
    step plus an entropy/negative-learning penalty (`l_penalty`).
  * MixMatch: sharpened K-view label guessing, from one forward over the
    stacked weak views, plus pairwise input mixing; `l_unsup` is the L2 term.
  * Trainer itself is the supervised step: labeled cross-entropy only
    (reference for degeneracy checks), and every trainer's terms on a batch
    without unlabeled rows.
Every trainer reads its class count from its model's spec.

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
    """The supervised step. A semi-supervised trainer overrides `_terms` for
    batches with unlabeled rows; `step` weighs the terms for every trainer.
    The class count is the model's."""

    name = "supervised"
    n_weak_views = 1

    def __init__(self, model: Model, optimizer: SGD, cfg: TrainerConfig, seed: int = 0):
        self.model = model
        self.optimizer = optimizer
        self.cfg = cfg
        self.seed = seed

    def on_epoch_start(self, cycle: int, epoch: int) -> None:
        """Called before the first step of each epoch of each cycle."""

    def step(self, batch: Batch) -> LossBreakdown:
        """Weigh the trainer's terms (a term of weight 0 stays out of the total) and take one SGD step."""
        self.model.zero_grads()
        terms, mask_rate, pseudo = self._terms(batch) if batch.n_unlabeled else Trainer._terms(self, batch)
        total_t = terms.get("l_sup")
        for key, weight in (("l_unsup", self.cfg.lambda_u), ("l_penalty", self.cfg.lambda_p)):
            if key in terms and weight != 0.0:
                term_t = terms[key] * weight
                total_t = term_t if total_t is None else total_t + term_t
        if total_t is None:
            unlabeled = " and no unlabeled term of nonzero weight" if batch.n_unlabeled else ""
            raise ValidationError(f"{self.name} step received no labeled samples{unlabeled}")
        losses = {key: terms[key].item() if key in terms else 0.0 for key in ("l_sup", "l_unsup", "l_penalty")}
        total = total_t.item()  # an op output, so Tensor._make has checked it finite
        backward(self.model, total_t)
        self.optimizer.step(self.model)
        return LossBreakdown(**losses, total=total, mask_rate=mask_rate, lambda_u=self.cfg.lambda_u,
                             lambda_p=self.cfg.lambda_p, pseudo=pseudo)

    def _terms(self, batch: Batch):
        """(loss-term tensors by name, mask rate, pseudo-label arrays). Here the
        labeled cross-entropy alone, which `step` also uses for every trainer
        on a batch without unlabeled rows."""
        return self._supervised_term(batch), 0.0, {}

    def _supervised_term(self, batch: Batch) -> dict:
        """{"l_sup": the labeled cross-entropy}, or {} without labeled rows."""
        if batch.x_labeled.shape[0] == 0:
            return {}
        targets = F.one_hot(batch.y_labeled, self.model.spec.num_classes)
        return {"l_sup": F.softmax_cross_entropy(self.model.forward(Tensor(batch.x_labeled)), targets)}


# A forward of the admitted strong rows is padded to a multiple of this many
# rows. At most other row counts, OpenBLAS gives the conv weight gradient other
# bits at another thread count.
STRONG_ROW_MULTIPLE = 8


class ThresholdedTrainer(Trainer):
    """FixMatch's terms: masked cross-entropy on the strong view against the
    confident weak-view pseudo-labels.

    The name sets the rest: "flexmatch" swaps the fixed tau for per-class
    thresholds (`status`), and "fullmatch" adds a penalty term on the same
    strong-view logits.
    """

    NAMES = ("fixmatch", "flexmatch", "fullmatch")

    def __init__(self, model: Model, optimizer: SGD, cfg: TrainerConfig, seed: int = 0, *, name: str):
        super().__init__(model, optimizer, cfg, seed=seed)
        self.name = name
        self.status = (ClassThresholds.fresh(model.spec.num_classes, cfg.tau, cfg.tau_min)
                       if name == "flexmatch" else None)
        self.penalty = name == "fullmatch"

    def on_epoch_start(self, cycle: int, epoch: int) -> None:
        if self.status is not None:
            self.status.reset()

    def _pseudo_labels(self, batch: Batch):
        """Confidence and mapped pseudo-labels from the first weak view (no grad)."""
        logits = self.model.predict_logits(batch.x_unlabeled_weak[0])
        probs = F.softmax(logits)
        conf = probs.max(axis=1)
        raw = probs.argmax(axis=1)
        mapped = np.take_along_axis(batch.strong_label_maps, raw[:, None], axis=1)[:, 0]
        return probs, conf, raw, mapped

    def _terms(self, batch: Batch):
        n_u = batch.n_unlabeled
        terms = self._supervised_term(batch)
        probs_weak, conf, raw, mapped = self._pseudo_labels(batch)
        tau = self.cfg.tau if self.status is None else self.status.thresholds()[raw]
        mask = conf >= tau
        # per-class weighting normalized by tau_max, so a fixed tau (or a
        # converged status, all tau_c == tau_max) weighs by the mask alone
        weights = (tau / self.cfg.tau * mask).astype(np.float32)
        need_unsup = self.cfg.lambda_u != 0.0 and mask.any()
        need_penalty = self.penalty and self.cfg.lambda_p != 0.0
        if need_unsup or need_penalty:
            # the penalty reads every strong row; the admitted rows alone get
            # zero rows of label 0 and weight 0 appended
            rows = np.arange(n_u) if need_penalty else np.flatnonzero(mask)
            pad = 0 if need_penalty else -len(rows) % STRONG_ROW_MULTIPLE
            x_s = np.pad(batch.strong_views(rows), [(0, pad)] + [(0, 0)] * 3)
            logits_s = self.model.forward(Tensor(x_s))
        if need_unsup:
            terms["l_unsup"] = F.softmax_cross_entropy(
                logits_s, F.one_hot(np.pad(mapped[rows], (0, pad)), self.model.spec.num_classes),
                weights=np.pad(weights[rows], (0, pad)), normalizer=n_u,
            )
        if need_penalty:
            l_pen_t = self._penalty(logits_s, probs_weak, mask)
            if l_pen_t is not None:
                terms["l_penalty"] = l_pen_t
        if self.status is not None:
            self.status.update(raw[conf >= self.cfg.tau])
        return terms, float(mask.mean()), {"raw": raw, "mapped": mapped, "mask": mask}

    def _penalty(self, logits_s: Tensor, probs_weak: np.ndarray, mask: np.ndarray):
        """FullMatch: entropy minimization on below-threshold samples plus
        negative learning on classes the weak prediction deems implausible."""
        n_u, n_c = probs_weak.shape
        entropy_t = negative_t = None
        unmasked = (~mask).astype(np.float32)
        ls = logits_s.log_softmax()
        p = ls.exp()
        if unmasked.any():
            entropy_per = -(p * ls).sum(axis=1)
            entropy_t = (entropy_per * Tensor(unmasked)).sum() * (1.0 / float(unmasked.sum()))
        low = (probs_weak < self.cfg.low_tau).astype(np.float32)
        if low.any():
            neg_log = -(((1.0 - p).clamp_min(1e-6)).log())
            negative_t = (neg_log * Tensor(low)).sum() * (1.0 / float(n_u * n_c))
        if entropy_t is None or negative_t is None:
            return negative_t if entropy_t is None else entropy_t
        return entropy_t + negative_t


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

    def _terms(self, batch: Batch):
        n_u = batch.n_unlabeled
        n_l = batch.x_labeled.shape[0]
        n_c = self.model.spec.num_classes
        if n_l + n_u * self.n_weak_views < 2:
            raise ValidationError("mixmatch needs at least 2 samples to mix")

        # the K weak views stacked view-major, [K*bu,C,H,W]: one guess forward,
        # whose rows each depend on their own image alone
        k = batch.x_unlabeled_weak.shape[0]
        x_weak = batch.x_unlabeled_weak.reshape((k * n_u,) + batch.x_unlabeled_weak.shape[2:])
        probs = F.softmax(self.model.predict_logits(x_weak)).reshape(k, n_u, n_c)
        guessed = sharpen(probs.sum(axis=0) / k, self.cfg.temperature)

        x_all = np.concatenate([batch.x_labeled, x_weak], axis=0)
        y_all = np.concatenate(
            [F.one_hot(batch.y_labeled, n_c, dtype=np.float64)] + [guessed] * k, axis=0
        )
        perm = self.rng.permutation(len(x_all))
        gamma = self.rng.beta(self.cfg.alpha, self.cfg.alpha, size=len(x_all))
        x_mix, y_mix = mixmatch_mix((x_all, y_all), (x_all[perm], y_all[perm]), gamma)
        x_mix = x_mix.astype(np.float32)

        # the K*bu-row unlabeled mix is forwarded first, so the labeled graph
        # is not held through the larger forward's transients; the backward
        # walk's order follows the graph, not the order of the forwards
        terms = {"l_unsup": F.soft_mse(self.model.forward(Tensor(x_mix[n_l:])), y_mix[n_l:])}
        if n_l:
            terms["l_sup"] = F.softmax_cross_entropy(self.model.forward(Tensor(x_mix[:n_l])), y_mix[:n_l])
        return terms, 1.0, {"guessed": guessed}


def build_trainer(name: str, model: Model, optimizer: SGD, cfg: TrainerConfig, seed: int = 0) -> Trainer:
    if name in ThresholdedTrainer.NAMES:
        return ThresholdedTrainer(model, optimizer, cfg, seed=seed, name=name)
    if name == "mixmatch":
        return MixMatchTrainer(model, optimizer, cfg, seed=seed)
    if name == "supervised":
        return Trainer(model, optimizer, cfg, seed=seed)
    raise ValidationError(f"unknown trainer {name!r} (choose from {sorted(TRAINER_NAMES)})")
