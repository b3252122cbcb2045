"""Robustness cycles: test, partition, build the stream, retrain, record.

Each cycle runs four steps in order on the live model: the tester scores it
on the test split (SR_MT and top-N accuracy, from one call), the
stream is built from the *previous* cycle's failed/passed partition, the
model retrains on that stream, and the cycle is recorded with the partition
the test produced, which the next cycle's policy reads. Cycle 0 therefore
starts from the mode's initial pools (adaptive mode logs a fallback). The
stream is generated one batch per step, and each batch is dropped after its
step, so one batch is held while a cycle trains and none during an
evaluation.

Wall-clock durations are tracked in memory but excluded from persisted history
so that identically-seeded runs serialize byte-identically.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .data import DatasetSplit
from .errors import NonFiniteError, ValidationError
from .nn import SGD, Model, load_checkpoint, save_checkpoint
from .nn.checkpoint import typed_field, write_atomic
from .policy import AugmentationPolicy, CycleDatasetSpec, CycleStream, adaptive_policy, base_policy, base_pools, build_cycle_stream, static_policy
from .report import json_bytes
from .tester import PASS_THRESHOLD, partition, robustness
from .trainers import TRAINER_NAMES, LossBreakdown, Trainer, TrainerConfig, build_trainer

log = logging.getLogger(__name__)

MODES = ("base", "adaptive", "static")


@dataclass(frozen=True)
class StoppingCriterion:
    """Stop once the last record's metric crosses `value`; a run without one
    runs all configured cycles."""

    metric: str  # "sr_mt" | "top<N>_accuracy"
    direction: str  # "gte" | "lte"
    value: float

    def __post_init__(self):
        if self.direction not in ("gte", "lte"):
            raise ValidationError(f"stopping criterion direction must be gte or lte, got {self.direction!r}")
        if not np.isfinite(self.value):
            raise ValidationError(f"stopping criterion value must be finite, got {self.value}")
        if not 0 <= self.value <= 1:  # every stopping metric is a fraction
            raise ValidationError(f"stopping criterion value must be in [0, 1], got {self.value}")


@dataclass(frozen=True)
class CycleConfig:
    mode: str
    trainer: str
    cycles: int
    epochs_per_cycle: int
    batch_size: int
    seed: int
    num_classes: int
    pass_threshold: float = PASS_THRESHOLD
    learning_rate: float = 0.05
    momentum: float = 0.9
    trainer_cfg: TrainerConfig = field(default_factory=TrainerConfig)
    stopping: Optional[StoppingCriterion] = None
    topn: tuple = (1, 5)
    robustness_cases: Optional[int] = None

    def __post_init__(self):
        """Each message starts with the field's name, which is also its config key."""
        if self.mode not in MODES:
            raise ValidationError(f"mode: unknown value {self.mode!r} (choose from {MODES})")
        if self.trainer not in TRAINER_NAMES:
            raise ValidationError(f"trainer: unknown value {self.trainer!r} (choose from {TRAINER_NAMES})")
        for name in ("cycles", "epochs_per_cycle", "batch_size"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name}: must be at least 1, got {getattr(self, name)}")
        if self.trainer == "mixmatch" and self.batch_size < 2:
            raise ValidationError("batch_size: mix-based trainers need batch_size >= 2")
        if not 0.0 <= self.pass_threshold <= 1.0:
            raise ValidationError(f"pass_threshold: must be in [0, 1], got {self.pass_threshold}")
        if not self.learning_rate >= 0:
            raise ValidationError(f"learning_rate: must be non-negative, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum: must be in [0, 1), got {self.momentum}")
        if self.robustness_cases is not None and self.robustness_cases < 1:
            raise ValidationError(f"robustness_cases: must be at least 1 when set, got {self.robustness_cases}")
        if 1 not in self.topn:
            raise ValidationError(f"topn: must include 1, the accuracy reports tabulate, got {list(self.topn)}")
        for n in self.topn:
            if not 1 <= n <= self.num_classes:
                raise ValidationError(f"topn: N={n} out of range for {self.num_classes} classes")
        metrics = ["sr_mt"] + [f"top{n}_accuracy" for n in self.topn]
        if self.stopping is not None and self.stopping.metric not in metrics:
            raise ValidationError(f"stopping: unknown metric {self.stopping.metric!r} (choose from {metrics})")


_RECORD_KINDS = {"cycle": int, "sr_mt": (int, float), "accuracy": dict, "suites": list, "loss_stats": dict,
                 "failed_ids": list, "passed_ids": list, "policy": dict, "model_version": int}


@dataclass
class CycleRecord:
    cycle: int
    sr_mt: float
    accuracy: dict  # N -> fraction
    suites: list  # per-suite outcome records
    loss_stats: dict
    failed_ids: list
    passed_ids: list
    policy: dict  # policy active during this cycle's retraining
    model_version: int
    wall_time: float = 0.0  # in-memory only, not serialized

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "sr_mt": self.sr_mt,
            "accuracy": {str(k): v for k, v in sorted(self.accuracy.items())},
            "suites": self.suites,
            "loss_stats": self.loss_stats,
            "failed_ids": list(self.failed_ids),
            "passed_ids": list(self.passed_ids),
            "policy": self.policy,
            "model_version": self.model_version,
        }

    @staticmethod
    def from_dict(d: dict) -> "CycleRecord":
        """Raises KeyError for a missing field and ValueError naming a mistyped one."""
        missing = [key for key in _RECORD_KINDS if key not in d]
        if missing:
            raise KeyError(missing[0])
        fields = {key: typed_field(d, key, kind, "") for key, kind in _RECORD_KINDS.items()}
        if not all(k.isdecimal() for k in fields["accuracy"]):
            raise ValueError(f"field 'accuracy' has a key that is not an int N: {d['accuracy']!r}")
        fields["accuracy"] = {int(k): v for k, v in fields["accuracy"].items()}
        for key in ("accuracy", "loss_stats"):
            if not all(_is_number(v) for v in fields[key].values()):
                raise ValueError(f"field {key!r} is not a dict of numbers: {d[key]!r}")
        for key in ("failed_ids", "passed_ids"):
            if not all(isinstance(i, str) for i in fields[key]):
                raise ValueError(f"field {key!r} is not a list of str: {fields[key]!r}")
        return CycleRecord(**fields)

    def metric(self, name: str) -> float:
        if name == "sr_mt":
            return self.sr_mt
        if name.startswith("top") and name.endswith("_accuracy"):
            n = name[3 : -len("_accuracy")]
            if n.isdecimal() and int(n) in self.accuracy:
                return self.accuracy[int(n)]
        raise ValidationError(f"unknown stopping metric {name!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class RunHistory:
    config: dict
    records: list
    final_eval: dict
    termination: str
    final_version: int

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "final_eval": self.final_eval,
            "termination": self.termination,
            "final_version": self.final_version,
        }

    def to_csv_rows(self) -> list:
        algo = self.config.get("trainer", "?")
        group = self.config.get("mode", "?")
        seed = self.config.get("seed", "")
        rows = []
        for r in self.records:
            rows.append((algo, group, "sr_mt", r.sr_mt, r.cycle, seed))
            for n, acc in sorted(r.accuracy.items()):
                rows.append((algo, group, f"top{n}_accuracy", acc, r.cycle, seed))
        if self.final_eval["sr_mt"] is None:  # aborted or unfinished: no final evaluation
            return rows
        rows.append((algo, group, "sr_mt", self.final_eval["sr_mt"], "final", seed))
        for n, acc in sorted(self.final_eval["topn"].items(), key=lambda kv: int(kv[0])):
            rows.append((algo, group, f"top{n}_accuracy", acc, "final", seed))
        return rows

    def save(self, path) -> None:
        write_atomic(path, json_bytes(self.to_dict()))

    @staticmethod
    def load(path) -> "RunHistory":
        """Read a saved history; a file that is not one raises ValidationError
        naming the file and the first missing or malformed field."""
        kinds = {"config": dict, "records": list, "final_eval": dict, "termination": str, "final_version": int}
        try:
            d = json.loads(Path(path).read_text())
            fields = {key: typed_field(d, key, kind, "") for key, kind in kinds.items()}
            for key in ("trainer", "mode", "dataset"):  # the comparison table's labels
                if key in fields["config"] and not isinstance(fields["config"][key], str):
                    raise ValueError(f"field 'config.{key}' is not a str: {fields['config'][key]!r}")
            final = fields["final_eval"]
            if "sr_mt" not in final or not isinstance(final.get("topn"), dict):
                raise ValueError("field 'final_eval' lacks 'sr_mt' or a 'topn' dict")
            if final["sr_mt"] is not None and not _is_number(final["sr_mt"]):
                raise ValueError(f"field 'final_eval.sr_mt' is not a number or null: {final['sr_mt']!r}")
            if not all(k.isdecimal() for k in final["topn"]):
                raise ValueError(f"field 'final_eval.topn' has a key that is not an int N: {final['topn']!r}")
            for n, acc in final["topn"].items():
                if not _is_number(acc):
                    raise ValueError(f"field 'final_eval.topn.{n}' is not a number: {acc!r}")
            records = [CycleRecord.from_dict(r) for r in fields.pop("records")]
        except KeyError as exc:
            raise ValidationError(f"{path}: a record lacks the field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:  # not UTF-8, not JSON, or a mistyped field
            raise ValidationError(f"{path}: not a run history: {exc}") from exc
        return RunHistory(records=records, **fields)

    def summary(self) -> str:
        lines = [f"run: trainer={self.config.get('trainer')} mode={self.config.get('mode')} "
                 f"seed={self.config.get('seed')}"]
        for r in self.records:
            accs = " ".join(f"top{n}={v:.3f}" for n, v in sorted(r.accuracy.items()))
            lines.append(
                f"cycle {r.cycle}: SR_MT={r.sr_mt:.4f} {accs} "
                f"failed={len(r.failed_ids)} loss={r.loss_stats.get('total_mean', float('nan')):.4f}"
            )
        if self.final_eval["sr_mt"] is None:
            why = "aborted on a non-finite loss" if self.termination == "aborted_nan" else "did not finish"
            lines.append(f"final: not evaluated, the run {why}")
        else:
            accs = " ".join(f"top{n}={v:.3f}"
                            for n, v in sorted(self.final_eval["topn"].items(), key=lambda kv: int(kv[0])))
            lines.append(f"final: SR_MT={self.final_eval['sr_mt']:.4f} {accs}")
        lines.append(f"termination: {self.termination}")
        return "\n".join(lines)


def should_stop(records, criterion: Optional[StoppingCriterion]) -> bool:
    """Pure decision from the last record; no side effects."""
    if criterion is None or not records:
        return False
    value = records[-1].metric(criterion.metric)
    return value >= criterion.value if criterion.direction == "gte" else value <= criterion.value


def _policy_for_cycle(cfg: CycleConfig, catalog, failed, cycle: int) -> AugmentationPolicy:
    """Mode-specific policy; adaptive uses the previous cycle's partition."""
    if cfg.mode == "base":
        return base_policy(catalog, seed=cfg.seed)
    if cfg.mode == "static":
        return static_policy(catalog, seed=cfg.seed)
    if not failed:  # None at cycle 0, before any test; empty when every relation passed
        log.info("adaptive cycle %d: %s, using base strong pool", cycle,
                 "no prior partition" if failed is None else "no failed relations")
    return adaptive_policy(failed or [], *base_pools(catalog), seed=cfg.seed)


@dataclass
class ResumeState:
    """Completed records and the SGD velocities after the last one; the run
    continues after it, from its failed set."""

    records: list
    velocities: dict


def _train_one_cycle(trainer: Trainer, stream: CycleStream, cycle: int,
                     metrics_sink: Optional[Callable]) -> tuple:
    """Run every epoch of the stream, each after `trainer.on_epoch_start(cycle, epoch)`; returns (loss
    stats, nan diagnostic). A stat is a mean over the steps taken, or with none 0.0, or nan if a
    non-finite loss stopped the cycle."""
    sums = dict.fromkeys(LossBreakdown.RECORD_KEYS, 0.0)
    steps, nan_diag = 0, None
    try:
        # each batch is dropped after its step, so the stream builds the next
        # one while nothing holds it (enumerate's result tuple would)
        for batch in stream:
            epoch, offset = divmod(steps, stream.steps_per_epoch)
            if offset == 0:
                trainer.on_epoch_start(cycle, epoch)
            record = trainer.step(batch).to_record()
            del batch
            for key, value in record.items():
                sums[key] += value
            if metrics_sink is not None:
                metrics_sink({"cycle": cycle, "step": steps, **record})
            steps += 1
    except NonFiniteError as exc:
        nan_diag = str(exc)
    empty = float("nan") if nan_diag is not None else 0.0
    stats = {f"{k}_mean": (v / steps if steps else empty) for k, v in sums.items()}
    stats["steps"] = steps
    return stats, nan_diag


def run_cycles(model: Model, split: DatasetSplit, cfg: CycleConfig, catalog,
               metrics_sink: Optional[Callable] = None,
               checkpoint_dir=None,
               resume: Optional[ResumeState] = None,
               run_config: Optional[dict] = None,
               history_path=None) -> RunHistory:
    """Drive the feedback loop and return the accumulated history.

    With `history_path`, the history so far is saved there after every
    cycle's checkpoint, with termination "incomplete", so a run killed in
    cycle k resumes from cycle k - 1.
    """
    catalog = list(catalog)
    if not split.test:
        raise ValidationError("run needs a non-empty test split")
    trainer = build_trainer(
        cfg.trainer, model, SGD(cfg.learning_rate, cfg.momentum), cfg.trainer_cfg,
        cfg.num_classes, seed=cfg.seed,
    )
    records = list(resume.records) if resume is not None else []
    by_id = {mr.id: mr for mr in catalog}
    if resume is not None:
        trainer.optimizer.velocities = dict(resume.velocities)
    config = run_config or {"trainer": cfg.trainer, "mode": cfg.mode, "seed": cfg.seed}

    def score():  # scoring takes no SGD step, so the report's model version is the cycle's
        return robustness(model, catalog, split.test, max_cases=cfg.robustness_cases,
                          pass_threshold=cfg.pass_threshold, seed=cfg.seed, topn=cfg.topn)

    termination = "completed"
    first = records[-1].cycle + 1 if records else 0
    if should_stop(records, cfg.stopping):  # stopped before its final evaluation was saved
        termination, first = "threshold_met", cfg.cycles
    for cycle in range(first, cfg.cycles):
        started = time.perf_counter()
        # the policy reads the previous cycle's failed set; cycle 0 has none yet
        previous = [by_id[i] for i in records[-1].failed_ids] if records else None
        policy = _policy_for_cycle(cfg, catalog, previous, cycle)
        report = score()
        failed, passed = partition(report.outcomes)
        spec = CycleDatasetSpec(
            split=split, policy=policy, batch_size=cfg.batch_size, epochs=cfg.epochs_per_cycle,
            num_classes=cfg.num_classes, n_weak_views=trainer.n_weak_views,
            strong_views=trainer.reads_strong_views, cycle_index=cycle,
        )
        loss_stats, nan_diag = _train_one_cycle(trainer, build_cycle_stream(spec), cycle, metrics_sink)

        records.append(
            CycleRecord(
                cycle=cycle,
                sr_mt=report.sr_mt,
                accuracy=dict(report.accuracy.topn),
                suites=[o.to_record() for o in report.outcomes],
                loss_stats=loss_stats,
                failed_ids=[mr.id for mr in failed],
                passed_ids=[mr.id for mr in passed],
                policy=policy.to_log_dict(),
                model_version=report.model_version,
                wall_time=time.perf_counter() - started,
            )
        )
        if checkpoint_dir is not None:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            save_checkpoint(model.snapshot(), Path(checkpoint_dir) / f"cycle_{cycle:04d}.ckpt",
                            velocities=trainer.optimizer.velocities)
        if history_path is not None:
            RunHistory(config=config, records=records, final_eval={"sr_mt": None, "topn": {}},
                       termination="incomplete", final_version=model.version).save(history_path)
        if nan_diag is not None:
            log.error("cycle %d aborted: %s", cycle, nan_diag)
            termination = "aborted_nan"
            break
        if should_stop(records, cfg.stopping):
            termination = "threshold_met"
            break

    if termination == "aborted_nan":
        final_eval = {"sr_mt": None, "topn": {}, "aborted": True}
    else:
        report = score()
        final_eval = {"sr_mt": report.sr_mt, "topn": {str(k): v for k, v in sorted(report.accuracy.topn.items())}}
    return RunHistory(
        config=config,
        records=records,
        final_eval=final_eval,
        termination=termination,
        final_version=model.version,
    )


def resume_state_from(history: RunHistory, checkpoint_dir, catalog) -> tuple:
    """Rebuild (model, ResumeState) from the last completed cycle's checkpoint;
    the next cycle's policy reads its failed ids, which must name relations
    of `catalog`."""
    if not history.records:
        raise ValidationError("history has no completed cycles to resume from")
    known = {mr.id for mr in catalog}
    unknown = [i for i in history.records[-1].failed_ids if i not in known]
    if unknown:
        raise ValidationError(f"cycle {history.records[-1].cycle} failed_ids name no catalog relation: "
                              f"{', '.join(unknown)}")
    path = Path(checkpoint_dir) / f"cycle_{history.records[-1].cycle:04d}.ckpt"
    snap = load_checkpoint(path)
    if snap.velocities is None:
        raise ValidationError(f"{path}: no optimizer velocities in this cycle checkpoint, which was written "
                              "before cycle checkpoints carried them; the run cannot resume")
    return Model.from_snapshot(snap), ResumeState(records=list(history.records), velocities=snap.velocities)
