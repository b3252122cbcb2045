"""Flat key=value run configuration.

One `key = value` pair per line; `#` starts a comment. Unknown keys are hard
errors so typos fail fast. All validation happens before any output path is
created. The full key set (with defaults materialized) is written back into
every run directory, so a run can be reproduced from its own config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ValidationError
from .nn import model_spec
from .orchestrator import CycleConfig, StoppingCriterion
from .trainers import TrainerConfig

# dataset name -> (input_shape, num_classes)
DATASETS = {"mnist": ((1, 28, 28), 10), "cifar10": ((3, 32, 32), 10), "cifar100": ((3, 32, 32), 100)}
ENV_DATA_DIR = "METARETRAIN_DATA_DIR"


def _parse_int_list(raw: str) -> tuple:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


def _parse_stopping(raw: str):
    if raw == "fixed":
        return None  # run all configured cycles
    if raw.startswith("metric:"):
        parts = raw.split(":")
        if len(parts) != 4:
            raise ValueError("expected metric:<name>:<gte|lte>:<value>")
        return StoppingCriterion(parts[1], parts[2], float(parts[3]))
    raise ValueError(f"expected 'fixed' or 'metric:<name>:<gte|lte>:<value>', got {raw!r}")


_CYCLE_DEFAULTS = {f.name: f.default for f in fields(CycleConfig)}

# key -> (parser, default), in the order a run's config file lists them. None
# default means optional/unset. A key that CycleConfig or TrainerConfig holds
# takes its default from there, and there its range is checked.
_SCHEMA = {
    "data_dir": (str, None),
    "dataset": (str, "mnist"),
    "fraction": (float, 0.01),
    "ratio_labeled": (float, 0.1),
    "ratio_unlabeled": (float, 0.7),
    "ratio_test": (float, 0.2),
    "model": (str, "cnn_small"),
    "trainer": (str, "fixmatch"),
    "mode": (str, "adaptive"),
    "cycles": (int, 5),
    "epochs_per_cycle": (int, 2),
    "batch_size": (int, 32),
    "seeds": (_parse_int_list, (0,)),
    "pass_threshold": (float, _CYCLE_DEFAULTS["pass_threshold"]),
    "learning_rate": (float, _CYCLE_DEFAULTS["learning_rate"]),
    "momentum": (float, _CYCLE_DEFAULTS["momentum"]),
    **{f.name: (type(f.default), f.default) for f in fields(TrainerConfig)},
    "stopping": (str, "fixed"),
    "topn": (_parse_int_list, _CYCLE_DEFAULTS["topn"]),
    "robustness_cases": (int, _CYCLE_DEFAULTS["robustness_cases"]),
    "output_dir": (str, "runs"),
    "warm_start": (str, None),
    "trainable_last_k": (int, None),
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getattr__(self, key):
        values = object.__getattribute__(self, "values")
        if key in values:
            return values[key]
        raise AttributeError(key)

    def cycle_config(self, seed: int) -> CycleConfig:
        """The loop settings of the run with `seed`; their checks raise
        ValidationError naming the key."""
        v = self.values
        try:
            stopping = _parse_stopping(v["stopping"])
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"stopping: {exc}") from exc
        held = {f.name: v[f.name] for f in fields(CycleConfig) if f.name in v}
        held.update(seed=seed, num_classes=DATASETS[v["dataset"]][1], stopping=stopping,
                    trainer_cfg=TrainerConfig(**{f.name: v[f.name] for f in fields(TrainerConfig)}))
        return CycleConfig(**held)

    def ratios(self) -> tuple:
        v = self.values
        return (v["ratio_labeled"], v["ratio_unlabeled"], v["ratio_test"])

    def resolved_text(self, seed=None) -> str:
        """Config text with every key materialized; `seed` narrows multi-seed
        configs to the one run being written."""
        lines = []
        for key in _SCHEMA:
            value = self.values[key]
            if key == "seeds" and seed is not None:
                value = (seed,)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(str(x) for x in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def public_dict(self, seed=None) -> dict:
        d = {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.values.items()}
        if seed is not None:
            d["seed"] = seed
            d["seeds"] = [seed]
        return d


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key, raw_value = key.strip(), raw_value.strip()
        if key not in _SCHEMA:
            raise ValidationError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValidationError(f"{source}:{lineno}: duplicate key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(raw_value)
        except ValueError as exc:
            raise ValidationError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    for key, (_, default) in _SCHEMA.items():
        values.setdefault(key, default)
    return RunConfig(values=values)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))


def validate_config(cfg: RunConfig) -> None:
    """Field-level validation; raises ValidationError naming the offending key.

    Checks the keys no dataclass holds here, then builds the first seed's
    CycleConfig, which checks the rest, so all run before any output exists."""
    v = cfg.values
    for key, (parser, _) in _SCHEMA.items():
        # NaN passes every range comparison below, so it is rejected first
        if parser is float and not math.isfinite(v[key]):
            raise ValidationError(f"{key}: must be finite, got {v[key]}")
    if v["dataset"] not in DATASETS:
        raise ValidationError(f"dataset: unknown value {v['dataset']!r} (choose from {tuple(DATASETS)})")
    try:
        model_spec(v["model"], *DATASETS[v["dataset"]])
    except ValidationError as exc:
        raise ValidationError(f"model: {exc}") from exc
    if not 0 < v["fraction"] <= 1:
        raise ValidationError(f"fraction: must be in (0, 1], got {v['fraction']}")
    total = sum(cfg.ratios())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(
            f"ratio_labeled/ratio_unlabeled/ratio_test: must sum to 1 within 1e-9, got {total}"
        )
    if min(cfg.ratios()) < 0:
        raise ValidationError("ratio_labeled/ratio_unlabeled/ratio_test: must be non-negative")
    if v["ratio_test"] == 0:
        raise ValidationError("ratio_test: must be positive, the robustness cycles score the test split")
    if v["ratio_labeled"] == 0 and v["ratio_unlabeled"] == 0:
        raise ValidationError("ratio_labeled/ratio_unlabeled: both 0 leaves the trainer no samples to train on")
    if v["ratio_labeled"] == 0 and not (v["trainer"] == "mixmatch" and v["lambda_u"] > 0):
        raise ValidationError(f"ratio_labeled: 0 is only for mixmatch with lambda_u > 0, whose every batch has an "
                          f"unlabeled loss; got trainer {v['trainer']} with lambda_u {v['lambda_u']}")
    if not v["seeds"]:
        raise ValidationError("seeds: at least one seed required")
    if min(v["seeds"]) < 0:
        raise ValidationError(f"seeds: must be non-negative, got {min(v['seeds'])}")
    cfg.cycle_config(v["seeds"][0])
    if not v["data_dir"]:
        raise ValidationError(f"data_dir: not set (flag, config key, or ${ENV_DATA_DIR})")
    if not Path(v["data_dir"]).is_dir():
        raise ValidationError(f"data_dir: directory not found: {v['data_dir']}")
    if v["warm_start"] is not None and not Path(v["warm_start"]).exists():
        raise ValidationError(f"warm_start: checkpoint not found: {v['warm_start']}")
    if v["trainable_last_k"] is not None:
        if v["warm_start"] is None:
            raise ValidationError("trainable_last_k: freezes layers of a warm_start checkpoint; set warm_start too")
        if v["trainable_last_k"] < 1:
            raise ValidationError(f"trainable_last_k: must be at least 1, got {v['trainable_last_k']}")
