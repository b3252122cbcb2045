"""Flat key=value run configuration.

One `key = value` pair per line; `#` starts a comment. Unknown keys are hard
errors so typos fail fast. All validation happens before any output path is
created. The full key set (with defaults materialized) is written back into
every run directory, so a run can be reproduced from its own config file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .orchestrator import MODES, StoppingCriterion
from .relations import catalog_default
from .trainers import TRAINER_NAMES, TrainerConfig

# dataset name -> (input_shape, num_classes)
DATASETS = {"mnist": ((1, 28, 28), 10), "cifar10": ((3, 32, 32), 10), "cifar100": ((3, 32, 32), 100)}
MODELS = ("cnn_small", "mlp_small", "linear")
ENV_DATA_DIR = "METARETRAIN_DATA_DIR"


class ConfigError(ValidationError):
    pass


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


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


# key -> (parser, default). None default means optional/unset.
_SCHEMA = {
    "data_dir": (str, None),
    "dataset": (str, "mnist"),
    "fraction": (float, 0.01),
    "ratio_labeled": (float, 0.1),
    "ratio_unlabeled": (float, 0.7),
    "ratio_test": (float, 0.2),
    "stratified": (_parse_bool, True),
    "model": (str, "cnn_small"),
    "trainer": (str, "fixmatch"),
    "mode": (str, "adaptive"),
    "cycles": (int, 5),
    "epochs_per_cycle": (int, 2),
    "batch_size": (int, 32),
    "seeds": (_parse_int_list, (0,)),
    "pass_threshold": (float, 0.8),
    "learning_rate": (float, 0.05),
    "momentum": (float, 0.9),
    "lambda_u": (float, 1.0),
    "lambda_p": (float, 0.5),
    "tau": (float, 0.95),
    "tau_min": (float, 0.5),
    "temperature": (float, 0.5),
    "alpha": (float, 0.75),
    "k_augmentations": (int, 2),
    "low_tau": (float, 0.05),
    "stopping": (str, "fixed"),
    "topn": (_parse_int_list, (1, 5)),
    "robustness_cases": (int, None),
    "static_k": (int, 2),
    "frozen_realizations": (_parse_bool, False),
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

    @property
    def stopping_criterion(self):
        return _parse_stopping(self.values["stopping"])

    def trainer_config(self) -> TrainerConfig:
        v = self.values
        return TrainerConfig(
            lambda_u=v["lambda_u"], lambda_p=v["lambda_p"], tau=v["tau"], tau_min=v["tau_min"],
            temperature=v["temperature"], alpha=v["alpha"], k_augmentations=v["k_augmentations"],
            low_tau=v["low_tau"],
        )

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
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, tuple):
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
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key, raw_value = key.strip(), raw_value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    for key, (_, default) in _SCHEMA.items():
        values.setdefault(key, default)
    return RunConfig(values=values)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))


def validate_config(cfg: RunConfig) -> None:
    """Field-level validation; raises ConfigError naming the offending key."""
    v = cfg.values
    for key, (parser, _) in _SCHEMA.items():
        # NaN passes every range comparison below, so it is rejected first
        if parser is float and not math.isfinite(v[key]):
            raise ConfigError(f"{key}: must be finite, got {v[key]}")
    if v["dataset"] not in DATASETS:
        raise ConfigError(f"dataset: unknown value {v['dataset']!r} (choose from {tuple(DATASETS)})")
    if v["model"] not in MODELS:
        raise ConfigError(f"model: unknown value {v['model']!r} (choose from {MODELS})")
    if v["trainer"] not in TRAINER_NAMES:
        raise ConfigError(f"trainer: unknown value {v['trainer']!r} (choose from {TRAINER_NAMES})")
    if v["mode"] not in MODES:
        raise ConfigError(f"mode: unknown value {v['mode']!r} (choose from {MODES})")
    if not 0 < v["fraction"] <= 1:
        raise ConfigError(f"fraction: must be in (0, 1], got {v['fraction']}")
    total = sum(cfg.ratios())
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(
            f"ratio_labeled/ratio_unlabeled/ratio_test: must sum to 1 within 1e-9, got {total}"
        )
    if min(cfg.ratios()) < 0:
        raise ConfigError("ratio_labeled/ratio_unlabeled/ratio_test: must be non-negative")
    if v["ratio_test"] == 0:
        raise ConfigError("ratio_test: must be positive, the robustness cycles score the test split")
    if v["cycles"] < 1:
        raise ConfigError(f"cycles: must be at least 1, got {v['cycles']}")
    if v["epochs_per_cycle"] < 1:
        raise ConfigError(f"epochs_per_cycle: must be at least 1, got {v['epochs_per_cycle']}")
    if v["batch_size"] < 1:
        raise ConfigError(f"batch_size: must be at least 1, got {v['batch_size']}")
    if v["trainer"] == "mixmatch" and v["batch_size"] < 2:
        raise ConfigError("batch_size: mix-based trainers need batch_size >= 2")
    if not v["seeds"]:
        raise ConfigError("seeds: at least one seed required")
    if min(v["seeds"]) < 0:
        raise ConfigError(f"seeds: must be non-negative, got {min(v['seeds'])}")
    if not 0 <= v["pass_threshold"] <= 1:
        raise ConfigError(f"pass_threshold: must be in [0, 1], got {v['pass_threshold']}")
    if v["learning_rate"] < 0:
        raise ConfigError(f"learning_rate: must be non-negative, got {v['learning_rate']}")
    if not 0 <= v["momentum"] < 1:
        raise ConfigError(f"momentum: must be in [0, 1), got {v['momentum']}")
    n_relations = len(catalog_default(v["dataset"]))
    if not 2 <= v["static_k"] <= n_relations:
        raise ConfigError(f"static_k: static compositions take 2 to {n_relations} distinct {v['dataset']} "
                          f"relations, got {v['static_k']}")
    if v["robustness_cases"] is not None and v["robustness_cases"] < 1:
        raise ConfigError("robustness_cases: must be at least 1 when set")
    try:
        cfg.trainer_config()
    except ValidationError as exc:
        raise ConfigError(f"trainer hyperparameters: {exc}") from exc
    if 1 not in v["topn"]:
        raise ConfigError(f"topn: must include 1, the accuracy reports tabulate, got {list(v['topn'])}")
    n_classes = DATASETS[v["dataset"]][1]
    for n in v["topn"]:
        if not 1 <= n <= n_classes:
            raise ConfigError(f"topn: N={n} out of range for {n_classes} classes")
    try:
        stopping = cfg.stopping_criterion
    except (ValueError, ValidationError) as exc:
        raise ConfigError(f"stopping: {exc}") from exc
    metrics = ["sr_mt"] + [f"top{n}_accuracy" for n in v["topn"]]
    if stopping is not None and stopping.metric not in metrics:
        raise ConfigError(f"stopping: unknown metric {stopping.metric!r} (choose from {metrics})")
    data_dir = v["data_dir"] or os.environ.get(ENV_DATA_DIR)
    if not data_dir:
        raise ConfigError(f"data_dir: not set (flag, config key, or ${ENV_DATA_DIR})")
    if not Path(data_dir).is_dir():
        raise ConfigError(f"data_dir: directory not found: {data_dir}")
    if v["warm_start"] is not None and not Path(v["warm_start"]).exists():
        raise ConfigError(f"warm_start: checkpoint not found: {v['warm_start']}")
    if v["trainable_last_k"] is not None:
        if v["warm_start"] is None:
            raise ConfigError("trainable_last_k: freezes layers of a warm_start checkpoint; set warm_start too")
        if v["trainable_last_k"] < 1:
            raise ConfigError(f"trainable_last_k: must be at least 1, got {v['trainable_last_k']}")
