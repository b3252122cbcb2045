"""Top-N accuracy metrics of a model over a labeled table; `tester.robustness`
scores a split with `evaluate` on the logits of its own forward."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Samples, to_model_input
from .errors import ValidationError
from .nn import Model
from .nn.layers import PREDICT_CHUNK


def table_logits(model: Model, pixels) -> np.ndarray:
    """Logits [N, classes] of a uint8 pixel table [N,C,H,W].

    One PREDICT_CHUNK is converted to float32 at a time, so no float32 copy
    spans the table; to_model_input is elementwise and predict_logits forwards
    the same chunks, so each image's logits keep their bits. An empty table
    gives [0, classes]."""
    return np.concatenate([model.predict_logits(to_model_input(pixels[start : start + PREDICT_CHUNK]))
                           for start in range(0, len(pixels) or 1, PREDICT_CHUNK)])


def _topn_hits(logits: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    # stable argsort on negated logits: ties resolve to the lower class index
    order = np.argsort(-logits, axis=1, kind="stable")
    return (order[:, :n] == labels[:, None]).any(axis=1)


def topn_accuracy(model: Model, samples: Samples, n: int) -> float:
    """Fraction of rows whose true label ranks among the n highest logits."""
    logits = table_logits(model, samples.pixels)
    return evaluate(logits, samples.labels, topn_list=(n,)).topn[int(n)]


@dataclass(frozen=True)
class EvalReport:
    topn: dict  # N -> accuracy
    sample_count: int
    per_class_top1: dict  # class -> accuracy over that class's samples

    def to_dict(self) -> dict:
        return {
            "topn": {str(k): v for k, v in sorted(self.topn.items())},
            "sample_count": self.sample_count,
            "per_class_top1": {str(k): v for k, v in sorted(self.per_class_top1.items())},
        }


def evaluate(logits: np.ndarray, labels, topn_list=(1, 5)) -> EvalReport:
    """Top-N and per-class top-1 accuracy of `logits` [N, classes] against `labels`."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValidationError("evaluation needs a non-empty test set")
    n_classes = logits.shape[1]
    topn = {}
    for n in topn_list:
        if not 1 <= n <= n_classes:
            raise ValidationError(f"N must be in [1, {n_classes}]")
        topn[int(n)] = float(_topn_hits(logits, labels, n).mean())
    top1 = _topn_hits(logits, labels, 1)
    per_class = {}
    for c in sorted(set(labels.tolist())):
        sel = labels == c
        per_class[int(c)] = float(top1[sel].mean())
    return EvalReport(topn=topn, sample_count=len(labels), per_class_top1=per_class)
