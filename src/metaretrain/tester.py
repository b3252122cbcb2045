"""Score a model with metamorphic relations, partition the relations.

Each relation is tested on the same case rows of a labeled split. Per case the
model passes when its prediction on the transformed image matches the
reference: for label-preserving relations the reference is the model's own
prediction on the source (self-consistency, usable without labels); for
non-label-preserving relations it is the mapped ground truth. The global
success rate over all cases is the robustness metric. One `robustness()` call
scores a model: it forwards the split once, converting it to float32 a block
of `PREDICT_CHUNK` rows at a time, and those logits give the report's top-N
accuracy and every label-preserving reference. Each relation then transforms
its cases a block at a time, one transform call and one forward per block, so
neither a float32 copy nor a transform's temporaries span the split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Samples, to_model_input
from .errors import ValidationError
from .metrics import EvalReport, evaluate, table_logits
from .nn import Model
from .nn.layers import PREDICT_CHUNK
from .relations import LABEL_PRESERVING, label_map_array

PASS_THRESHOLD = 0.8  # default success rate at or above which a relation passes


@dataclass(frozen=True)
class SuiteOutcome:
    mr: object
    bits: np.ndarray  # int8 per-case results
    success_rate: float
    verdict: str  # "passed" | "failed"
    mode: str  # "consistency" | "mapped_truth"

    def to_record(self) -> dict:
        return {
            "suite_id": self.mr.id,  # one suite per relation, so the relation names it
            "mr_id": self.mr.id,
            "n_cases": int(self.bits.size),
            "success_rate": self.success_rate,
            "verdict": self.verdict,
            "mode": self.mode,
        }


@dataclass(frozen=True)
class RobustnessReport:
    sr_mt: float
    total_cases: int
    outcomes: tuple
    model_version: int
    accuracy: EvalReport  # top-N accuracy over every row of the split, not only the cases

    def to_dict(self) -> dict:
        return {
            "sr_mt": self.sr_mt,
            "total_cases": self.total_cases,
            "model_version": self.model_version,
            "suites": [o.to_record() for o in self.outcomes],
        }

    def to_text(self) -> str:
        lines = [f"{'suite':24s} {'cases':>5s} {'rate':>7s} verdict  mode"]
        for o in self.outcomes:
            lines.append(
                f"{o.mr.id:24s} {o.bits.size:5d} {o.success_rate:7.4f} {o.verdict:7s}  {o.mode}"
            )
        lines.append(f"SR_MT = {self.sr_mt:.4f} over {self.total_cases} cases (model v{self.model_version})")
        return "\n".join(lines)


def _score(model: Model, mr, cases: Samples, predicted: np.ndarray, pass_threshold: float,
           seed: int) -> SuiteOutcome:
    """`predicted` is the model's prediction per case."""
    preds_t = []
    for start in range(0, len(cases), PREDICT_CHUNK):
        block = cases.take(slice(start, start + PREDICT_CHUNK))
        transformed = mr.transform(block.pixels, block.keys(seed))
        preds_t.append(np.argmax(model.predict_logits(to_model_input(transformed)), axis=1))
    preds_t = np.concatenate(preds_t)
    mode = "consistency" if mr.kind == LABEL_PRESERVING else "mapped_truth"
    reference = predicted if mode == "consistency" else cases.labels
    table = label_map_array(mr, model.spec.num_classes)
    bits = (preds_t == table[reference]).astype(np.int8)
    rate = float(bits.mean())
    verdict = "passed" if rate >= pass_threshold else "failed"
    return SuiteOutcome(mr=mr, bits=bits, success_rate=rate, verdict=verdict, mode=mode)


def robustness(model: Model, relations, samples: Samples, *, max_cases: Optional[int] = None,
               pass_threshold: float = PASS_THRESHOLD, seed: int = 0, topn=(1,)) -> RobustnessReport:
    """SR_MT over every case of every relation, per-relation outcomes, and
    top-`topn` accuracy over every row of `samples`.

    Every relation is tested on the same cases: every row of `samples`, or a
    `seed`-drawn `max_cases` of them in table order. A relation may appear
    once only, so its id names its outcome.
    """
    relations = list(relations)
    if not relations:
        raise ValidationError("robustness() needs at least one relation")
    if not samples:
        raise ValidationError("robustness() needs at least one sample")
    if max_cases is not None and max_cases < 1:
        raise ValidationError(f"max_cases: must be at least 1, got {max_cases}")
    if not 0.0 <= pass_threshold <= 1.0:
        raise ValidationError("pass_threshold must be in [0, 1]")
    ids = [mr.id for mr in relations]
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise ValidationError(f"one suite per relation; repeated: {', '.join(repeated)}")
    # converted a chunk at a time: no float32 copy of the split is made
    logits = table_logits(model, samples.pixels)
    accuracy = evaluate(logits, samples.labels, topn_list=topn)
    cases, predicted = samples, np.argmax(logits, axis=1)
    if max_cases is not None and len(samples) > max_cases:
        rows = np.sort(np.random.default_rng(seed).permutation(len(samples))[:max_cases])
        cases, predicted = samples.take(rows), predicted[rows]
    outcomes = sorted((_score(model, mr, cases, predicted, pass_threshold, seed) for mr in relations),
                      key=lambda o: o.mr.id)
    total = sum(o.bits.size for o in outcomes)
    passes = sum(int(o.bits.sum()) for o in outcomes)
    return RobustnessReport(sr_mt=passes / total, total_cases=total, outcomes=tuple(outcomes),
                            model_version=model.version, accuracy=accuracy)


def partition(outcomes):
    """Split tested relations into (failed, passed) by verdict."""
    failed = [o.mr for o in outcomes if o.verdict == "failed"]
    passed = [o.mr for o in outcomes if o.verdict == "passed"]
    return failed, passed
