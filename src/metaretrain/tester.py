"""Build metamorphic test suites, score a model, partition relations.

A suite pairs one relation with a set of source images. Per case the model
passes when its prediction on the transformed image matches the reference:
for label-preserving relations the reference is the model's own prediction on
the source (self-consistency, usable without labels); for non-label-preserving
relations it is the mapped ground truth. The global success rate over all cases
is the robustness metric. One `robustness()` call predicts each source set once
and checks every label-preserving relation's follow-up images against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import to_model_input
from .errors import ValidationError
from .nn import Model
from .relations import LABEL_PRESERVING, label_map_array


@dataclass(frozen=True)
class TestSuite:
    __test__ = False  # not a pytest class

    mr: object
    sources: tuple

    def __post_init__(self):
        if not self.sources:
            raise ValidationError("a test suite needs at least one source sample")

    @property
    def n_cases(self) -> int:
        return len(self.sources)


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


def build_suites(mrs, sources, max_cases: Optional[int] = None, seed: int = 0) -> list:
    """One suite per relation over a shared source set."""
    sources = list(sources)
    if not sources:
        raise ValidationError("no source samples for suite construction")
    if max_cases is not None and max_cases < 1:
        raise ValidationError(f"max_cases: must be at least 1, got {max_cases}")
    if max_cases is not None and len(sources) > max_cases:
        order = np.random.default_rng(seed).permutation(len(sources))[:max_cases]
        sources = [sources[i] for i in sorted(order)]
    shared = tuple(sources)  # one tuple object, so robustness() predicts it once
    return [TestSuite(mr=mr, sources=shared) for mr in mrs]


def _predict(model: Model, images) -> np.ndarray:
    # to_model_input is elementwise, so converting the stack gives each image's own bits
    return np.argmax(model.predict_logits(to_model_input(np.stack(images))), axis=1)


def _score(model: Model, suite: TestSuite, pass_threshold: float, seed: int,
           source_preds: dict) -> SuiteOutcome:
    """`source_preds` maps id(suite.sources) to the model's predictions on those sources."""
    mr = suite.mr
    preds_t = _predict(model, [mr.transform(s.pixels, (seed, s.source_id)) for s in suite.sources])
    if mr.kind == LABEL_PRESERVING:
        mode = "consistency"
        key = id(suite.sources)
        if key not in source_preds:
            source_preds[key] = _predict(model, [s.pixels for s in suite.sources])
        reference = source_preds[key]
    else:
        mode = "mapped_truth"
        reference = np.array([s.label for s in suite.sources])
    table = label_map_array(mr, model.spec.num_classes)
    bits = (preds_t == table[reference]).astype(np.int8)
    rate = float(bits.mean())
    verdict = "passed" if rate >= pass_threshold else "failed"
    return SuiteOutcome(mr=mr, bits=bits, success_rate=rate, verdict=verdict, mode=mode)


def robustness(model: Model, suites, pass_threshold: float = 0.8,
               seed: int = 0) -> RobustnessReport:
    """SR_MT over every case of every suite, plus per-suite outcomes.

    A relation may appear in one suite only, so its id names the suite.
    """
    suites = list(suites)
    if not suites:
        raise ValidationError("robustness() needs at least one suite")
    if not 0.0 <= pass_threshold <= 1.0:
        raise ValidationError("pass_threshold must be in [0, 1]")
    ids = [suite.mr.id for suite in suites]
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise ValidationError(f"one suite per relation; repeated: {', '.join(repeated)}")
    source_preds: dict = {}  # keyed by object id; `suites` keeps every tuple alive
    outcomes = sorted((_score(model, suite, pass_threshold, seed, source_preds) for suite in suites),
                      key=lambda o: o.mr.id)
    total = sum(o.bits.size for o in outcomes)
    passes = sum(int(o.bits.sum()) for o in outcomes)
    return RobustnessReport(
        sr_mt=passes / total, total_cases=total, outcomes=tuple(outcomes), model_version=model.version
    )


def partition(outcomes):
    """Split tested relations into (failed, passed) by verdict."""
    failed = [o.mr for o in outcomes if o.verdict == "failed"]
    passed = [o.mr for o in outcomes if o.verdict == "passed"]
    return failed, passed
