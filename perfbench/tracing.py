"""Per-layer spans for the traced benchmark run.

Every span is recorded by a wrapper defined in this file and installed over a
public function of a `metaretrain` module for the duration of one traced
pass; nothing inside the package is edited. A wrapper replaces the function
in its defining module and in every `metaretrain` module that imported it by
name, so callers reach the wrapper however they spell the call.

A span's self time is its duration minus the time of the spans nested in it.
A layer's self time is the sum over the spans named after it, so the self
times of all layers plus the time outside every span add up to the pass.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# span names are "<layer>.<function>"; the layer is the module's short name
LAYERS = ("cli", "orchestrator", "tester", "metrics", "policy", "relations", "trainers",
          "layers", "functional", "tensor", "optim", "checkpoint", "data")


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregated spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self.conv_shapes: dict[tuple, dict] = {}
        self._child_time: list[float] = []  # one slot per open span
        self._active: Counter = Counter()  # open span names

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def timed(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(result, args, kwargs, seconds)` runs
        outside the span so its bookkeeping is not charged to the layer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            self._active[name] += 1
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                self._active[name] -= 1
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                stats = self.spans[name]
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
            if after is not None:
                after(result, args, kwargs, elapsed)
            return result

        return wrapper

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, stats in self.spans.items():
            out[name.split(".", 1)[0]] += stats.self_s
        return out

    def total_self_s(self) -> float:
        return sum(stats.self_s for stats in self.spans.values())


def conv2d_cost(x_shape, w_shape, stride: int, padding: int) -> dict:
    """Computed work of one `functional.conv2d` forward call.

    MACs count the multiply-adds of the contraction. Bytes count every array
    the forward materialises, once written and once read: the float32 input,
    its padded copy, the float64 copy of the sliding windows, the float64
    weight copy, and the float64 output with its float32 cast. Cache misses
    and einsum's internal copies are not counted.
    """
    B, Cin, H, W = x_shape
    Cout, _, KH, KW = w_shape
    Hp, Wp = H + 2 * padding, W + 2 * padding
    Ho, Wo = (Hp - KH) // stride + 1, (Wp - KW) // stride + 1
    macs = B * Cout * Ho * Wo * Cin * KH * KW
    moved = 4 * B * Cin * H * W
    if padding:
        moved += 2 * 4 * B * Cin * Hp * Wp
    moved += 2 * 8 * B * Cin * Ho * Wo * KH * KW  # float64 windows
    moved += 4 * Cout * Cin * KH * KW + 2 * 8 * Cout * Cin * KH * KW
    moved += 2 * 8 * B * Cout * Ho * Wo + 4 * B * Cout * Ho * Wo
    return {"macs": macs, "bytes": moved}


class Instrumentation:
    """Installs the tracer's wrappers over the package and removes them again."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "metaretrain" or mod_name.startswith("metaretrain.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _wrap_function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        self._replace_everywhere(original, self.tracer.timed(name, original, after))

    def _wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        raw = cls.__dict__[attr]
        self._undo.append((cls, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(self.tracer.timed(name, raw.__func__, after)))
        else:
            setattr(cls, attr, self.tracer.timed(name, raw, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def install(self) -> None:
        import metaretrain.cli  # noqa: F401  (imports every module the passes use)
        from metaretrain import data, metrics, orchestrator, policy, relations, tester, trainers
        from metaretrain.nn import Model, SGD, Tensor, checkpoint, functional

        self._wrap_function(orchestrator, "run_cycles", "orchestrator.run_cycles", self._after_run_cycles)
        self._wrap_function(tester, "robustness", "tester.robustness", self._after_robustness)
        self._wrap_function(metrics, "evaluate", "metrics.evaluate")
        self._wrap_function(policy, "build_cycle_stream", "policy.build_cycle_stream", self._after_stream)
        self._wrap_method(trainers.Trainer, "step", "trainers.step", self._after_step)
        self._wrap_method(Model, "forward", "layers.forward", self._after_forward)
        self._wrap_method(Model, "predict_logits", "layers.predict_logits", self._after_predict)
        self._wrap_method(Model, "from_snapshot", "layers.from_snapshot")
        self._wrap_method(Model, "snapshot", "layers.snapshot")
        self._wrap_function(functional, "conv2d", "functional.conv2d.fwd", self._after_conv2d)
        self._wrap_function(functional, "maxpool2d", "functional.maxpool2d.fwd", self._after_maxpool2d)
        self._wrap_function(functional, "dense", "functional.dense.fwd")
        self._wrap_function(functional, "softmax_cross_entropy", "functional.loss")
        self._wrap_function(functional, "soft_mse", "functional.loss")
        self._wrap_method(Tensor, "backward", "tensor.backward")
        self._wrap_method(SGD, "step", "optim.sgd_step")
        self._wrap_function(checkpoint, "save_checkpoint", "checkpoint.save", self._after_save)
        self._wrap_function(checkpoint, "load_checkpoint", "checkpoint.load")
        self._wrap_function(data, "load_mnist", "data.load_mnist")
        self._wrap_function(data, "subsample_and_split", "data.split")

        # relations are values, not module functions: time the transform of
        # every catalog relation; compositions call their components' transforms
        original_catalog = relations.catalog_default

        def traced_catalog(dataset_kind):
            return [dataclasses.replace(mr, transform=self.tracer.timed("relations.transform", mr.transform,
                                                                          self._after_transform))
                    for mr in original_catalog(dataset_kind)]

        self._replace_everywhere(original_catalog, traced_catalog)

    # -- counters, recorded outside the spans --------------------------------

    def _after_run_cycles(self, history, args, kwargs, elapsed) -> None:
        self.tracer.samples["orchestrator.cycle_s"].extend(r.wall_time for r in history.records)

    def _after_robustness(self, report, args, kwargs, elapsed) -> None:
        self.tracer.counts["tester.cases"] += report.total_cases

    def _after_stream(self, stream, args, kwargs, elapsed) -> None:
        counts = self.tracer.counts
        for batch in stream.batches:
            weak = batch.x_unlabeled_weak
            counts["policy.stream_images"] += (batch.x_labeled.shape[0] + weak.shape[0] * weak.shape[1]
                                               + batch.x_unlabeled_strong.shape[0])
            counts["policy.stream_bytes"] += sum(a.nbytes for a in (
                batch.x_labeled, batch.y_labeled, weak, batch.x_unlabeled_strong, batch.strong_label_maps))

    def _after_step(self, breakdown, args, kwargs, elapsed) -> None:
        n_unlabeled = args[1].n_unlabeled
        counts = self.tracer.counts
        counts["trainers.unlabeled"] += n_unlabeled
        counts["trainers.masked"] += breakdown.mask_rate * n_unlabeled
        if n_unlabeled and breakdown.mask_rate == 0.0:
            counts["trainers.strong_forward_skipped"] += 1
        self.tracer.samples["trainers.step_s"].append(elapsed)

    def _after_forward(self, out, args, kwargs, elapsed) -> None:
        self.tracer.counts["layers.forward_images"] += args[1].data.shape[0]

    def _after_predict(self, logits, args, kwargs, elapsed) -> None:
        t = self.tracer
        n = logits.shape[0]
        t.counts["layers.predict_images"] += n
        if t.active("tester.robustness"):
            t.counts["tester.images_forwarded"] += n
        elif t.active("metrics.evaluate"):
            t.counts["metrics.images_forwarded"] += n

    def _after_conv2d(self, out, args, kwargs, elapsed) -> None:
        x, weight = args[0], args[1]
        stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
        padding = args[4] if len(args) > 4 else kwargs.get("padding", 0)
        key = (tuple(x.data.shape), tuple(weight.data.shape), int(stride), int(padding))
        entry = self.tracer.conv_shapes.get(key)
        if entry is None:
            entry = self.tracer.conv_shapes[key] = dict(conv2d_cost(*key), calls=0)
        entry["calls"] += 1
        if out._backward is not None:
            out._backward = self.tracer.timed("functional.conv2d.bwd", out._backward)

    def _after_maxpool2d(self, out, args, kwargs, elapsed) -> None:
        if out._backward is not None:
            out._backward = self.tracer.timed("functional.maxpool2d.bwd", out._backward)

    def _after_save(self, result, args, kwargs, elapsed) -> None:
        self.tracer.counts["checkpoint.bytes_written"] += os.path.getsize(args[1])

    def _after_transform(self, image, args, kwargs, elapsed) -> None:
        if self.tracer.active("tester.robustness"):
            self.tracer.counts["tester.transform_s"] += elapsed


def _percentile_ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1000.0 if values else 0.0


def layer_metrics(tracer: Tracer, pass_s: float, make_s: float) -> dict:
    """Per-layer metric values of one traced pass of `pass_s` seconds."""
    spans, counts, samples = tracer.spans, tracer.counts, tracer.samples
    conv = tracer.conv_shapes.values()
    tester_cases = counts["tester.cases"]
    unlabeled = counts["trainers.unlabeled"]
    values = {
        "functional.conv2d.fwd_s": spans["functional.conv2d.fwd"].total_s,
        "functional.conv2d.bwd_s": spans["functional.conv2d.bwd"].total_s,
        "functional.conv2d.calls": spans["functional.conv2d.fwd"].calls,
        "functional.conv2d.macs": sum(e["macs"] * e["calls"] for e in conv),
        "functional.conv2d.bytes": sum(e["bytes"] * e["calls"] for e in conv),
        "functional.conv2d.bwd_calls": spans["functional.conv2d.bwd"].calls,
        "functional.maxpool2d.fwd_s": spans["functional.maxpool2d.fwd"].total_s,
        "functional.maxpool2d.bwd_s": spans["functional.maxpool2d.bwd"].total_s,
        "functional.dense.fwd_s": spans["functional.dense.fwd"].total_s,
        "functional.loss_s": spans["functional.loss"].total_s,
        "layers.forward_s": spans["layers.forward"].total_s,
        "layers.forward_images": counts["layers.forward_images"],
        "layers.predict_logits_s": spans["layers.predict_logits"].total_s,
        "layers.predict_images": counts["layers.predict_images"],
        "layers.from_snapshot_s": spans["layers.from_snapshot"].total_s,
        "layers.from_snapshot_calls": spans["layers.from_snapshot"].calls,
        "layers.snapshot_s": spans["layers.snapshot"].total_s,
        "tensor.backward_s": spans["tensor.backward"].total_s,
        "optim.sgd_step_s": spans["optim.sgd_step"].total_s,
        "optim.steps": spans["optim.sgd_step"].calls,
        "tester.robustness_s": spans["tester.robustness"].total_s,
        "tester.cases": tester_cases,
        "tester.images_forwarded": counts["tester.images_forwarded"],
        "tester.images_per_case": counts["tester.images_forwarded"] / tester_cases if tester_cases else 0.0,
        "tester.transform_s": counts["tester.transform_s"],
        "metrics.evaluate_s": spans["metrics.evaluate"].total_s,
        "metrics.images_forwarded": counts["metrics.images_forwarded"],
        "policy.stream_build_s": spans["policy.build_cycle_stream"].total_s,
        "policy.stream_builds": spans["policy.build_cycle_stream"].calls,
        "policy.stream_images": counts["policy.stream_images"],
        "policy.stream_bytes": counts["policy.stream_bytes"],
        "relations.transform_s": spans["relations.transform"].total_s,
        "relations.transform_calls": spans["relations.transform"].calls,
        "trainers.step_s": spans["trainers.step"].total_s,
        "trainers.step_ms_p50": _percentile_ms(samples["trainers.step_s"], 50),
        "trainers.step_ms_p90": _percentile_ms(samples["trainers.step_s"], 90),
        "trainers.steps": spans["trainers.step"].calls,
        "trainers.mask_rate": counts["trainers.masked"] / unlabeled if unlabeled else 0.0,
        "trainers.strong_forward_skipped": counts["trainers.strong_forward_skipped"],
        "orchestrator.cycle_s": float(np.median(samples["orchestrator.cycle_s"]))
        if samples["orchestrator.cycle_s"] else 0.0,
        "orchestrator.cycles": len(samples["orchestrator.cycle_s"]),
        "checkpoint.save_s": spans["checkpoint.save"].total_s,
        "checkpoint.load_s": spans["checkpoint.load"].total_s,
        "checkpoint.bytes_written": counts["checkpoint.bytes_written"],
        "data.load_mnist_s": spans["data.load_mnist"].total_s,
        "data.split_s": spans["data.split"].total_s,
        "synthdigits.make_s": make_s,
        "trace.run_s": pass_s,
        "trace.unattributed_s": pass_s - tracer.total_self_s(),
    }
    for layer, self_s in tracer.layer_self_s().items():
        values[f"{layer}.self_s"] = self_s
    return values
