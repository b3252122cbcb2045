import re
import weakref

import numpy as np
import pytest

from metaretrain import orchestrator
from metaretrain.data import subsample_and_split
from metaretrain.errors import NonFiniteError, ValidationError
from metaretrain.metrics import EvalReport
from metaretrain.nn import Dense, Flatten, Model, ModelSpec
from metaretrain.orchestrator import (
    CycleConfig,
    CycleRecord,
    RunHistory,
    StoppingCriterion,
    resume_state_from,
    run_cycles,
    should_stop,
)
from metaretrain.relations import catalog_default
from metaretrain.synthdigits import make_digits
from metaretrain.tester import RobustnessReport
from metaretrain.trainers import TRAINER_NAMES, LossBreakdown


def small_setup(seed=0, n=80):
    split = subsample_and_split(make_digits(n, seed=seed), 1.0, (0.2, 0.6, 0.2), seed=seed)
    model = Model(ModelSpec((1, 28, 28), 10, (Flatten(), Dense(10))), seed=seed)
    catalog = catalog_default("mnist")
    return model, split, catalog


class Stream(list):
    """A cycle stream stand-in: its items, `steps_per_epoch` to an epoch."""

    def __init__(self, items, steps_per_epoch):
        super().__init__(items)
        self.steps_per_epoch = steps_per_epoch


def config(**kw):
    defaults = dict(mode="base", trainer="fixmatch", cycles=2, epochs_per_cycle=1,
                    batch_size=8, seed=0, num_classes=10, learning_rate=0.05,
                    robustness_cases=8, topn=(1, 5))
    defaults.update(kw)
    return CycleConfig(**defaults)


# one row per check CycleConfig makes: keyword overrides, then the field its
# error must start with, which is also the config key
BAD_CYCLE_CONFIGS = {
    "mode": ({"mode": "turbo"}, "mode"),
    "trainer": ({"trainer": "meanteacher"}, "trainer"),
    "cycles": ({"cycles": 0}, "cycles"),
    "epochs": ({"epochs_per_cycle": 0}, "epochs_per_cycle"),
    "batch-size": ({"batch_size": 0}, "batch_size"),
    "batch-size-mix": ({"trainer": "mixmatch", "batch_size": 1}, "batch_size"),
    "pass-threshold": ({"pass_threshold": 1.5}, "pass_threshold"),
    "pass-threshold-nan": ({"pass_threshold": float("nan")}, "pass_threshold"),
    "learning-rate": ({"learning_rate": -0.1}, "learning_rate"),
    "learning-rate-nan": ({"learning_rate": float("nan")}, "learning_rate"),
    "momentum": ({"momentum": 1.0}, "momentum"),
    "robustness-cases": ({"robustness_cases": 0}, "robustness_cases"),
    "topn-without-1": ({"topn": (5,)}, "topn"),
    "topn-empty": ({"topn": ()}, "topn"),
    "topn-above-classes": ({"topn": (1, 11)}, "topn"),
    "stopping-metric": ({"stopping": StoppingCriterion("f1", "gte", 0.5)}, "stopping"),
    "stopping-unrecorded-topn": ({"stopping": StoppingCriterion("top7_accuracy", "gte", 0.5)}, "stopping"),
}


def scripted_scores(monkeypatch, sr_values):
    """Deterministic fake tester in the loop: evaluation k reports sr_values[k]
    as SR_MT and top-1 accuracy and fails no relation. Returns the call log."""
    calls = {"n": 0, "models": []}

    def fake_robustness(model, relations, samples, **kwargs):
        sr = sr_values[min(calls["n"], len(sr_values) - 1)]
        calls["n"] += 1
        calls["models"].append(model)
        return RobustnessReport(sr_mt=sr, total_cases=1, outcomes=(), model_version=model.version,
                                accuracy=EvalReport(topn={1: sr}, sample_count=1, per_class_top1={}))

    monkeypatch.setattr(orchestrator, "robustness", fake_robustness)
    return calls


class TestShouldStop:
    def record(self, sr=0.5, acc=0.5):
        return CycleRecord(cycle=0, sr_mt=sr, accuracy={1: acc}, suites=[], loss_stats={},
                           failed_ids=[], passed_ids=[], policy={}, model_version=0)

    def test_sr_threshold_not_met(self):
        crit = StoppingCriterion("sr_mt", "gte", 0.9)
        assert not should_stop([self.record(sr=0.85)], crit)
        assert should_stop([self.record(sr=0.95)], crit)

    def test_degradation_guard(self):
        crit = StoppingCriterion("top1_accuracy", "lte", 0.2)
        assert should_stop([self.record(acc=0.1)], crit)
        assert not should_stop([self.record(acc=0.5)], crit)

    def test_invalid_criterion_rejected(self):
        with pytest.raises(ValidationError):
            StoppingCriterion(metric="sr_mt", direction="above", value=0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, value):
        # NaN never crosses a threshold, so such a run would never stop
        with pytest.raises(ValidationError, match="finite"):
            StoppingCriterion(metric="sr_mt", direction="gte", value=value)

    @pytest.mark.parametrize("value", [-1e-9, 1 + 1e-9, 1.5])
    def test_value_outside_a_fraction_rejected(self, value):
        # every stopping metric is a fraction, so such a run would never stop
        with pytest.raises(ValidationError, match=re.escape(f"must be in [0, 1], got {value}")):
            StoppingCriterion(metric="sr_mt", direction="gte", value=value)

    @pytest.mark.parametrize("value", [0, 0.0, 1, 1.0])
    def test_value_at_either_end_of_a_fraction_accepted(self, value):
        assert StoppingCriterion(metric="top1_accuracy", direction="lte", value=value).value == value

    def test_unknown_metric_rejected(self):
        crit = StoppingCriterion("f1", "gte", 0.5)
        with pytest.raises(ValidationError):
            should_stop([self.record()], crit)

    @pytest.mark.parametrize("name", ["topx_accuracy", "top_accuracy", "top-1_accuracy", "top5_accuracy"])
    def test_malformed_or_unrecorded_topn_metric_rejected(self, name):
        crit = StoppingCriterion(name, "gte", 0.5)
        with pytest.raises(ValidationError, match=name):
            should_stop([self.record()], crit)


class TestRunCycles:
    def test_single_base_cycle(self, monkeypatch):
        model, split, catalog = small_setup()
        calls = scripted_scores(monkeypatch, [0.5, 0.6])
        history = run_cycles(model, split, config(cycles=1), catalog)
        assert len(history.records) == 1
        assert history.termination == "completed"
        # one in-cycle tester run plus the appended final evaluation, both on the live model
        assert calls["n"] == 2
        assert all(m is model for m in calls["models"])
        assert history.records[0].cycle == 0
        assert history.records[0].loss_stats["steps"] > 0

    def test_threshold_met_at_cycle_three(self, monkeypatch):
        model, split, catalog = small_setup()
        scripted_scores(monkeypatch, [0.5, 0.7, 0.8, 0.96, 0.97, 0.97])
        cfg = config(cycles=10, stopping=StoppingCriterion("sr_mt", "gte", 0.95))
        builds = []
        build = orchestrator.build_cycle_stream
        monkeypatch.setattr(orchestrator, "build_cycle_stream", lambda spec: builds.append(spec) or build(spec))
        history = run_cycles(model, split, cfg, catalog)
        assert [r.cycle for r in history.records] == [0, 1, 2, 3]
        assert history.termination == "threshold_met"
        # one stream per cycle that trained, none for the cycle the stop skipped
        assert [spec.cycle_index for spec in builds] == [0, 1, 2, 3]

    def test_each_batch_is_dropped_before_the_next_is_built(self, monkeypatch):
        model, split, catalog = small_setup(seed=1)
        live_at_build = []

        class Watched:
            """The cycle's stream, counting earlier batches still alive each
            time the next one is asked for."""

            def __init__(self, stream):
                self.stream, self.steps_per_epoch = stream, stream.steps_per_epoch

            def __iter__(self):
                batches, refs = iter(self.stream), []
                for _ in range(len(self.stream)):
                    live_at_build.append(sum(ref() is not None for ref in refs))
                    batch = next(batches)
                    refs.append(weakref.ref(batch))
                    yield batch
                    del batch

        build = orchestrator.build_cycle_stream
        monkeypatch.setattr(orchestrator, "build_cycle_stream", lambda spec: Watched(build(spec)))
        scripted_scores(monkeypatch, [0.5, 0.6, 0.7])
        history = run_cycles(model, split, config(cycles=2, epochs_per_cycle=2), catalog)
        assert len(live_at_build) == sum(r.loss_stats["steps"] for r in history.records) > 2
        assert set(live_at_build) == {0}

    def test_loop_takes_no_snapshots_without_checkpoints(self, monkeypatch):
        model, split, catalog = small_setup(seed=2)
        calls = {"snapshot": 0, "from_snapshot": 0}
        snapshot, from_snapshot = Model.snapshot, Model.from_snapshot

        def counted_snapshot(self):
            calls["snapshot"] += 1
            return snapshot(self)

        def counted_from_snapshot(snap):
            calls["from_snapshot"] += 1
            return from_snapshot(snap)

        monkeypatch.setattr(Model, "snapshot", counted_snapshot)
        monkeypatch.setattr(Model, "from_snapshot", staticmethod(counted_from_snapshot))
        history = run_cycles(model, split, config(cycles=2), catalog)
        assert len(history.records) == 2
        assert calls == {"snapshot": 0, "from_snapshot": 0}

    def test_epoch_hook_gets_cycle_and_epoch_before_each_epoch_first_step(self):
        calls = []

        class Spy:
            def on_epoch_start(self, cycle, epoch):
                calls.append((cycle, epoch))

            def step(self, batch):
                calls.append(batch)
                return LossBreakdown(l_sup=float(batch), l_unsup=0.0, l_penalty=0.0, total=float(batch),
                                     mask_rate=0.5, lambda_u=1.0, lambda_p=0.0)

        stats, diag = orchestrator._train_one_cycle(Spy(), Stream(range(6), 2), 3, None)
        assert calls == [(3, 0), 0, 1, (3, 1), 2, 3, (3, 2), 4, 5]
        assert diag is None and stats == {"l_sup_mean": 2.5, "l_unsup_mean": 0.0, "l_penalty_mean": 0.0,
                                          "total_mean": 2.5, "mask_rate_mean": 0.5, "steps": 6}

    @pytest.mark.parametrize("fails", [False, True])
    def test_cycle_without_steps_reports_zero_or_nan_if_a_non_finite_loss_stopped_it(self, fails):
        class Failing:
            def on_epoch_start(self, cycle, epoch):
                pass

            def step(self, batch):
                raise NonFiniteError("non-finite value produced by op 'mul'")

        stats, diag = orchestrator._train_one_cycle(Failing(), Stream(range(2 if fails else 0), 1), 0, None)
        assert stats["steps"] == 0 and diag == ("non-finite value produced by op 'mul'" if fails else None)
        means = [v for k, v in stats.items() if k != "steps"]
        assert len(means) == 5 and all(np.isnan(v) if fails else v == 0.0 for v in means)

    def test_metrics_sink_receives_every_step(self, monkeypatch):
        model, split, catalog = small_setup()
        rows = []
        scripted_scores(monkeypatch, [0.1])
        history = run_cycles(model, split, config(cycles=2), catalog, metrics_sink=rows.append)
        total_steps = sum(r.loss_stats["steps"] for r in history.records)
        assert len(rows) == total_steps
        assert {"cycle", "step", "l_sup", "l_unsup", "l_penalty", "total", "mask_rate"} <= set(rows[0])

    def test_adaptive_strong_pool_follows_failed_set(self):
        model, split, catalog = small_setup(seed=3)
        cfg = config(mode="adaptive", cycles=5, epochs_per_cycle=2, learning_rate=0.1)
        history = run_cycles(model, split, cfg, catalog)
        records = history.records
        assert len(records) == 5
        assert records[0].policy["fallback_used"]  # cycle 0 has no partition yet
        for k in range(len(records) - 1):
            nxt = records[k + 1].policy
            if records[k].failed_ids:
                assert nxt["strong_pool"] == records[k].failed_ids
                assert not nxt["fallback_used"]
            else:
                assert nxt["fallback_used"]

    def test_base_mode_ignores_tester(self, monkeypatch):
        model_a, split, catalog = small_setup(seed=4)
        model_b, _, _ = small_setup(seed=4)
        real = run_cycles(model_a, split, config(cycles=2), catalog)
        scripted_scores(monkeypatch, [0.0])
        stubbed = run_cycles(model_b, split, config(cycles=2), catalog)
        pa = {n: p.data for n, p in model_a.named_parameters()}
        pb = {n: p.data for n, p in model_b.named_parameters()}
        for n in pa:
            assert np.array_equal(pa[n], pb[n])
        assert real.final_version == stubbed.final_version

    def test_deterministic_replay(self):
        model_a, split, catalog = small_setup(seed=6)
        model_b, _, _ = small_setup(seed=6)
        h1 = run_cycles(model_a, split, config(mode="adaptive", cycles=3), catalog)
        h2 = run_cycles(model_b, split, config(mode="adaptive", cycles=3), catalog)
        assert h1.to_dict() == h2.to_dict()

    def test_nan_loss_aborts_with_partial_history(self, monkeypatch):
        model, split, catalog = small_setup(seed=7)
        cfg = config(cycles=4, learning_rate=1e38)
        scripted_scores(monkeypatch, [0.2])
        history = run_cycles(model, split, cfg, catalog)
        assert history.termination == "aborted_nan"
        assert len(history.records) < 4
        assert history.final_eval.get("aborted")

    def test_cycle_indices_contiguous_and_versions_monotone(self):
        model, split, catalog = small_setup(seed=8)
        history = run_cycles(model, split, config(cycles=3, mode="static"), catalog)
        cycles = [r.cycle for r in history.records]
        assert cycles == list(range(len(cycles)))
        versions = [r.model_version for r in history.records]
        assert versions == sorted(versions)
        # robustness was computed on the pre-retraining model each cycle
        assert versions[0] == 0

    def test_history_save_load_roundtrip(self, tmp_path):
        model, split, catalog = small_setup(seed=9)
        history = run_cycles(model, split, config(cycles=2), catalog)
        path = tmp_path / "history.json"
        history.save(path)
        loaded = RunHistory.load(path)
        assert loaded.to_dict() == history.to_dict()

    @pytest.mark.parametrize("trainer", TRAINER_NAMES)
    def test_resume_reproduces_straight_run(self, tmp_path, trainer):
        # two epochs a cycle: FlexMatch's status resets at each, MixMatch reseeds at the first
        model_a, split, catalog = small_setup(seed=10)
        cfg4 = config(mode="adaptive", cycles=4, epochs_per_cycle=2, trainer=trainer, batch_size=8)
        straight = run_cycles(model_a, split, cfg4, catalog, checkpoint_dir=tmp_path / "a")

        model_b, _, _ = small_setup(seed=10)
        cfg2 = config(mode="adaptive", cycles=2, epochs_per_cycle=2, trainer=trainer, batch_size=8)
        first = run_cycles(model_b, split, cfg2, catalog, checkpoint_dir=tmp_path / "b")
        model_c, state = resume_state_from(first, tmp_path / "b", catalog)
        resumed = run_cycles(model_c, split, cfg4, catalog, resume=state, checkpoint_dir=tmp_path / "b")

        assert [r.to_dict() for r in resumed.records] == [r.to_dict() for r in straight.records]
        pa = {n: p.data for n, p in model_a.named_parameters()}
        pc = {n: p.data for n, p in model_c.named_parameters()}
        for n in pa:
            assert np.array_equal(pa[n], pc[n])

    def test_zero_learning_rate_accepted(self):
        assert config(learning_rate=0.0).learning_rate == 0.0

    @pytest.mark.parametrize("row", sorted(BAD_CYCLE_CONFIGS))
    def test_invalid_config_rejected(self, row):
        overrides, key = BAD_CYCLE_CONFIGS[row]
        with pytest.raises(ValidationError, match=f"^{key}: "):
            config(**overrides)
