import ast
import gc
import importlib
import inspect
import json
import re
import shutil
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from metaretrain import cli, orchestrator
from metaretrain.cli import main
from metaretrain.config import _SCHEMA, parse_config_text
from metaretrain.data import Samples
from metaretrain.nn import Dense, Flatten, Model, ModelSpec, load_checkpoint, model_spec, save_checkpoint
from metaretrain.nn.layers import ModelSnapshot
from metaretrain.orchestrator import CycleRecord, RunHistory
from metaretrain.synthdigits import make_digits, write_idx


def write_config(path, data_dir, output_dir, **overrides):
    values = {
        "data_dir": data_dir,
        "dataset": "mnist",
        "fraction": 0.002,
        "model": "linear",
        "trainer": "fixmatch",
        "mode": "adaptive",
        "cycles": 2,
        "epochs_per_cycle": 1,
        "batch_size": 16,
        "seeds": "0",
        "robustness_cases": 12,
        "output_dir": output_dir,
    }
    values.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items() if v is not None))
    return path


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# stand-ins in the validation table for paths made inside each test
WARM, ABSENT = "<warm-start checkpoint>", "<absent path>"
# one row per rejecting branch of validate_config: overrides, then the key the error must name
BAD_CONFIGS = {
    "dataset": ({"dataset": "svhn"}, "dataset"),
    "model": ({"model": "resnet18"}, "model"),
    "trainer": ({"trainer": "meanteacher"}, "trainer"),
    "mode": ({"mode": "random"}, "mode"),
    "fraction": ({"fraction": 0}, "fraction"),
    "ratio-sum": ({"ratio_labeled": 0.2, "ratio_unlabeled": 0.7, "ratio_test": 0.2}, "ratio_labeled"),
    "ratio-negative": ({"ratio_labeled": -0.1, "ratio_unlabeled": 0.9, "ratio_test": 0.2}, "ratio_labeled"),
    "ratio-test-zero": ({"ratio_labeled": 0.3, "ratio_unlabeled": 0.7, "ratio_test": 0}, "ratio_test"),
    "ratio-nothing-to-train": ({"ratio_labeled": 0, "ratio_unlabeled": 0, "ratio_test": 1}, "ratio_labeled"),
    # an unlabeled-only split leaves a batch no loss term but mixmatch's with lambda_u > 0
    **{f"ratio-{trainer}-unlabeled-only": ({"trainer": trainer, "ratio_labeled": 0, "ratio_unlabeled": 0.8,
                                            "ratio_test": 0.2}, "ratio_labeled")
       for trainer in ("supervised", "fixmatch", "flexmatch", "fullmatch")},
    "ratio-mixmatch-unlabeled-only-without-lambda-u": ({"trainer": "mixmatch", "lambda_u": 0, "ratio_labeled": 0,
                                                        "ratio_unlabeled": 0.8, "ratio_test": 0.2}, "ratio_labeled"),
    "cycles": ({"cycles": 0}, "cycles"),
    "epochs": ({"epochs_per_cycle": 0}, "epochs_per_cycle"),
    "batch-size": ({"batch_size": 0}, "batch_size"),
    "batch-size-mix": ({"trainer": "mixmatch", "batch_size": 1}, "batch_size"),
    "seeds-empty": ({"seeds": ""}, "seeds"),
    "seeds-negative": ({"seeds": "0,-1"}, "seeds"),
    "pass-threshold": ({"pass_threshold": 1.5}, "pass_threshold"),
    "learning-rate": ({"learning_rate": -0.1}, "learning_rate"),
    "momentum": ({"momentum": 1.0}, "momentum"),
    "robustness-cases": ({"robustness_cases": 0}, "robustness_cases"),
    "trainer-hyperparameter": ({"tau": 1.5}, "tau"),
    "lambda-u-negative": ({"lambda_u": -0.5}, "lambda_u"),
    "lambda-p-negative": ({"lambda_p": -0.5}, "lambda_p"),
    "stopping-parse": ({"stopping": "sometimes"}, "stopping"),
    "stopping-metric": ({"stopping": "metric:f1:gte:0.5"}, "stopping"),
    "stopping-nan": ({"stopping": "metric:sr_mt:gte:nan"}, "stopping"),
    "stopping-inf": ({"stopping": "metric:sr_mt:lte:inf"}, "stopping"),
    # every stopping metric is a fraction, so a value outside [0, 1] would never stop
    "stopping-above-one": ({"stopping": "metric:sr_mt:gte:1.5"}, "stopping"),
    "stopping-below-zero": ({"stopping": "metric:top1_accuracy:lte:-0.1"}, "stopping"),
    "data-dir-unset": ({"data_dir": None}, "data_dir"),
    "data-dir-absent": ({"data_dir": ABSENT}, "data_dir"),
    "warm-start-absent": ({"warm_start": ABSENT}, "warm_start"),
    "trainable-last-k-zero": ({"warm_start": WARM, "trainable_last_k": 0}, "trainable_last_k"),
    "trainable-last-k-negative": ({"warm_start": WARM, "trainable_last_k": -1}, "trainable_last_k"),
    "trainable-last-k-without-warm-start": ({"trainable_last_k": 1}, "trainable_last_k"),
    "topn": ({"topn": "1,11"}, "topn"),
    "topn-empty": ({"topn": ""}, "topn"),
    "topn-without-1": ({"topn": "5"}, "topn"),
    "inf-learning-rate": ({"learning_rate": "inf"}, "learning_rate"),
    "minus-inf-lambda-u": ({"lambda_u": "-inf"}, "lambda_u"),
    # NaN passes range comparisons, so every float key gets a row
    **{f"nan-{key}": ({key: "nan"}, key) for key, (parser, _) in _SCHEMA.items() if parser is float},
}


# history.json contents that are not a run history, then what the error must name
ONE_RECORD = (b'{"cycle": 0, "sr_mt": 0.5, "accuracy": {"1": 0.5}, "suites": [], "loss_stats": {}, '
              b'"failed_ids": [], "passed_ids": [], "policy": {}, "model_version": 0}')


def edited_record(old, new):
    """An unfinished history whose one record has `old` replaced by `new`."""
    return (b'{"config": {}, "records": [' + ONE_RECORD.replace(old, new) + b'], "final_eval": {"sr_mt": null, '
            b'"topn": {}}, "termination": "incomplete", "final_version": 1}')


def with_config(config):
    """A finished history of one record whose config is `config`."""
    return (b'{"config": ' + config + b', "records": [' + ONE_RECORD + b'], "final_eval": {"sr_mt": 0.5, '
            b'"topn": {"1": 0.5}}, "termination": "completed", "final_version": 1}')


MALFORMED_HISTORIES = {
    "not-json": (b"{not json", "not a run history"),
    "not-utf8": (b"\xff\xfe\x00", "not a run history"),
    "no-records": (b'{"config": {}}', "field 'records' is missing"),
    "records-not-a-list": (b'{"config": {}, "records": 5}', "field 'records' is missing or not of type list"),
    "final-eval-without-topn": (b'{"config": {}, "records": [], "final_eval": {"sr_mt": null}, '
                                b'"termination": "incomplete", "final_version": 0}', "'final_eval' lacks"),
    "record-without-cycle": (b'{"config": {}, "records": [{}], "final_eval": {"sr_mt": null, "topn": {}}, '
                             b'"termination": "incomplete", "final_version": 0}', "a record lacks the field 'cycle'"),
    "final-eval-mistyped": (b'{"config": {}, "records": [' + ONE_RECORD + b'], "final_eval": {"sr_mt": "high", '
                            b'"topn": {"1": "x"}}, "termination": "completed", "final_version": 1}',
                            "field 'final_eval.sr_mt'"),
    "topn-not-a-number": (b'{"config": {}, "records": [' + ONE_RECORD + b'], "final_eval": {"sr_mt": 0.5, '
                          b'"topn": {"1": "x"}}, "termination": "completed", "final_version": 1}',
                          "field 'final_eval.topn.1'"),
    "topn-key-not-int": (b'{"config": {}, "records": [' + ONE_RECORD + b'], "final_eval": {"sr_mt": 0.5, '
                         b'"topn": {"a": 1}}, "termination": "completed", "final_version": 1}',
                         "field 'final_eval.topn'"),
    "record-cycle-not-int": (edited_record(b'"cycle": 0', b'"cycle": "0"'), "field 'cycle'"),
    "record-failed-ids-nested": (edited_record(b'"failed_ids": []', b'"failed_ids": [["rot90"]]'),
                                 "field 'failed_ids'"),
    "record-sr-mt-not-a-number": (edited_record(b'"sr_mt": 0.5', b'"sr_mt": "high"'), "field 'sr_mt'"),
    "record-loss-stats-not-numbers": (edited_record(b'"loss_stats": {}', b'"loss_stats": {"total_mean": "x"}'),
                                      "field 'loss_stats'"),
    "record-accuracy-key-not-int": (edited_record(b'"accuracy": {"1": 0.5}', b'"accuracy": {"x": 0.5}'),
                                    "field 'accuracy'"),
    # the report's row and column labels, and the key its dataset check hashes
    "config-trainer-a-list": (with_config(b'{"trainer": ["a"]}'), "field 'config.trainer'"),
    "config-trainer-an-int": (with_config(b'{"trainer": 5}'), "field 'config.trainer'"),
    "config-mode-a-dict": (with_config(b'{"mode": {"x": 1}}'), "field 'config.mode'"),
    "config-dataset-a-list": (with_config(b'{"dataset": [1]}'), "field 'config.dataset'"),
}


def run_dirs(output_dir):
    return sorted(p for p in output_dir.iterdir() if p.is_dir())


def test_readme_run_layout_lists_exactly_the_files_of_a_run(tmp_path, data_dir):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"### Run directory layout\n\n```\n(.*?)```", readme, flags=re.DOTALL)
    listed = sorted(line.split()[0].replace("NNNN", "0000") for line in block.splitlines()[1:])
    cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=1)
    assert main(["run", "--config", str(cfg)]) == 0
    (run_dir,) = run_dirs(tmp_path / "runs")
    assert sorted(tree_bytes(run_dir)) == listed


def test_readme_config_block_names_every_key_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    parse_config_text(block, source="README.md")  # every key known, every value parses
    named = [line.split("=", 1)[0].strip() for line in block.splitlines() if line.split("#", 1)[0].strip()]
    assert named == list(_SCHEMA)


def test_readme_python_block_calls_metaretrain_names_with_arguments_they_take():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    tree = ast.parse(block)
    names = {alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module.startswith("metaretrain")
             for alias in node.names}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert calls and all(isinstance(call.func, ast.Name) and call.func.id in names for call in calls)
    for call in calls:
        args = [ast.literal_eval(arg) for arg in call.args]
        kwargs = {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}
        inspect.signature(names[call.func.id]).bind(*args, **kwargs)  # TypeError on a parameter it lacks


class TestRunCommand:
    def test_minimal_run_completes_with_artifacts(self, tmp_path, data_dir):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs")
        assert main(["run", "--config", str(cfg)]) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        assert (run_dir / "config").exists()
        assert (run_dir / "history.json").exists()
        assert (run_dir / "summary.txt").exists()
        assert (run_dir / "reports" / "metrics.jsonl").exists()
        assert (run_dir / "reports" / "history.csv").exists()
        assert (run_dir / "checkpoints" / "final.ckpt").exists()
        history = RunHistory.load(run_dir / "history.json")
        assert history.termination == "completed"
        assert len(history.records) == 2

    def test_non_finite_loss_exits_3_with_artifacts(self, tmp_path, data_dir):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", model="mlp_small",
                           learning_rate="1e12")
        assert main(["run", "--config", str(cfg)]) == 3
        (run_dir,) = run_dirs(tmp_path / "runs")
        history = RunHistory.load(run_dir / "history.json")
        assert history.termination == "aborted_nan"
        assert history.final_eval["sr_mt"] is None
        summary = (run_dir / "summary.txt").read_text()
        assert "final: not evaluated, the run aborted on a non-finite loss" in summary
        assert "termination: aborted_nan" in summary
        csv_rows = (run_dir / "reports" / "history.csv").read_text().splitlines()
        assert len(csv_rows) > 1 and not any(row.split(",")[4] == "final" for row in csv_rows)
        assert load_checkpoint(run_dir / "checkpoints" / "final.ckpt").spec.num_classes == 10

    def test_resolved_config_reproduces_run(self, tmp_path, data_dir):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs")
        assert main(["run", "--config", str(cfg)]) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        # the materialized config is itself a valid config for a second run
        assert main(["run", "--config", str(run_dir / "config"),
                     "--output-dir", str(tmp_path / "runs2")]) == 0
        (run_dir2,) = run_dirs(tmp_path / "runs2")
        a = (run_dir / "history.json").read_bytes()
        b = json.loads((run_dir2 / "history.json").read_text())
        a = json.loads(a)
        a["config"]["output_dir"] = b["config"]["output_dir"]  # only the destination differs
        assert a == b

    def test_bad_ratios_exit_2_naming_field(self, tmp_path, data_dir, capsys):
        cfg = write_config(tmp_path / "bad.cfg", data_dir, tmp_path / "runs",
                           ratio_labeled=0.2, ratio_unlabeled=0.7, ratio_test=0.2)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "ratio" in err
        assert not (tmp_path / "runs").exists()  # no side effects on invalid config

    def test_removed_static_k_and_stratified_keys_exit_2_before_output(self, tmp_path, data_dir, capsys):
        for key, value in (("static_k", 2), ("stratified", "true")):
            cfg = write_config(tmp_path / "old.cfg", data_dir, tmp_path / "runs", mode="static", **{key: value})
            assert main(["run", "--config", str(cfg)]) == 2
            assert f"unknown key {key!r}" in capsys.readouterr().err
            assert not (tmp_path / "runs").exists()
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", mode="static", cycles=1)
        assert main(["run", "--config", str(cfg)]) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        history = json.loads((run_dir / "history.json").read_text())
        assert "static_k" not in history["config"] and "stratified" not in history["config"]
        history["config"].update(static_k=2, stratified=True)  # what runs wrote while the keys existed
        (run_dir / "history.json").write_text(json.dumps(history))
        before = tree_bytes(run_dir)
        longer = write_config(tmp_path / "longer.cfg", data_dir, tmp_path / "runs", mode="static", cycles=2)
        capsys.readouterr()
        assert main(["run", "--config", str(longer), "--resume", str(run_dir)]) == 2
        assert "--resume: config differs from the run's own in static_k, stratified" in capsys.readouterr().err
        assert tree_bytes(run_dir) == before

    def test_mixmatch_on_an_unlabeled_only_split_completes(self, tmp_path, data_dir):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", trainer="mixmatch",
                           ratio_labeled=0, ratio_unlabeled=0.8, ratio_test=0.2)
        assert main(["run", "--config", str(cfg)]) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        history = RunHistory.load(run_dir / "history.json")
        assert history.termination == "completed" and len(history.records) == 2
        assert all(r.loss_stats["l_sup_mean"] == 0 and r.loss_stats["steps"] > 0 for r in history.records)

    @pytest.mark.parametrize("metric", ["top7_accuracy", "f1"])
    def test_unknown_stopping_metric_exit_2_before_output(self, tmp_path, data_dir, capsys, metric):
        cfg = write_config(tmp_path / "bad.cfg", data_dir, tmp_path / "runs",
                           stopping=f"metric:{metric}:gte:0.5")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "stopping" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_unknown_key_exit_2(self, tmp_path, data_dir, capsys):
        cfg = write_config(tmp_path / "bad.cfg", data_dir, tmp_path / "runs")
        cfg.write_text(cfg.read_text() + "warp_speed = 9\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "warp_speed" in capsys.readouterr().err

    @pytest.mark.parametrize("line,named", [
        ("cycles 3", "13: expected 'key = value', got 'cycles 3'"),
        ("cycles = 3", "13: duplicate key 'cycles'"),
        ("momentum = fast", "13: bad value for 'momentum': could not convert string to float: 'fast'"),
    ], ids=["no-equals", "duplicate-key", "bad-value"])
    def test_config_line_error_exit_2_naming_file_and_line_before_output(self, tmp_path, data_dir, capsys,
                                                                         line, named):
        cfg = write_config(tmp_path / "bad.cfg", data_dir, tmp_path / "runs")
        cfg.write_text(cfg.read_text() + line + "\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}:{named}"]
        assert not (tmp_path / "runs").exists()

    def test_missing_config_file_exit_2_naming_it_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "absent.cfg"
        assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: config file not found: {cfg}"]
        assert not (tmp_path / "runs").exists()

    def test_removed_deterministic_key_exit_2(self, tmp_path, data_dir, capsys):
        cfg = write_config(tmp_path / "old.cfg", data_dir, tmp_path / "runs", deterministic="true")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "unknown key 'deterministic'" in capsys.readouterr().err

    def test_determinism_same_seed_identical_files(self, tmp_path, data_dir):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs")
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg)]) == 0
        d1, d2 = run_dirs(tmp_path / "runs")
        for name in ("history.json", "reports/history.csv", "reports/metrics.jsonl", "config"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
        assert (d1 / "checkpoints" / "final.ckpt").read_bytes() == \
            (d2 / "checkpoints" / "final.ckpt").read_bytes()

    @pytest.mark.parametrize("crash_cycle", [1, 2])
    def test_resume_after_kill_mid_cycle_matches_straight_run(self, tmp_path, data_dir, monkeypatch, crash_cycle):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=3)
        assert main(["run", "--config", str(cfg)]) == 0
        (straight,) = run_dirs(tmp_path / "runs")
        killed = tmp_path / "killed"

        train = orchestrator._train_one_cycle

        def kill_on_second_step(trainer, stream, cycle, metrics_sink):
            if cycle == crash_cycle:
                step, calls = trainer.step, []

                def failing_step(batch):
                    calls.append(batch)
                    if len(calls) == 2:
                        # what a killed process leaves: the files as the OS holds them now
                        (running,) = set(run_dirs(tmp_path / "runs")) - {straight}
                        shutil.copytree(running, killed)
                        raise RuntimeError("injected fault")
                    return step(batch)

                trainer.step = failing_step
            return train(trainer, stream, cycle, metrics_sink)

        with monkeypatch.context() as patch:
            patch.setattr(orchestrator, "_train_one_cycle", kill_on_second_step)
            with pytest.raises(RuntimeError, match="injected fault"):
                main(["run", "--config", str(cfg)])
        partial = RunHistory.load(killed / "history.json")
        assert partial.termination == "incomplete" and len(partial.records) == crash_cycle
        assert f'"cycle": {crash_cycle}' in (killed / "reports" / "metrics.jsonl").read_text()

        assert main(["run", "--config", str(cfg), "--resume", str(killed)]) == 0
        for name in ("history.json", "reports/history.csv", "reports/metrics.jsonl"):
            assert (killed / name).read_bytes() == (straight / name).read_bytes(), name

    def test_resume_after_kill_before_final_save_keeps_met_threshold(self, tmp_path, data_dir, monkeypatch):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=3,
                           stopping="metric:sr_mt:gte:0.0")
        assert main(["run", "--config", str(cfg)]) == 0
        (straight,) = run_dirs(tmp_path / "runs")
        assert RunHistory.load(straight / "history.json").termination == "threshold_met"
        killed = tmp_path / "killed"

        def kill_after_cycles(*args, **kwargs):
            history = orchestrator.run_cycles(*args, **kwargs)
            (running,) = set(run_dirs(tmp_path / "runs")) - {straight}
            shutil.copytree(running, killed)
            raise RuntimeError("injected fault")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "run_cycles", kill_after_cycles)
            with pytest.raises(RuntimeError, match="injected fault"):
                main(["run", "--config", str(cfg)])
        assert RunHistory.load(killed / "history.json").termination == "incomplete"
        assert main(["run", "--config", str(cfg), "--resume", str(killed)]) == 0
        for name in ("history.json", "reports/history.csv", "reports/metrics.jsonl"):
            assert (killed / name).read_bytes() == (straight / name).read_bytes(), name

    @pytest.mark.parametrize("name", ["summary.txt", "reports/history.csv"])
    def test_write_killed_half_way_leaves_no_partial_file(self, tmp_path, data_dir, monkeypatch, name):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs")
        assert main(["run", "--config", str(cfg)]) == 0
        (straight,) = run_dirs(tmp_path / "runs")
        real_write_bytes = Path.write_bytes

        def dies_half_way(self, data):
            if self.name.startswith(Path(name).name):
                real_write_bytes(self, bytes(data)[: len(data) // 2])
                raise OSError("killed mid-write")
            return real_write_bytes(self, data)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_bytes", dies_half_way)
            assert main(["run", "--config", str(cfg)]) == 2
        (killed,) = set(run_dirs(tmp_path / "runs")) - {straight}
        assert not (killed / name).exists()
        assert main(["run", "--config", str(cfg), "--resume", str(killed)]) == 0
        for output in ("history.json", "summary.txt", "reports/history.csv", "reports/metrics.jsonl"):
            assert (killed / output).read_bytes() == (straight / output).read_bytes(), output

    def test_resume_finished_run_with_more_cycles_matches_straight_run(self, tmp_path, data_dir):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=3)
        assert main(["run", "--config", str(cfg)]) == 0
        (straight,) = run_dirs(tmp_path / "runs")
        short = write_config(tmp_path / "short.cfg", data_dir, tmp_path / "runs", cycles=2)
        assert main(["run", "--config", str(short)]) == 0
        (extended,) = set(run_dirs(tmp_path / "runs")) - {straight}
        assert main(["run", "--config", str(cfg), "--resume", str(extended)]) == 0
        for name in ("history.json", "reports/history.csv", "reports/metrics.jsonl"):
            assert (extended / name).read_bytes() == (straight / name).read_bytes(), name

    def test_resume_cuts_metrics_at_a_line_that_is_not_json(self, tmp_path, data_dir):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=2)
        assert main(["run", "--config", str(cfg)]) == 0
        (straight,) = run_dirs(tmp_path / "runs")
        short = write_config(tmp_path / "short.cfg", data_dir, tmp_path / "runs", cycles=1)
        assert main(["run", "--config", str(short)]) == 0
        (extended,) = set(run_dirs(tmp_path / "runs")) - {straight}
        metrics = extended / "reports" / "metrics.jsonl"
        kept = metrics.read_bytes()
        # a complete line that is not JSON, then a cycle-0 record the cut must drop too
        metrics.write_bytes(kept + b"{not json\n" + kept.splitlines(keepends=True)[-1])
        assert main(["run", "--config", str(cfg), "--resume", str(extended)]) == 0
        for name in ("history.json", "reports/history.csv", "reports/metrics.jsonl"):
            assert (extended / name).read_bytes() == (straight / name).read_bytes(), name

    def test_resume_with_several_seeds_exit_2_naming_seeds_leaving_run_unchanged(self, tmp_path, data_dir,
                                                                                 capsys):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=1)
        assert main(["run", "--config", str(cfg)]) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        before = tree_bytes(run_dir)
        several = write_config(tmp_path / "several.cfg", data_dir, tmp_path / "runs", cycles=1, seeds="0,1")
        capsys.readouterr()
        assert main(["run", "--config", str(several), "--resume", str(run_dir)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: seeds: --resume continues exactly one run; pass a single seed"]
        assert tree_bytes(run_dir) == before
        assert run_dirs(tmp_path / "runs") == [run_dir]

    def test_log_level_info_shows_adaptive_fallback(self, tmp_path, data_dir, capsys):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=1)
        assert main(["run", "--config", str(cfg)]) == 0
        assert "no prior partition" not in capsys.readouterr().err
        assert main(["run", "--config", str(cfg), "--log-level", "INFO"]) == 0
        captured = capsys.readouterr()
        assert "INFO metaretrain.orchestrator: adaptive cycle 0: no prior partition" in captured.err
        assert "no prior partition" not in captured.out

    def test_adaptive_fallback_logs_one_line_per_cycle_naming_it(self, tmp_path, data_dir, capsys):
        # a threshold of 0 passes every relation, so cycle 1 has no failed set either
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=2, pass_threshold=0)
        assert main(["run", "--config", str(cfg), "--log-level", "INFO"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "strong pool" in line] == [
            "INFO metaretrain.orchestrator: adaptive cycle 0: no prior partition, using base strong pool",
            "INFO metaretrain.orchestrator: adaptive cycle 1: no failed relations, using base strong pool"]
        assert not [line for line in err if "metaretrain.policy" in line]

    @pytest.mark.parametrize("row", sorted(BAD_CONFIGS))
    def test_each_validation_branch_exit_2_naming_key_before_output(self, tmp_path, data_dir, capsys,
                                                                   monkeypatch, row):
        overrides, key = BAD_CONFIGS[row]
        monkeypatch.delenv("METARETRAIN_DATA_DIR", raising=False)
        warm = tmp_path / "prior.ckpt"
        save_checkpoint(Model(model_spec("linear", (1, 28, 28), 10), seed=0).snapshot(), warm)
        stand_ins = {WARM: warm, ABSENT: tmp_path / "absent"}
        overrides = {k: stand_ins.get(v, v) for k, v in overrides.items()}
        data = overrides.pop("data_dir", data_dir)
        cfg = write_config(tmp_path / "bad.cfg", data, tmp_path / "runs", **overrides)
        assert main(["run", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_negative_seed_flag_exit_2_naming_seeds_before_output(self, tmp_path, data_dir, capsys):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs")
        assert main(["run", "--config", str(cfg), "--seed", "-1"]) == 2
        assert "seeds" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_flag_overrides_write_one_run_with_them(self, tmp_path, data_dir, monkeypatch):
        monkeypatch.delenv("METARETRAIN_DATA_DIR", raising=False)
        cfg = write_config(tmp_path / "run.cfg", None, tmp_path / "elsewhere", seeds="0,1", cycles=1)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--data-dir", str(data_dir), "--output-dir", str(out),
                     "--seed", "7"]) == 0
        (run_dir,) = run_dirs(out)
        config = RunHistory.load(run_dir / "history.json").config
        assert (config["seed"], config["seeds"]) == (7, [7])
        assert (config["data_dir"], config["output_dir"]) == (str(data_dir), str(out))
        assert not (tmp_path / "elsewhere").exists()

    def test_resume_with_another_config_exit_2_naming_keys_leaving_run_unchanged(self, tmp_path, data_dir,
                                                                               capsys):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=1)
        assert main(["run", "--config", str(cfg)]) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        before = tree_bytes(run_dir)
        other = write_config(tmp_path / "other.cfg", data_dir, tmp_path / "runs", cycles=2,
                             trainer="mixmatch", fraction=0.003)
        capsys.readouterr()
        assert main(["run", "--config", str(other), "--resume", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert "--resume" in err and "fraction, trainer" in err and "cycles" not in err
        assert tree_bytes(run_dir) == before
        assert run_dirs(tmp_path / "runs") == [run_dir]

    def test_resume_with_fewer_cycles_than_finished_exit_2_naming_both_leaving_run_unchanged(self, tmp_path,
                                                                                          data_dir, capsys):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=2)
        assert main(["run", "--config", str(cfg)]) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        before = tree_bytes(run_dir)
        shorter = write_config(tmp_path / "shorter.cfg", data_dir, tmp_path / "runs", cycles=1)
        capsys.readouterr()
        assert main(["run", "--config", str(shorter), "--resume", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: cycles: 1 is fewer than the 2 cycles the run to resume has finished"]
        assert captured.out == ""
        assert tree_bytes(run_dir) == before
        assert run_dirs(tmp_path / "runs") == [run_dir]

    def test_resume_without_metrics_file_exit_2_naming_it_leaving_run_unchanged(self, tmp_path, data_dir, capsys):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=1)
        assert main(["run", "--config", str(cfg)]) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        metrics = run_dir / "reports" / "metrics.jsonl"
        metrics.unlink()
        before = tree_bytes(run_dir)
        longer = write_config(tmp_path / "longer.cfg", data_dir, tmp_path / "runs", cycles=2)
        capsys.readouterr()
        assert main(["run", "--config", str(longer), "--resume", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert str(metrics) in err and "Traceback" not in err
        assert tree_bytes(run_dir) == before

    @pytest.mark.parametrize("damage", ["missing", "empty", "garbage", "truncated", "malformed-velocity",
                                        "without-velocities"])
    def test_resume_without_readable_cycle_checkpoint_exit_2_naming_it(self, tmp_path, data_dir, capsys, damage):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=1)
        assert main(["run", "--config", str(cfg)]) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        ckpt = run_dir / "checkpoints" / "cycle_0000.ckpt"
        raw = ckpt.read_bytes()
        if damage == "missing":
            ckpt.unlink()
        elif damage == "without-velocities":  # a cycle checkpoint as written before it carried them
            save_checkpoint(load_checkpoint(ckpt), ckpt)
        else:
            damaged = {"empty": b"", "garbage": b"not a checkpoint", "truncated": raw[:-3],
                       "malformed-velocity": raw.replace(b'"velocities":[{"name"', b'"velocities":[{"n`me"')}
            assert damaged[damage] != raw
            ckpt.write_bytes(damaged[damage])
        before = tree_bytes(run_dir)
        longer = write_config(tmp_path / "longer.cfg", data_dir, tmp_path / "runs", cycles=2)
        capsys.readouterr()
        assert main(["run", "--config", str(longer), "--resume", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "Traceback" not in err
        if damage == "without-velocities":
            assert "no optimizer velocities" in err
        assert tree_bytes(run_dir) == before

    @pytest.mark.parametrize("name,shape", [("1.weight", (3, 3)), ("1.weight", (784,)), ("7.weight", (10,))])
    def test_resume_with_velocity_not_fitting_the_model_exit_2_naming_it(self, tmp_path, data_dir, capsys,
                                                                         name, shape):
        # (3, 3) fails to broadcast in the first SGD step, (784,) broadcasts
        # against the (10, 784) weight and would train silently wrong, and
        # the linear model has no layer 7
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=1)
        assert main(["run", "--config", str(cfg)]) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        ckpt = run_dir / "checkpoints" / "cycle_0000.ckpt"
        snap = load_checkpoint(ckpt)
        save_checkpoint(snap, ckpt, velocities={**snap.velocities, name: np.zeros(shape, np.float32)})
        before = tree_bytes(run_dir)
        longer = write_config(tmp_path / "longer.cfg", data_dir, tmp_path / "runs", cycles=2)
        capsys.readouterr()
        assert main(["run", "--config", str(longer), "--resume", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and repr(name) in err and "Traceback" not in err
        assert tree_bytes(run_dir) == before

    def test_resume_of_a_run_whose_config_holds_frozen_realizations_exit_2_naming_it(self, tmp_path, data_dir,
                                                                                     capsys):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=1)
        assert main(["run", "--config", str(cfg)]) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        history = json.loads((run_dir / "history.json").read_text())
        history["config"]["frozen_realizations"] = False  # what runs wrote while the key existed
        (run_dir / "history.json").write_text(json.dumps(history))
        before = tree_bytes(run_dir)
        longer = write_config(tmp_path / "longer.cfg", data_dir, tmp_path / "runs", cycles=2)
        capsys.readouterr()
        assert main(["run", "--config", str(longer), "--resume", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert "--resume: config differs from the run's own in frozen_realizations" in err
        assert tree_bytes(run_dir) == before

    def test_resume_of_a_run_whose_failed_ids_name_no_relation_exit_2_naming_it(self, tmp_path, data_dir,
                                                                                 capsys):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=1)
        assert main(["run", "--config", str(cfg)]) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        history = json.loads((run_dir / "history.json").read_text())
        history["records"][-1]["failed_ids"].append("no_such_mr")
        (run_dir / "history.json").write_text(json.dumps(history))
        before = tree_bytes(run_dir)
        longer = write_config(tmp_path / "longer.cfg", data_dir, tmp_path / "runs", cycles=2)
        capsys.readouterr()
        assert main(["run", "--config", str(longer), "--resume", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert "no_such_mr" in err and "Traceback" not in err
        assert tree_bytes(run_dir) == before

    def test_missing_data_dir_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", tmp_path / "nowhere", tmp_path / "runs")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "data_dir" in capsys.readouterr().err


class TestCorpusLabels:
    """A corpus label that is not a class of the dataset exits 2, naming the
    file, the row and the label, before any run or output directory exists."""

    def mnist_corpus(self, tmp_path, n=400, bad_row=123, bad_label=12):
        samples = make_digits(n, seed=4)
        labels = samples.labels.copy()
        if n:
            labels[bad_row] = bad_label
        data = tmp_path / "data"
        write_idx(Samples(samples.pixels, labels, samples.source_ids),
                  data / "train-images-idx3-ubyte", data / "train-labels-idx1-ubyte")
        return data

    def test_run_exit_2_before_any_run_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", self.mnist_corpus(tmp_path), tmp_path / "runs", fraction=0.5)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "train-labels-idx1-ubyte: row 123 has label 12" in err and "mnist has 10 classes" in err
        assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_test_exit_2_before_any_output_directory(self, tmp_path, capsys):
        data = self.mnist_corpus(tmp_path, bad_row=0, bad_label=255)
        ckpt = tmp_path / "linear.ckpt"
        save_checkpoint(Model(model_spec("linear", (1, 28, 28), 10), seed=0).snapshot(), ckpt)
        rc = main(["test", "--checkpoint", str(ckpt), "--dataset", "mnist", "--data-dir", str(data),
                   "--fraction", "1.0", "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "row 0 has label 255" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cifar10_label_of_ten_exit_2_naming_the_batches(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        for i, n in ((1, 5), (2, 4)):
            raw = rng.integers(0, 256, size=(n, 3073), dtype=np.uint8)
            raw[:, 0] = rng.integers(0, 10, size=n)
            raw[2, 0] = 10 if i == 2 else raw[2, 0]
            (tmp_path / f"data_batch_{i}.bin").write_bytes(raw.tobytes())
        ckpt = tmp_path / "linear.ckpt"
        save_checkpoint(Model(model_spec("linear", (3, 32, 32), 10), seed=0).snapshot(), ckpt)
        rc = main(["test", "--checkpoint", str(ckpt), "--dataset", "cifar10", "--data-dir", str(tmp_path),
                   "--fraction", "1.0", "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data_batch_1.bin" in err and "data_batch_2.bin: row 7 has label 10" in err
        assert not (tmp_path / "out").exists()

    def test_empty_corpus_loads_and_exit_2_at_the_split(self, tmp_path, capsys):
        data = self.mnist_corpus(tmp_path, n=0)
        assert len(cli.load_dataset("mnist", data)) == 0
        cfg = write_config(tmp_path / "run.cfg", data, tmp_path / "runs", fraction=0.5)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "of 0 samples is empty" in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()


class TestCorruptCorpus:
    """An IDX image file that does not match its format exits 2 from `run`
    and `test` with the parser's message naming the file, before any run or
    output directory exists."""

    N = 40

    def corrupt_corpus(self, tmp_path, damage):
        data = tmp_path / "data"
        images = data / "train-images-idx3-ubyte"
        write_idx(make_digits(self.N, seed=4), images, data / "train-labels-idx1-ubyte")
        raw = images.read_bytes()
        expected = 16 + self.N * 28 * 28
        assert len(raw) == expected
        if damage == "bad-magic":
            images.write_bytes(bytes.fromhex("deadbeef") + raw[4:])
            return data, f"error: {images}: bad image magic 0xdeadbeef at offset 0"
        images.write_bytes(raw[:-5])
        return data, (f"error: {images}: expected {expected} bytes for {self.N} images, "
                      f"found {expected - 5} (pixel data starts at offset 16)")

    @pytest.mark.parametrize("damage", ["bad-magic", "cut-5-bytes-short"])
    @pytest.mark.parametrize("command", ["run", "test"])
    def test_exit_2_naming_the_file_before_any_output(self, tmp_path, capsys, command, damage):
        data, message = self.corrupt_corpus(tmp_path, damage)
        out = tmp_path / "out"
        if command == "run":
            argv = ["run", "--config", str(write_config(tmp_path / "run.cfg", data, out, fraction=0.5))]
        else:
            ckpt = tmp_path / "linear.ckpt"
            save_checkpoint(Model(model_spec("linear", (1, 28, 28), 10), seed=0).snapshot(), ckpt)
            argv = ["test", "--checkpoint", str(ckpt), "--data-dir", str(data), "--fraction", "1.0",
                    "--output-dir", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()


class TestCorpusLifetime:
    """`run` and `test` hold the loaded corpus only until the split is taken:
    no seed's cycles and no scoring start while the whole table is alive."""

    def watch(self, monkeypatch):
        """Weak references to every table `load_dataset` returns, and per call
        of `run_cycles` or `robustness` which of them were dead at its start."""
        tables, dead_at_pass = [], []
        load = cli.load_dataset

        def loading(*args, **kwargs):
            samples = load(*args, **kwargs)
            tables.append(weakref.ref(samples))
            return samples

        def checked(fn):
            def wrapper(*args, **kwargs):
                gc.collect()
                dead_at_pass.append([ref() is None for ref in tables])
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "load_dataset", loading)
        monkeypatch.setattr(cli, "run_cycles", checked(cli.run_cycles))
        monkeypatch.setattr(cli, "robustness", checked(cli.robustness))
        return dead_at_pass

    @pytest.mark.parametrize("seeds,expected", [("3", [[True]]), ("3,4", [[True], [True, True]])])
    def test_run_drops_the_corpus_before_each_seed_trains(self, tmp_path, data_dir, monkeypatch, seeds, expected):
        dead_at_pass = self.watch(monkeypatch)
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=1, seeds=seeds)
        assert main(["run", "--config", str(cfg)]) == 0
        assert dead_at_pass == expected

    def test_test_drops_the_corpus_before_scoring(self, tmp_path, data_dir, monkeypatch):
        dead_at_pass = self.watch(monkeypatch)
        ckpt = tmp_path / "linear.ckpt"
        save_checkpoint(Model(model_spec("linear", (1, 28, 28), 10), seed=0).snapshot(), ckpt)
        assert main(["test", "--checkpoint", str(ckpt), "--dataset", "mnist", "--data-dir", str(data_dir),
                     "--cases", "8", "--output-dir", str(tmp_path / "out")]) == 0
        assert dead_at_pass == [[True]]


class TestWarmStart:
    """`run --checkpoint`: the paper's retraining of a pretrained model."""

    def test_checkpoint_for_other_input_exit_2_naming_warm_start(self, tmp_path, data_dir, capsys):
        ckpt = tmp_path / "cifar.ckpt"
        save_checkpoint(Model(model_spec("cnn_small", (3, 32, 32), 10), seed=0).snapshot(), ckpt)
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", model="cnn_small")
        assert main(["run", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "warm_start" in err and "(3, 32, 32)" in err
        assert not (tmp_path / "runs").exists()

    def test_checkpoint_of_another_architecture_exit_2_naming_model(self, tmp_path, data_dir, capsys):
        ckpt = tmp_path / "cnn.ckpt"
        save_checkpoint(Model(model_spec("cnn_small", (1, 28, 28), 10), seed=0).snapshot(), ckpt)
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", model="linear")
        assert main(["run", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "model: 'linear'" in err and str(ckpt) in err
        assert not (tmp_path / "runs").exists()

    def test_checkpoint_with_misshapen_parameter_exit_2_naming_it(self, tmp_path, data_dir, capsys):
        snap = Model(model_spec("cnn_small", (1, 28, 28), 10), seed=0).snapshot()
        params = tuple((n, np.zeros((8, 1, 5, 5), np.float32) if n == "0.weight" else a) for n, a in snap.params)
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(ModelSnapshot(spec=snap.spec, params=params, version=0), ckpt)
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", model="cnn_small")
        assert main(["run", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
        assert "'0.weight'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("k, frozen", [(1, ("0.", "3.")), (2, ("0.",))])
    def test_trainable_last_k_leaves_frozen_layers_byte_unchanged(self, tmp_path, data_dir, k, frozen):
        ckpt = tmp_path / "pretrained.ckpt"
        save_checkpoint(Model(model_spec("cnn_small", (1, 28, 28), 10), seed=7).snapshot(), ckpt)
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", model="cnn_small",
                           cycles=1, trainable_last_k=k)
        assert main(["run", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        before = dict(load_checkpoint(ckpt).params)
        after = dict(load_checkpoint(run_dir / "checkpoints" / "final.ckpt").params)
        assert sorted(before) == sorted(after) == ["0.bias", "0.weight", "3.bias", "3.weight", "7.bias", "7.weight"]
        for name in before:
            unchanged = before[name].tobytes() == after[name].tobytes()
            assert unchanged == name.startswith(frozen), name

    def test_resume_keeps_trainable_last_k(self, tmp_path, data_dir):
        ckpt = tmp_path / "pretrained.ckpt"
        save_checkpoint(Model(model_spec("cnn_small", (1, 28, 28), 10), seed=7).snapshot(), ckpt)
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", model="cnn_small", cycles=2,
                           trainable_last_k=1, warm_start=ckpt)
        assert main(["run", "--config", str(cfg)]) == 0
        (straight,) = run_dirs(tmp_path / "runs")
        short = write_config(tmp_path / "short.cfg", data_dir, tmp_path / "runs", model="cnn_small", cycles=1,
                             trainable_last_k=1, warm_start=ckpt)
        assert main(["run", "--config", str(short)]) == 0
        (resumed,) = set(run_dirs(tmp_path / "runs")) - {straight}
        assert main(["run", "--config", str(cfg), "--resume", str(resumed)]) == 0
        for name in ("history.json", "reports/history.csv", "reports/metrics.jsonl"):
            assert (resumed / name).read_bytes() == (straight / name).read_bytes(), name
        before = dict(load_checkpoint(ckpt).params)
        after = dict(load_checkpoint(resumed / "checkpoints" / "final.ckpt").params)
        for name in before:
            unchanged = before[name].tobytes() == after[name].tobytes()
            assert unchanged == name.startswith(("0.", "3.")), name

    def test_cycle_checkpoint_warm_starts_and_scores_as_its_parameters_alone(self, tmp_path, data_dir):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=1)
        assert main(["run", "--config", str(cfg)]) == 0
        (first,) = run_dirs(tmp_path / "runs")
        cycle = first / "checkpoints" / "cycle_0000.ckpt"
        plain = tmp_path / "plain.ckpt"
        snap = load_checkpoint(cycle)
        assert snap.velocities
        save_checkpoint(snap, plain)
        outputs = {}
        for ckpt in (cycle, plain):
            out = tmp_path / ckpt.stem
            assert main(["run", "--config", str(cfg), "--checkpoint", str(ckpt), "--output-dir", str(out)]) == 0
            assert main(["test", "--checkpoint", str(ckpt), "--data-dir", str(data_dir), "--fraction", "0.002",
                         "--cases", "12", "--output-dir", str(out)]) == 0
            (run_dir,) = run_dirs(out)
            outputs[ckpt] = [(run_dir / name).read_bytes() for name in
                             ("reports/history.csv", "reports/metrics.jsonl", "checkpoints/final.ckpt")]
            outputs[ckpt].append((out / "robustness_report.json").read_bytes())
        assert outputs[cycle] == outputs[plain]


class TestTestCommand:
    def make_cifar_fixture(self, tmp_path, n=40):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(n, 3073), dtype=np.uint8)
        raw[:, 0] = rng.integers(0, 10, size=n)
        (tmp_path / "data_batch_1.bin").write_bytes(raw.tobytes())

    def constant_checkpoint(self, tmp_path):
        spec = ModelSpec(input_shape=(3, 32, 32), num_classes=10, layers=(Flatten(), Dense(10)))
        model = Model(spec, seed=0)
        w, b = model._params["1.weight"], model._params["1.bias"]
        w.data = np.zeros_like(w.data)
        bias = np.zeros_like(b.data)
        bias[4] = 3.0
        b.data = bias
        path = tmp_path / "constant.ckpt"
        save_checkpoint(model.snapshot(), path)
        return path

    def test_constant_model_perfect_on_label_preserving_catalog(self, tmp_path, capsys):
        # the CIFAR catalog is entirely label-preserving, so a constant
        # classifier must score SR_MT = 1.0 exactly
        self.make_cifar_fixture(tmp_path)
        ckpt = self.constant_checkpoint(tmp_path)
        rc = main(["test", "--checkpoint", str(ckpt), "--dataset", "cifar10",
                   "--data-dir", str(tmp_path), "--fraction", "1.0",
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SR_MT = 1.0000" in out
        report = json.loads((tmp_path / "out" / "robustness_report.json").read_text())
        assert report["robustness"]["sr_mt"] == 1.0
        # written through a temporary file renamed into place, none left behind
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["robustness_report.json",
                                                                      "robustness_report.txt"]

    def test_report_matches_golden_rerun(self, tmp_path, capsys):
        self.make_cifar_fixture(tmp_path)
        ckpt = self.constant_checkpoint(tmp_path)
        args = ["test", "--checkpoint", str(ckpt), "--dataset", "cifar10",
                "--data-dir", str(tmp_path), "--fraction", "1.0"]
        assert main(args + ["--output-dir", str(tmp_path / "g1")]) == 0
        assert main(args + ["--output-dir", str(tmp_path / "g2")]) == 0
        golden = (tmp_path / "g1" / "robustness_report.json").read_bytes()
        assert (tmp_path / "g2" / "robustness_report.json").read_bytes() == golden

    def test_cases_below_one_exit_2_naming_flag(self, tmp_path, capsys):
        self.make_cifar_fixture(tmp_path)
        ckpt = self.constant_checkpoint(tmp_path)
        for cases in ("0", "-5"):
            rc = main(["test", "--checkpoint", str(ckpt), "--dataset", "cifar10",
                       "--data-dir", str(tmp_path), "--fraction", "1.0", "--cases", cases,
                       "--output-dir", str(tmp_path / "out")])
            assert rc == 2
            assert "--cases" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,value", [("--pass-threshold", "1.5"), ("--pass-threshold", "-0.1"),
                                            ("--fraction", "1.5"), ("--fraction", "0"), ("--fraction", "-1")])
    def test_flag_out_of_range_exit_2_before_loading(self, tmp_path, capsys, monkeypatch, flag, value):
        self.make_cifar_fixture(tmp_path)
        ckpt = self.constant_checkpoint(tmp_path)

        def no_loading(*args, **kwargs):
            raise AssertionError(f"dataset loaded before {flag} was checked")

        monkeypatch.setattr(cli, "load_dataset", no_loading)
        args = {"--fraction": "1.0", "--pass-threshold": "0.8", flag: value}
        rc = main(["test", "--checkpoint", str(ckpt), "--dataset", "cifar10", "--data-dir", str(tmp_path),
                   "--output-dir", str(tmp_path / "out"), *(a for kv in args.items() for a in kv)])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_checkpoint_for_other_dataset_exit_2_before_loading(self, tmp_path, capsys, monkeypatch):
        self.make_cifar_fixture(tmp_path)
        ckpt = tmp_path / "mnist.ckpt"
        save_checkpoint(Model(model_spec("linear", (1, 28, 28), 10), seed=0).snapshot(), ckpt)

        def no_loading(*args, **kwargs):
            raise AssertionError("dataset loaded before the checkpoint was checked against it")

        monkeypatch.setattr(cli, "load_dataset", no_loading)
        rc = main(["test", "--checkpoint", str(ckpt), "--dataset", "cifar10", "--data-dir", str(tmp_path),
                   "--fraction", "1.0", "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--dataset" in err and "(1, 28, 28)" in err and "(3, 32, 32)" in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exit_2_naming_flag(self, tmp_path, capsys):
        self.make_cifar_fixture(tmp_path)
        ckpt = self.constant_checkpoint(tmp_path)
        rc = main(["test", "--checkpoint", str(ckpt), "--dataset", "cifar10", "--data-dir", str(tmp_path),
                   "--fraction", "1.0", "--seed", "-1", "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flipped_name_key_in_checkpoint_exit_2(self, tmp_path, capsys):
        self.make_cifar_fixture(tmp_path)
        ckpt = self.constant_checkpoint(tmp_path)
        raw = ckpt.read_bytes()
        at = raw.index(b'"name"') + 2
        ckpt.write_bytes(raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1 :])  # "name" -> "n`me"
        rc = main(["test", "--checkpoint", str(ckpt), "--dataset", "cifar10", "--data-dir", str(tmp_path),
                   "--fraction", "1.0", "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "params[0].'name'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_checkpoint_exit_2(self, tmp_path, capsys):
        rc = main(["test", "--checkpoint", str(tmp_path / "absent.ckpt"),
                   "--data-dir", str(tmp_path)])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err.lower()

    def test_overflowing_checkpoint_exit_3_naming_op(self, tmp_path, capsys):
        # weights of 1e24 overflow float32 within two dense layers
        self.make_cifar_fixture(tmp_path)
        model = Model(model_spec("mlp_small", (3, 32, 32), 10), seed=0)
        for p in model.parameters():
            p.data = np.full_like(p.data, 1e24)
        ckpt = tmp_path / "overflow.ckpt"
        save_checkpoint(model.snapshot(), ckpt)
        rc = main(["test", "--checkpoint", str(ckpt), "--dataset", "cifar10", "--data-dir", str(tmp_path),
                   "--fraction", "1.0", "--output-dir", str(tmp_path / "out")])
        assert rc == 3
        assert "error: non-finite value produced by op 'matmul'" in capsys.readouterr().err.splitlines()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", [1e20, 1e36])
    def test_overflowing_conv_checkpoint_exit_3_naming_conv2d_without_warning(self, tmp_path, capsys, scale):
        # float32 GEMMs overflow inside BLAS; the op's finiteness check, not a
        # numpy RuntimeWarning, must report it
        self.make_cifar_fixture(tmp_path)
        model = Model(model_spec("cnn_small", (3, 32, 32), 10), seed=0)
        for p in model.parameters():
            p.data = p.data * np.float32(scale)
        ckpt = tmp_path / "overflow.ckpt"
        save_checkpoint(model.snapshot(), ckpt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["test", "--checkpoint", str(ckpt), "--dataset", "cifar10", "--data-dir", str(tmp_path),
                       "--fraction", "1.0", "--output-dir", str(tmp_path / "out")])
        assert rc == 3
        assert "error: non-finite value produced by op 'conv2d'" in capsys.readouterr().err.splitlines()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "out").exists()


# the golden `report` run: (trainer, mode, seed, completed cycles, top-1, top-5, final SR_MT) per
# history, in argument order. Rows appear as fixmatch, flexmatch, mixmatch, but the base and adaptive
# columns fill in another order, and their float sums differ in the last digit between the two.
GOLDEN_RUNS = [
    ("fixmatch", "adaptive", 3, 2, 0.1, 0.35, 0.47),
    ("flexmatch", "static", None, 1, 0.7, 0.9, 0.2),
    ("mixmatch", "base", 5, 3, 0.3, 0.55, 0.3),
    ("fixmatch", "base", 3, 1, 0.2, 0.4, 0.15),
    ("mixmatch", "adaptive", 5, 2, 0.6, 0.8, 0.9),
    ("flexmatch", "base", 4, 2, 0.1, 0.3, 0.1),
    ("flexmatch", "adaptive", 4, 3, 0.8, 0.95, 0.7),
    ("fixmatch", "static", 3, 2, 0.45, 0.65, 0.33),
]
GOLDEN = Path(__file__).parent / "golden" / "report"


class TestReportCommand:
    def fake_history(self, path, trainer, mode, dataset="mnist", acc=0.5, sr=0.6, seed=0):
        record = CycleRecord(cycle=0, sr_mt=0.1, accuracy={1: 0.2}, suites=[],
                             loss_stats={"steps": 1}, failed_ids=[], passed_ids=[],
                             policy={}, model_version=0)
        RunHistory(
            config={"trainer": trainer, "mode": mode, "seed": seed, "dataset": dataset},
            records=[record],
            final_eval={"sr_mt": sr, "topn": {"1": acc, "5": acc}},
            termination="completed", final_version=1,
        ).save(path)
        return path

    def test_four_runs_table_with_average(self, tmp_path, capsys):
        paths = []
        for i, (trainer, mode) in enumerate([("fixmatch", "base"), ("fixmatch", "adaptive"),
                                             ("fullmatch", "base"), ("fullmatch", "adaptive")]):
            paths.append(str(self.fake_history(tmp_path / f"h{i}.json", trainer, mode,
                                               acc=0.1 * (i + 1), sr=0.2 * (i + 1))))
        rc = main(["report", *paths, "--layout", "base,adaptive",
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Average" in out
        assert (tmp_path / "out" / "comparison.csv").exists()
        assert (tmp_path / "out" / "comparison.json").exists()

    def test_golden_tables_with_layout_and_an_absent_cell(self, tmp_path, capsys):
        paths = []
        for i, (trainer, mode, seed, cycles, top1, top5, sr) in enumerate(GOLDEN_RUNS):
            records = [CycleRecord(cycle=c, sr_mt=0.1 * c, accuracy={1: 0.2}, suites=[], loss_stats={"steps": 1},
                                   failed_ids=[], passed_ids=[], policy={}, model_version=c)
                       for c in range(cycles)]
            config = {"trainer": trainer, "mode": mode, "dataset": "mnist"}
            if seed is not None:
                config["seed"] = seed
            paths.append(tmp_path / f"h{i}.json")
            RunHistory(config=config, records=records, final_eval={"sr_mt": sr, "topn": {"1": top1, "5": top5}},
                       termination="completed", final_version=cycles).save(paths[-1])
        out = tmp_path / "out"
        assert main(["report", *map(str, paths), "--layout", "base,static,adaptive", "--output-dir", str(out)]) == 0
        assert capsys.readouterr().out == (GOLDEN / "table.txt").read_text()
        for name in ("comparison.csv", "comparison.json"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    @pytest.mark.parametrize("layout,named", [("adaptve,adaptive", "'adaptve'"), ("adaptive,base,", "''")])
    def test_layout_naming_neither_a_run_group_nor_a_mode_exit_2_naming_it(self, tmp_path, capsys, layout, named):
        path = self.fake_history(tmp_path / "h.json", "fixmatch", "adaptive")
        assert main(["report", str(path), "--layout", layout, "--output-dir", str(tmp_path / "out")]) == 2
        assert f"--layout names {named}: no run has that configuration group" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_layout_omitting_a_run_group_exit_2_naming_it(self, tmp_path, capsys):
        paths = [self.fake_history(tmp_path / f"{mode}.json", "fixmatch", mode) for mode in ("base", "static")]
        assert main(["report", *map(str, paths), "--layout", "base", "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: layout omits configuration groups ['static']"]
        assert not (tmp_path / "out").exists()

    def test_run_without_a_completed_cycle_exit_2(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        RunHistory(config={"trainer": "fixmatch", "mode": "base", "seed": 3, "dataset": "mnist"}, records=[],
                   final_eval={"sr_mt": 0.5, "topn": {"1": 0.5}}, termination="completed",
                   final_version=0).save(path)
        assert main(["report", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot tabulate run trainer=fixmatch mode=base seed=3: it has no completed cycles"]
        assert not (tmp_path / "out").exists()

    def test_layout_may_name_a_mode_that_no_run_has(self, tmp_path, capsys):
        path = self.fake_history(tmp_path / "h.json", "fixmatch", "adaptive")
        assert main(["report", str(path), "--layout", "base,static,adaptive",
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines()[0].split() == ["algorithm", "adaptive/accuracy",
                                                                  "adaptive/robustness"]

    def test_single_run_table(self, tmp_path, capsys):
        path = self.fake_history(tmp_path / "h.json", "mixmatch", "static")
        assert main(["report", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith("mixmatch")
        assert lines[-1].startswith("Average")

    def test_output_dir_that_is_a_file_exit_2_naming_it(self, tmp_path, capsys):
        path = self.fake_history(tmp_path / "h.json", "fixmatch", "base")
        (tmp_path / "out").write_bytes(b"")
        assert main(["report", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        assert str(tmp_path / "out") in capsys.readouterr().err

    def test_mixed_datasets_exit_2(self, tmp_path, capsys):
        p1 = self.fake_history(tmp_path / "a.json", "fixmatch", "base", dataset="mnist")
        p2 = self.fake_history(tmp_path / "b.json", "fixmatch", "adaptive", dataset="cifar10")
        assert main(["report", str(p1), str(p2)]) == 2
        assert "datasets" in capsys.readouterr().err

    def test_two_seeds_in_one_cell_exit_2(self, tmp_path, capsys):
        p1 = self.fake_history(tmp_path / "a.json", "fixmatch", "base", sr=0.6, seed=0)
        p2 = self.fake_history(tmp_path / "b.json", "fixmatch", "base", sr=0.8, seed=1)
        assert main(["report", str(p1), str(p2), "--output-dir", str(tmp_path / "out")]) == 2
        assert "trainer=fixmatch mode=base: seeds 0 and 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMalformedHistory:
    """`report` and `run --resume` read a history.json that is not one."""

    @pytest.mark.parametrize("row", sorted(MALFORMED_HISTORIES))
    @pytest.mark.parametrize("command", ["report", "resume"])
    def test_exit_2_naming_file_and_field(self, tmp_path, data_dir, capsys, command, row):
        content, named = MALFORMED_HISTORIES[row]
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "history.json").write_bytes(content)
        if command == "report":
            argv = ["report", str(run_dir / "history.json"), "--output-dir", str(tmp_path / "out")]
        else:
            cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "out")
            argv = ["run", "--config", str(cfg), "--resume", str(run_dir)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(run_dir / "history.json") in err and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestListMrs:
    def test_mnist_catalog_listing(self, capsys):
        assert main(["list-mrs", "--dataset", "mnist"]) == 0
        out = capsys.readouterr().out
        assert "rot180" in out
        assert "2->5" in out and "6->9" in out
        assert "hflip" not in out

    def test_cifar_catalog_listing(self, capsys):
        assert main(["list-mrs", "--dataset", "cifar10"]) == 0
        out = capsys.readouterr().out
        assert "hflip" in out
        lines = [l for l in out.splitlines() if l.startswith("rot180")]
        assert "identity" in lines[0]
