import json
import shutil
import warnings

import numpy as np
import pytest

from metaretrain import cli, orchestrator
from metaretrain.cli import main
from metaretrain.config import _SCHEMA
from metaretrain.nn import Dense, Flatten, Model, ModelSpec, load_checkpoint, model_spec, save_checkpoint
from metaretrain.nn.layers import ModelSnapshot
from metaretrain.orchestrator import CycleRecord, RunHistory


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
    "cycles": ({"cycles": 0}, "cycles"),
    "epochs": ({"epochs_per_cycle": 0}, "epochs_per_cycle"),
    "batch-size": ({"batch_size": 0}, "batch_size"),
    "batch-size-mix": ({"trainer": "mixmatch", "batch_size": 1}, "batch_size"),
    "seeds-empty": ({"seeds": ""}, "seeds"),
    "seeds-negative": ({"seeds": "0,-1"}, "seeds"),
    "pass-threshold": ({"pass_threshold": 1.5}, "pass_threshold"),
    "learning-rate": ({"learning_rate": -0.1}, "learning_rate"),
    "momentum": ({"momentum": 1.0}, "momentum"),
    "static-k-low": ({"mode": "static", "static_k": 1}, "static_k"),
    "static-k-above-catalog": ({"mode": "static", "static_k": 11}, "static_k"),
    "robustness-cases": ({"robustness_cases": 0}, "robustness_cases"),
    "trainer-hyperparameter": ({"tau": 1.5}, "tau"),
    "stopping-parse": ({"stopping": "sometimes"}, "stopping"),
    "stopping-metric": ({"stopping": "metric:f1:gte:0.5"}, "stopping"),
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


def run_dirs(output_dir):
    return sorted(p for p in output_dir.iterdir() if p.is_dir())


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

    @pytest.mark.parametrize("mode", ["static", "adaptive"])
    def test_static_k_below_two_exit_2_before_output(self, tmp_path, data_dir, capsys, mode):
        cfg = write_config(tmp_path / "bad.cfg", data_dir, tmp_path / "runs", mode=mode, static_k=1)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "static_k" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

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

    def test_log_level_info_shows_adaptive_fallback(self, tmp_path, data_dir, capsys):
        cfg = write_config(tmp_path / "run.cfg", data_dir, tmp_path / "runs", cycles=1)
        assert main(["run", "--config", str(cfg)]) == 0
        assert "no prior partition" not in capsys.readouterr().err
        assert main(["run", "--config", str(cfg), "--log-level", "INFO"]) == 0
        captured = capsys.readouterr()
        assert "INFO metaretrain.orchestrator: adaptive cycle 0: no prior partition" in captured.err
        assert "no prior partition" not in captured.out

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

    def test_missing_data_dir_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", tmp_path / "nowhere", tmp_path / "runs")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "data_dir" in capsys.readouterr().err


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

    def test_single_run_table(self, tmp_path, capsys):
        path = self.fake_history(tmp_path / "h.json", "mixmatch", "static")
        assert main(["report", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith("mixmatch")
        assert lines[-1].startswith("Average")

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
