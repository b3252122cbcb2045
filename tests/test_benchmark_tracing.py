"""The benchmark's tracer still installs over the package as it stands.

`perfbench/tracing.py` wraps package functions and methods by attribute
name for a traced benchmark pass, which this suite never runs otherwise. A
rename or removal of any wrapped name, or of an attribute a hook reads after
a `test` or a `run` pass, fails here first.
"""

import importlib.util
import sys
from pathlib import Path

from metaretrain.cli import main
from metaretrain.nn import Model, model_spec, save_checkpoint
from metaretrain.synthdigits import make_digits, write_idx

ROOT = Path(__file__).resolve().parent.parent


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def traced_pass(monkeypatch, argv):
    """The tracer of one `main(argv)` pass, installed over the package and
    removed again; asserts that install patched attributes and uninstall
    restored every one of them."""
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    try:
        instrumentation.install()
        patched = list(instrumentation._undo)
        assert patched
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
        assert main(argv) == 0
    finally:
        instrumentation.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    return tracer


def write_digits(data_dir, n):
    write_idx(make_digits(n, seed=2), data_dir / "train-images-idx3-ubyte", data_dir / "train-labels-idx1-ubyte")


def test_tracer_installs_records_a_test_pass_and_uninstalls(tmp_path, monkeypatch):
    data, ckpt = tmp_path / "data", tmp_path / "model.ckpt"
    write_digits(data, 100)
    save_checkpoint(Model(model_spec("cnn_small", (1, 28, 28), 10), seed=0).snapshot(), ckpt)

    tracer = traced_pass(monkeypatch, ["test", "--checkpoint", str(ckpt), "--data-dir", str(data),
                                       "--fraction", "0.5", "--cases", "4", "--output-dir", str(tmp_path / "out")])
    assert tracer.spans["functional.conv2d.fwd"].calls > 0


def test_tracer_records_a_run_pass_and_uninstalls(tmp_path, monkeypatch):
    # the hooks only the loop reaches: cycle wall times, total cases, the
    # stream's batches and each step's unlabeled count and mask rate
    data, cfg = tmp_path / "data", tmp_path / "run.cfg"
    write_digits(data, 200)
    settings = {"data_dir": data, "dataset": "mnist", "fraction": 0.5, "model": "cnn_small",
                "trainer": "fixmatch", "mode": "adaptive", "cycles": 1, "epochs_per_cycle": 1,
                "batch_size": 8, "seeds": "0", "output_dir": tmp_path / "runs"}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))

    tracer = traced_pass(monkeypatch, ["run", "--config", str(cfg)])
    assert tracer.spans["trainers.step"].calls > 0
    assert tracer.spans["policy.build_cycle_stream"].calls > 0
    assert tracer.counts["policy.stream_images"] > 0
    assert tracer.counts["tester.cases"] > 0
    assert len(tracer.samples["orchestrator.cycle_s"]) == 1
