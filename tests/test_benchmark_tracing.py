"""The benchmark's tracer still installs over the package as it stands.

`perfbench/tracing.py` wraps package functions and methods by attribute
name for a traced benchmark pass, which this suite never runs otherwise. A
rename or removal of any wrapped name fails here first.
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


def test_tracer_installs_records_a_test_pass_and_uninstalls(tmp_path, monkeypatch):
    data, ckpt = tmp_path / "data", tmp_path / "model.ckpt"
    write_idx(make_digits(100, seed=2), data / "train-images-idx3-ubyte", data / "train-labels-idx1-ubyte")
    save_checkpoint(Model(model_spec("cnn_small", (1, 28, 28), 10), seed=0).snapshot(), ckpt)

    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    try:
        instrumentation.install()
        patched = list(instrumentation._undo)
        assert patched
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
        assert main(["test", "--checkpoint", str(ckpt), "--data-dir", str(data), "--fraction", "0.5",
                     "--cases", "4", "--output-dir", str(tmp_path / "out")]) == 0
    finally:
        instrumentation.uninstall()
    assert tracer.spans["functional.conv2d.fwd"].calls > 0
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
