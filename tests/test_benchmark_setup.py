"""The benchmark's set-up script runs on the package as it stands.

`perfbench/setup_data.py` builds every benchmark corpus and checkpoint from
`make_digits`, `write_idx`, `to_model_input` and the row view `samples[i]`,
but its own tests are not part of this suite. This test runs it at a small
size, so a change to any of those names fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from metaretrain.data import load_mnist
from metaretrain.nn import Model, load_checkpoint
from metaretrain.synthdigits import make_digits

ROOT = Path(__file__).resolve().parent.parent


def test_setup_script_writes_a_corpus_and_a_checkpoint_the_package_reads(tmp_path):
    data, ckpt = tmp_path / "data", tmp_path / "model.ckpt"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_data.py"), "--data-dir", str(data),
                           "--seed", "3", "--n-train", "50", "--checkpoint", str(ckpt)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    timings = json.loads(lines[0])
    assert set(timings) == {"setup_s", "make_s"} and 0 <= timings["make_s"] <= timings["setup_s"]

    corpus = load_mnist(data / "train-images-idx3-ubyte", data / "train-labels-idx1-ubyte")
    expected = make_digits(50, seed=3)
    assert corpus.pixels.shape == (50, 1, 28, 28)
    assert corpus.pixels.tobytes() == expected.pixels.tobytes()
    assert corpus.labels.tolist() == expected.labels.tolist()

    model = Model.from_snapshot(load_checkpoint(ckpt))
    assert model.spec.input_shape == (1, 28, 28) and model.spec.num_classes == 10
    assert np.isfinite(model.predict_logits(np.zeros((1, 1, 28, 28), np.float32))).all()
