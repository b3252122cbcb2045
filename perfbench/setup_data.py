"""One benchmark set-up, run in its own process by `run.py`.

Writes a synthetic digit corpus in MNIST IDX format and, when asked, a
`cnn_small` checkpoint trained briefly on part of it. Set-up runs in a child
process so that its memory peak never masks the peak of a measured pass.
Prints one JSON line with the set-up time (corpus, IDX files and checkpoint;
not the interpreter start or the imports) and the time of the
`synthdigits.make_digits` call alone.

    python3 perfbench/setup_data.py --data-dir DIR --seed N --n-train 12000 [--checkpoint PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from metaretrain.data import to_model_input  # noqa: E402
from metaretrain.nn import SGD, Model, Tensor, backward, model_spec, save_checkpoint  # noqa: E402
from metaretrain.nn import functional as F  # noqa: E402
from metaretrain.synthdigits import make_digits, write_idx  # noqa: E402

CHECKPOINT_SAMPLES = 640
CHECKPOINT_EPOCHS = 2
BATCH = 32


def train_checkpoint(samples, seed: int, path: Path) -> None:
    """A few supervised SGD epochs, so the scored model is neither constant
    nor random: a constant model passes every consistency suite."""
    rng = np.random.default_rng((seed, 0xC4E7))
    picked = rng.choice(len(samples), size=min(CHECKPOINT_SAMPLES, len(samples)), replace=False)
    x = np.stack([to_model_input(samples[i].pixels) for i in picked])
    y = np.array([samples[i].label for i in picked])
    model = Model(model_spec("cnn_small", (1, 28, 28), 10), seed=seed)
    optimizer = SGD(0.05, 0.9)
    for _ in range(CHECKPOINT_EPOCHS):
        order = rng.permutation(len(x))
        for start in range(0, len(x), BATCH):
            idx = order[start:start + BATCH]
            model.zero_grads()
            loss = F.softmax_cross_entropy(model.forward(Tensor(x[idx])), F.one_hot(y[idx], 10))
            backward(model, loss)
            optimizer.step(model)
    save_checkpoint(model.snapshot(), path)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n-train", type=int, required=True)
    parser.add_argument("--checkpoint")
    args = parser.parse_args()

    data_dir = Path(args.data_dir)
    started = perf_counter()
    samples = make_digits(args.n_train, seed=args.seed)
    make_s = perf_counter() - started
    write_idx(samples, data_dir / "train-images-idx3-ubyte", data_dir / "train-labels-idx1-ubyte")
    if args.checkpoint:
        train_checkpoint(samples, args.seed, Path(args.checkpoint))
    print(json.dumps({"setup_s": perf_counter() - started, "make_s": make_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
