"""Scoring a model with metamorphic relations.

Every relation is tested on the same 60 cases drawn from the test split.
Label-preserving relations check self-consistency (prediction on g(x) vs
prediction on x — no labels needed); MNIST rot180 checks against the mapped
ground truth. One `robustness()` call scores the model: one forward of the
split gives the references and, from the same logits, top-1 accuracy. The
global success rate SR_MT is the robustness metric, and the failed/passed
partition is what the retraining loop feeds on.
"""

import numpy as np

from metaretrain.data import subsample_and_split, to_model_input
from metaretrain.nn import SGD, Model, Tensor, backward, model_spec
from metaretrain.nn import functional as F
from metaretrain.relations import catalog_default
from metaretrain.synthdigits import make_digits
from metaretrain.tester import partition, robustness

split = subsample_and_split(make_digits(3000, seed=5), 0.2, (0.5, 0.0, 0.5), seed=5)
model = Model(model_spec("cnn_small", (1, 28, 28), 10), seed=5)
catalog = catalog_default("mnist")

print("untrained model:")
before = robustness(model, catalog, split.test, max_cases=60, pass_threshold=0.8, seed=5)
print(before.to_text())
print(f"top1 = {before.accuracy.topn[1]:.4f}")

# --- a short supervised warm-up, then retest ------------------------------------
opt = SGD(0.05, momentum=0.9)
images = to_model_input(split.labeled.pixels)
labels = F.one_hot(split.labeled.labels, 10)
for epoch in range(8):
    order = np.random.default_rng(epoch).permutation(len(images))
    for start in range(0, len(images), 32):
        idx = order[start : start + 32]
        model.zero_grads()
        loss = F.softmax_cross_entropy(model.forward(Tensor(images[idx])), labels[idx])
        backward(model, loss)
        opt.step(model)

print("\nafter a short supervised warm-up:")
after = robustness(model, catalog, split.test, max_cases=60, pass_threshold=0.8, seed=5)
print(after.to_text())
print(f"top1 = {after.accuracy.topn[1]:.4f}")

failed, passed = partition(after.outcomes)
print("\nfailed relations (these would become the next adaptive strong pool):")
print(" ", [mr.id for mr in failed])
print("passed relations:")
print(" ", [mr.id for mr in passed])
