"""One step of each semi-supervised trainer on the same batch stream.

Every trainer consumes the same Batch shape: an augmented labeled part and
weak/strong views of the unlabeled part. Pseudo-labels come from weak views
and pass through the strong relation's label map before the consistency loss.
A trainer that reads no strong views (supervised, MixMatch) gets a stream
without them.
The returned LossBreakdown always satisfies
total = L_sup + lambda_u * L_unsup + lambda_p * L_penalty.
"""

from metaretrain.data import subsample_and_split
from metaretrain.nn import SGD, Model, model_spec
from metaretrain.policy import CycleDatasetSpec, base_policy, build_cycle_stream
from metaretrain.relations import catalog_default
from metaretrain.synthdigits import make_digits
from metaretrain.trainers import TrainerConfig, build_trainer

split = subsample_and_split(make_digits(600, seed=8), 1.0, (0.1, 0.7, 0.2), seed=8)
catalog = catalog_default("mnist")
policy = base_policy(catalog, seed=8)
cfg = TrainerConfig(tau=0.8)

print(f"{'trainer':12s} {'L_sup':>8s} {'L_unsup':>8s} {'L_pen':>8s} {'total':>8s} {'mask':>6s}")
for name in ("supervised", "fixmatch", "flexmatch", "fullmatch", "mixmatch"):
    model = Model(model_spec("cnn_small", (1, 28, 28), 10), seed=8)
    trainer = build_trainer(name, model, SGD(0.05, 0.9), cfg, 10, seed=8)
    spec = CycleDatasetSpec(split=split, policy=policy, batch_size=16, epochs=1,
                            num_classes=10, n_weak_views=trainer.n_weak_views,
                            strong_views=trainer.reads_strong_views)
    stream = build_cycle_stream(spec)
    out = trainer.step(next(iter(stream)))
    print(f"{name:12s} {out.l_sup:8.4f} {out.l_unsup:8.4f} {out.l_penalty:8.4f} "
          f"{out.total:8.4f} {out.mask_rate:6.2f}")

print("\nwith an untrained model and tau=0.8, few weak predictions clear the")
print("confidence bar, so most unlabeled samples are masked out of L_unsup;")
print("mixmatch has no threshold and always mixes (mask 1.0).")
