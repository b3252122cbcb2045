"""The full feedback loop: test, partition, retrain on the failures, repeat.

Each cycle tests the pre-retraining model; the failed relations become the
strong augmentation pool of the NEXT cycle's stream (cycle 0 starts from the
base pool and logs a fallback). Watch the strong pool track the failure set
and SR_MT climb.
"""

from metaretrain.data import subsample_and_split
from metaretrain.nn import Model, model_spec
from metaretrain.orchestrator import CycleConfig, run_cycles
from metaretrain.relations import catalog_default
from metaretrain.synthdigits import make_digits

split = subsample_and_split(make_digits(9000, seed=17), 0.1, (0.1, 0.7, 0.2), seed=17)
print("split sizes (labeled/unlabeled/test):", split.sizes())

model = Model(model_spec("cnn_small", (1, 28, 28), 10), seed=17)
cfg = CycleConfig(mode="adaptive", trainer="fixmatch", cycles=4, epochs_per_cycle=2,
                  batch_size=32, seed=17, num_classes=10, learning_rate=0.05,
                  robustness_cases=80)
history = run_cycles(model, split, cfg, catalog_default("mnist"))

for r in history.records:
    pool = r.policy["strong_pool"]
    pool_desc = f"fallback ({len(pool)} base MRs)" if r.policy["fallback_used"] else ", ".join(pool)
    print(f"\ncycle {r.cycle}: SR_MT={r.sr_mt:.3f} top1={r.accuracy[1]:.3f}")
    print(f"  strong pool used: {pool_desc}")
    print(f"  failed this cycle: {', '.join(r.failed_ids) or 'none'}")

print(f"\nfinal: SR_MT={history.final_eval['sr_mt']:.3f} "
      f"top1={history.final_eval['topn']['1']:.3f} ({history.termination})")
print(f"robustness gain: {(history.final_eval['sr_mt'] - history.records[0].sr_mt) * 100:+.1f} points")
