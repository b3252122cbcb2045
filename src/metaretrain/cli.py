"""Command-line entry point.

Subcommands:
    run       execute a configured experiment (one run per seed)
    test      score a checkpoint with the metamorphic tester
    report    tabulate finished runs into a comparison table
    list-mrs  enumerate the relation catalog for a dataset

Exit codes: 0 success, 2 validation error (a ValidationError or an OSError),
3 runtime abort (a NonFiniteError: a non-finite loss or value).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import DATASETS, ENV_DATA_DIR, RunConfig, load_config, validate_config
from .data import Samples, load_cifar, load_mnist, subsample_and_split
from .errors import NonFiniteError, ValidationError
from .nn import Model, load_checkpoint, model_spec, save_checkpoint
from .nn.checkpoint import write_atomic
from .orchestrator import MODES, RunHistory, resume_state_from, run_cycles
from .relations import LABEL_PRESERVING, catalog_default, label_map_array
from .report import comparison_table, csv_bytes, json_bytes
from .tester import PASS_THRESHOLD, robustness

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
# config keys a resume may change: where the data and the runs live, and how
# many cycles the run has in all (no fewer than it has finished)
RESUME_FREE_KEYS = ("data_dir", "output_dir", "cycles")
LOG_LEVEL = {"default": "WARNING", "choices": ("DEBUG", "INFO", "WARNING", "ERROR"),
             "help": "level of the log records written to stderr (default WARNING)"}


def load_dataset(dataset: str, data_dir) -> Samples:
    """Load the training portion of a stock dataset from `data_dir`.

    Expected filenames: MNIST `train-images-idx3-ubyte`/`train-labels-idx1-ubyte`
    (unpacked IDX), CIFAR-10 `data_batch_1..5.bin`, CIFAR-100 `train.bin`
    (searched in data_dir and the stock `cifar-*-batches-bin` subdirectories).
    Every label must be a class of `dataset`.
    """
    data_dir = Path(data_dir)
    n_classes = DATASETS[dataset][1]
    if dataset == "mnist":
        images, labels = data_dir / "train-images-idx3-ubyte", data_dir / "train-labels-idx1-ubyte"
        for p in (images, labels):
            if not p.exists():
                raise ValidationError(f"dataset file not found: {p}")
        files, samples = [labels], load_mnist(images, labels)
    else:
        pattern, stock = ("data_batch_*.bin", "cifar-10-batches-bin") if dataset == "cifar10" else \
            ("train.bin", "cifar-100-binary")
        files = next((found for root in (data_dir, data_dir / stock) if (found := sorted(root.glob(pattern)))), [])
        if not files:
            raise ValidationError(f"no {pattern} under {data_dir} or {data_dir / stock}")
        samples = load_cifar(files, variant=n_classes)
    bad = np.flatnonzero(samples.labels >= n_classes)
    if bad.size:
        raise ValidationError(f"{', '.join(map(str, files))}: row {bad[0]} has label {samples.labels[bad[0]]}, "
                              f"but {dataset} has {n_classes} classes")
    return samples


def _check_fits(model: Model, dataset: str, name: str) -> None:
    """Raise ValidationError naming `name` when the model does not take `dataset`'s images."""
    input_shape, n_classes = DATASETS[dataset]
    if model.spec.input_shape != tuple(input_shape) or model.spec.num_classes != n_classes:
        raise ValidationError(
            f"{name}: checkpoint expects input {model.spec.input_shape}/{model.spec.num_classes} classes, "
            f"dataset {dataset} has {tuple(input_shape)}/{n_classes}"
        )


def _build_model(cfg: RunConfig, input_shape, n_classes: int, seed: int) -> Model:
    if cfg.warm_start:
        model = Model.from_snapshot(load_checkpoint(cfg.warm_start))
        _check_fits(model, cfg.dataset, "warm_start")
        if model.spec != model_spec(cfg.model, input_shape, n_classes):
            raise ValidationError(f"model: {cfg.model!r} is not the architecture of warm_start {cfg.warm_start}")
        return model
    return Model(model_spec(cfg.model, input_shape, n_classes), seed=seed)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.data_dir:
        cfg.values["data_dir"] = args.data_dir
    if cfg.values["data_dir"] is None:
        cfg.values["data_dir"] = os.environ.get(ENV_DATA_DIR)
    if args.output_dir:
        cfg.values["output_dir"] = args.output_dir
    if args.seed is not None:
        cfg.values["seeds"] = (args.seed,)
    if args.checkpoint:
        cfg.values["warm_start"] = args.checkpoint
    validate_config(cfg)
    if args.resume and len(cfg.seeds) != 1:
        raise ValidationError("seeds: --resume continues exactly one run; pass a single seed")

    input_shape, n_classes = DATASETS[cfg.dataset]
    catalog = catalog_default(cfg.dataset)
    worst = EXIT_OK

    for seed in cfg.seeds:
        # the corpus is read per seed and dropped once split: no cycle runs while it is held
        split = subsample_and_split(load_dataset(cfg.dataset, cfg.data_dir), cfg.fraction, cfg.ratios(), seed=seed)
        cycle_cfg = cfg.cycle_config(seed)

        resume = None
        if args.resume:
            run_dir = Path(args.resume)
            history = RunHistory.load(run_dir / "history.json")
            config = cfg.public_dict(seed=seed)
            differing = sorted(key for key in config.keys() | history.config.keys()
                               if key not in RESUME_FREE_KEYS and config.get(key) != history.config.get(key))
            if differing:
                raise ValidationError(f"--resume: config differs from the run's own in {', '.join(differing)}")
            if cfg.cycles < len(history.records):
                raise ValidationError(f"cycles: {cfg.cycles} is fewer than the {len(history.records)} cycles "
                                      "the run to resume has finished")
            model, resume = resume_state_from(history, run_dir / "checkpoints", catalog)
            # read, and cut back, before anything of the run directory is written
            _truncate_metrics(run_dir / "reports" / "metrics.jsonl", resume.records[-1].cycle)
        else:
            run_id = f"{time.strftime('%Y%m%d-%H%M%S')}-{time.time_ns() % 1_000_000:06d}-seed{seed}"
            run_dir = Path(cfg.output_dir) / run_id
            model = _build_model(cfg, input_shape, n_classes, seed)
        # a model loaded from a checkpoint (warm start or resumed cycle) has every layer trainable
        model.set_trainable_last(cfg.trainable_last_k)

        (run_dir / "reports").mkdir(parents=True, exist_ok=True)
        write_atomic(run_dir / "config", cfg.resolved_text(seed=seed).encode("utf-8"))

        # line-buffered: a cycle's steps reach the file before its history is saved
        with open(run_dir / "reports" / "metrics.jsonl", "a" if resume is not None else "w", buffering=1) as metrics_file:
            def sink(record, _f=metrics_file):
                _f.write(json.dumps(record, sort_keys=True) + "\n")

            history = run_cycles(
                model, split, cycle_cfg, catalog, metrics_sink=sink,
                checkpoint_dir=run_dir / "checkpoints", resume=resume,
                run_config=cfg.public_dict(seed=seed), history_path=run_dir / "history.json",
            )

        history.save(run_dir / "history.json")
        write_atomic(run_dir / "summary.txt", (history.summary() + "\n").encode("utf-8"))
        write_atomic(run_dir / "reports" / "history.csv", csv_bytes(history.to_csv_rows()))
        save_checkpoint(model.snapshot(), run_dir / "checkpoints" / "final.ckpt")
        print(f"[{run_dir.name}] termination={history.termination}")
        print(history.summary())
        if history.termination == "aborted_nan":
            worst = EXIT_RUNTIME
    return worst


def _truncate_metrics(path: Path, last_cycle: int) -> None:
    """Cut the step records back to the end of `last_cycle`: a run stopped
    inside the next cycle left some of its steps, which the resumed run
    writes again. A line cut short by the stop goes too."""
    kept = 0
    with open(path, "rb") as f:
        for line in f:
            try:
                if not line.endswith(b"\n") or json.loads(line)["cycle"] > last_cycle:
                    break
            except (ValueError, KeyError, TypeError):
                break
            kept += len(line)
    os.truncate(path, kept)


def cmd_test(args) -> int:
    if args.seed < 0:
        raise ValidationError(f"--seed: must be non-negative, got {args.seed}")
    if args.cases < 1:
        raise ValidationError(f"--cases: must be at least 1, got {args.cases}")
    if not 0 <= args.pass_threshold <= 1:
        raise ValidationError(f"--pass-threshold: must be in [0, 1], got {args.pass_threshold}")
    if not 0 < args.fraction <= 1:
        raise ValidationError(f"--fraction: must be in (0, 1], got {args.fraction}")
    model = Model.from_snapshot(load_checkpoint(args.checkpoint))
    _check_fits(model, args.dataset, "--dataset")
    data_dir = args.data_dir or os.environ.get(ENV_DATA_DIR)
    if not data_dir:
        raise ValidationError(f"data_dir not set (flag or ${ENV_DATA_DIR})")
    # the corpus is dropped once split, before any scoring
    split = subsample_and_split(load_dataset(args.dataset, data_dir), args.fraction, (0.0, 0.0, 1.0), seed=args.seed)
    report = robustness(model, catalog_default(args.dataset), split.test, max_cases=args.cases,
                        pass_threshold=args.pass_threshold, seed=args.seed, topn=(1, 5))
    accuracy = report.accuracy
    print(report.to_text())
    print(f"top1={accuracy.topn[1]:.4f} top5={accuracy.topn[5]:.4f} on {accuracy.sample_count} samples")
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"robustness": report.to_dict(), "accuracy": {**accuracy.to_dict(), "sr_mt": report.sr_mt}}
    write_atomic(out_dir / "robustness_report.json", json_bytes(payload))
    write_atomic(out_dir / "robustness_report.txt", (report.to_text() + "\n").encode("utf-8"))
    return EXIT_OK


def cmd_report(args) -> int:
    histories = [RunHistory.load(path) for path in args.runs]
    layout = args.layout.split(",") if args.layout else None
    table = comparison_table(histories, layout=layout, accuracy_n=args.accuracy_n)
    unknown = [g for g in layout or () if g not in table.column_groups and g not in MODES]
    if unknown:
        raise ValidationError(f"--layout names {', '.join(map(repr, unknown))}: no run has that configuration "
                              f"group, and the modes are {', '.join(MODES)}")
    print(table.render())
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "comparison.csv", csv_bytes(table.to_csv_rows()))
    write_atomic(out_dir / "comparison.json", json_bytes(table.to_json_dict()))
    return EXIT_OK


def cmd_list_mrs(args) -> int:
    n_classes = DATASETS[args.dataset][1]
    print(f"{'id':16s} {'kind':22s} {'strength':8s} label_map")
    for mr in catalog_default(args.dataset):
        if mr.kind == LABEL_PRESERVING:
            mapping = "identity"
        else:
            table = label_map_array(mr, n_classes)
            moved = [f"{c}->{int(t)}" for c, t in enumerate(table) if c != t]
            mapping = " ".join(moved) + " (others fixed)"
        print(f"{mr.id:16s} {mr.kind:22s} {mr.strength:8s} {mapping}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metaretrain",
                                     description="Metamorphic robustness testing and retraining")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--data-dir")
    p_run.add_argument("--output-dir")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--checkpoint", help="warm-start checkpoint override")
    p_run.add_argument("--resume", help="existing run directory to continue")
    p_run.add_argument("--log-level", **LOG_LEVEL)
    p_run.set_defaults(func=cmd_run)

    p_test = sub.add_parser("test", help="run metamorphic tests against a checkpoint")
    p_test.add_argument("--checkpoint", required=True)
    p_test.add_argument("--dataset", default="mnist", choices=DATASETS)
    p_test.add_argument("--data-dir")
    p_test.add_argument("--fraction", type=float, default=0.02)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--pass-threshold", type=float, default=PASS_THRESHOLD)
    p_test.add_argument("--cases", type=int, default=100)
    p_test.add_argument("--output-dir", default=".")
    p_test.add_argument("--log-level", **LOG_LEVEL)
    p_test.set_defaults(func=cmd_test)

    p_rep = sub.add_parser("report", help="tabulate finished runs")
    p_rep.add_argument("runs", nargs="+", help="history.json files")
    p_rep.add_argument("--layout", help="comma-separated configuration column order")
    p_rep.add_argument("--accuracy-n", type=int, default=1)
    p_rep.add_argument("--output-dir", default=".")
    p_rep.set_defaults(func=cmd_report)

    p_mrs = sub.add_parser("list-mrs", help="print the relation catalog")
    p_mrs.add_argument("--dataset", default="mnist", choices=DATASETS)
    p_mrs.set_defaults(func=cmd_list_mrs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the package's log records go to stderr for this command only
    logger = logging.getLogger("metaretrain")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(getattr(args, "log_level", "WARNING"))
    try:
        return args.func(args)
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous_level)


if __name__ == "__main__":
    sys.exit(main())
