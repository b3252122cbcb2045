"""metaretrain benchmark: three closed-loop CLI workloads.

    python3 perfbench/run.py --workload adaptive-fixmatch --seed 0 --seconds 20 --trace 0

Each pass calls `metaretrain.cli.main` in this process, one pass after the
other (one client, closed loop), until `--seconds` have passed and at least
two passes have run, so the outputs of two passes of one seed can be compared
byte for byte. Set-up (the synthetic corpus, and for `score-checkpoint` a
trained checkpoint) runs in child processes before the first pass.

`--trace 0` reports the end-to-end metrics; the pass times behind `run_s` and
`cases_per_s` are scaled to a nominal host speed measured in the same run
(see `hostspeed.py`), while `setup_s` is wall time. `--trace 1`
runs one untraced and one traced pass and reports the per-layer metrics, as
wall times; see `tracing.py`. Every
metric is printed by name with its unit; the last line of standard output is
one JSON object. Full results, with output hashes, machine facts and the
computed conv2d counts per input shape, go to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS gets no more threads than the CPUs this process may run on; set before
# numpy is imported
_CPUS = len(os.sched_getaffinity(0))
os.environ["OPENBLAS_NUM_THREADS"] = str(min(_CPUS, int(os.environ.get("OPENBLAS_NUM_THREADS", _CPUS))))

import hostspeed  # noqa: E402  (imports numpy)

MIN_PASSES = 2  # outputs of two passes of one seed are compared byte for byte
SETUPS = 3  # set-ups per untraced run; setup_s is their median
LOOP_OUTPUTS = ("history.json", "reports/history.csv", "reports/metrics.jsonl")
SCORE_OUTPUTS = ("robustness_report.json",)


@dataclass(frozen=True)
class Scale:
    """Input sizes. `full` keeps the criterion-7 split (60 labeled, 420
    unlabeled, 120 test) drawn from a 12,000-image corpus and scores 600
    sources. Cycle counts are cut so that a run of any workload stays near
    40 s on two cores, which keeps the whole benchmark within its time budget
    even when the host runs slow; `tiny` is the self-test's size."""

    n_train: int
    loop_fraction: float
    epochs: int
    batch_size: int
    score_fraction: float
    score_cases: int
    cycles: dict  # loop workload -> cycles


SCALES = {
    "full": Scale(n_train=12000, loop_fraction=0.05, epochs=2, batch_size=32, score_fraction=0.05,
                  score_cases=600, cycles={"adaptive-fixmatch": 3, "static-mixmatch": 1}),
    "tiny": Scale(n_train=400, loop_fraction=0.1, epochs=1, batch_size=8, score_fraction=0.1,
                  score_cases=40, cycles={"adaptive-fixmatch": 1, "static-mixmatch": 1}),
}

# workload -> (trainer, mode); None scores a checkpoint with `metaretrain test`.
# adaptive-fixmatch is the paper's loop and training-bound; score-checkpoint
# only runs forwards, so a training-side change must leave it alone;
# static-mixmatch weighs stream build and relation transforms most.
WORKLOADS = {
    "adaptive-fixmatch": ("fixmatch", "adaptive"),
    "score-checkpoint": None,
    "static-mixmatch": ("mixmatch", "static"),
}

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cases_per_s": "cases/s",
    "peak_rss_mb": "MiB",
    "sr_mt_final": "fraction",
}

# per-layer counters that must be zero on a workload that only runs forwards
# and nonzero on one that trains
TRAINING_COUNTERS = ("functional.conv2d.bwd_calls", "optim.steps", "policy.stream_builds")


def layer_unit(name: str) -> str:
    if name in ("trainers.mask_rate", "sr_mt_gain", "top1_final", "error_rate"):
        return "fraction"
    if name == "tester.images_per_case":
        return "images/case"
    if name.endswith(("_ms_p50", "_ms_p90")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".macs"):
        return "MAC"
    if name.endswith(("bytes", "bytes_written")):
        return "B"
    return "count"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def machine_facts() -> dict:
    import numpy as np
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "cpus_available": _CPUS,
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()}
    return facts


def blas_threads():
    """Thread count of numpy's bundled scipy-openblas, or None if not found."""
    import ctypes

    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


@dataclass
class Setup:
    seconds: float  # timed inside the child: no interpreter start or imports
    make_s: float
    data_dir: Path  # relative to the work dir, as is the checkpoint
    checkpoint: Path | None


def setup(work: Path, index: int, seed: int, scale: Scale, with_checkpoint: bool) -> Setup:
    """One set-up in a child process."""
    data_dir = Path(f"setup{index}")
    (work / data_dir).mkdir()
    cmd = [sys.executable, str(HERE / "setup_data.py"), "--data-dir", str(work / data_dir),
           "--seed", str(seed), "--n-train", str(scale.n_train)]
    checkpoint = data_dir / "model.ckpt" if with_checkpoint else None
    if checkpoint is not None:
        cmd += ["--checkpoint", str(work / checkpoint)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed ({done.returncode}): {done.stderr.strip()}")
    timings = json.loads(done.stdout.strip().splitlines()[-1])
    return Setup(timings["setup_s"], timings["make_s"], data_dir, checkpoint)


@dataclass
class PassResult:
    seconds: float
    hashes: dict
    quality: dict
    problems: list


class Workload:
    """Runs and checks passes of one workload on set-up data."""

    def __init__(self, name: str, seed: int, scale: Scale, data_dir: Path, checkpoint):
        self.name, self.seed, self.scale = name, seed, scale
        self.data_dir, self.checkpoint = data_dir, checkpoint
        self.loop = WORKLOADS[name]
        self.cycles = scale.cycles.get(name, 0)
        if self.loop is not None:
            trainer, mode = self.loop
            self.config = Path(f"{name}.cfg")
            self.config.write_text(
                "dataset = mnist\nmodel = cnn_small\n"
                f"fraction = {scale.loop_fraction}\ntrainer = {trainer}\nmode = {mode}\n"
                f"cycles = {self.cycles}\nepochs_per_cycle = {scale.epochs}\n"
                f"batch_size = {scale.batch_size}\nlearning_rate = 0.05\n"
            )

    def argv(self, out_dir: Path) -> list:
        if self.loop is not None:
            return ["run", "--config", str(self.config), "--data-dir", str(self.data_dir),
                    "--output-dir", str(out_dir), "--seed", str(self.seed)]
        return ["test", "--checkpoint", str(self.checkpoint), "--dataset", "mnist",
                "--data-dir", str(self.data_dir), "--fraction", str(self.scale.score_fraction),
                "--cases", str(self.scale.score_cases), "--seed", str(self.seed),
                "--output-dir", str(out_dir)]

    def run_pass(self, cli_main) -> PassResult:
        # every pass writes under the same relative output dir: the run config,
        # paths included, is part of the outputs compared across passes and commits
        out_dir = Path("out")
        out_dir.mkdir(exist_ok=True)
        gc.collect()
        started = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(self.argv(out_dir))
        seconds = perf_counter() - started
        try:
            return self._check(out_dir, seconds, code)
        except (OSError, ValueError, KeyError) as exc:
            return PassResult(seconds, {}, {}, [f"outputs unreadable: {exc!r}"])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check(self, out_dir: Path, seconds: float, code: int) -> PassResult:
        if code != 0:
            return PassResult(seconds, {}, {}, [f"cli exit code {code}"])
        if self.loop is None:
            report = json.loads((out_dir / "robustness_report.json").read_text())
            robustness = report["robustness"]
            problems = [f"suite {s['suite_id']} scored {s['n_cases']} cases, expected {self.scale.score_cases}"
                        for s in robustness["suites"] if s["n_cases"] != self.scale.score_cases]
            quality = {"sr_mt_final": robustness["sr_mt"], "top1_final": report["accuracy"]["topn"]["1"],
                       "sr_mt_gain": 0.0, "cases": robustness["total_cases"]}
            hashes = {name: sha256(out_dir / name) for name in SCORE_OUTPUTS}
        else:
            (run_dir,) = list(out_dir.iterdir())
            history = json.loads((run_dir / "history.json").read_text())
            problems = []
            if history["termination"] != "completed":
                problems.append(f"termination {history['termination']!r}, expected 'completed'")
            if len(history["records"]) != self.cycles:
                problems.append(f"{len(history['records'])} cycle records, expected {self.cycles}")
            records = history["records"]
            final = history["final_eval"]
            per_eval = sum(s["n_cases"] for s in records[0]["suites"]) if records else 0
            quality = {"sr_mt_final": final["sr_mt"], "top1_final": final["topn"]["1"],
                       "sr_mt_gain": final["sr_mt"] - records[0]["sr_mt"] if records else 0.0,
                       "cases": per_eval * (len(records) + 1)}
            hashes = {name: sha256(run_dir / name) for name in LOOP_OUTPUTS}
        for key in ("sr_mt_final", "top1_final"):
            if not 0.0 <= quality[key] <= 1.0:
                problems.append(f"{key} = {quality[key]} outside [0, 1]")
        return PassResult(seconds, hashes, quality, problems)


def compare_to_first(passes: list) -> None:
    """A pass whose outputs differ from the first pass's fails its check."""
    for p in passes[1:]:
        if passes[0].hashes and p.hashes != passes[0].hashes:
            differing = sorted(k for k in p.hashes if p.hashes[k] != passes[0].hashes.get(k))
            p.problems.append(f"outputs differ from the first pass: {', '.join(differing)}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's self-test")
    return parser.parse_args(argv)


def run_passes(args, workload: Workload, cli_main):
    """Untraced: closed loop for `--seconds`, at least MIN_PASSES passes,
    with the host-speed kernel timed before each pass and after the last.
    Traced: one untraced pass, then one pass under the tracer's wrappers.
    Returns the passes, the tracer and the kernel timings."""
    if not args.trace:
        passes, kernel_s = [], []
        started = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - started < args.seconds:
            kernel_s += hostspeed.sample()
            passes.append(workload.run_pass(cli_main))
            if passes[-1].problems:
                break
        kernel_s += hostspeed.sample()
        return passes, None, kernel_s
    from tracing import Instrumentation, Tracer

    passes = [workload.run_pass(cli_main)]
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    instrumentation.install()
    try:
        passes.append(workload.run_pass(tracer.timed("cli.main", cli_main)))
    finally:
        instrumentation.uninstall()
    return passes, tracer, []


def end_to_end_metrics(passes: list, setups: list, kernel_s: list) -> dict:
    run_s = statistics.median(p.seconds for p in passes) * hostspeed.scale(kernel_s)
    quality = passes[0].quality
    values = {
        "setup_s": statistics.median(s.seconds for s in setups),
        "run_s": run_s,
        "cases_per_s": quality.get("cases", 0) / run_s,
        # set-up ran in child processes, so this is the peak of the passes
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sr_mt_final": quality.get("sr_mt_final", 0.0),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def per_layer_metrics(workload_name: str, passes: list, tracer, make_s: float, problems: list) -> dict:
    from tracing import layer_metrics

    untraced, traced = passes
    values = layer_metrics(tracer, traced.seconds, make_s)
    values["trace.overhead_s"] = traced.seconds - untraced.seconds
    values["sr_mt_gain"] = untraced.quality.get("sr_mt_gain", 0.0)
    values["top1_final"] = untraced.quality.get("top1_final", 0.0)
    values["error_rate"] = sum(1 for p in passes if p.problems) / len(passes)
    trains = WORKLOADS[workload_name] is not None
    for counter in TRAINING_COUNTERS:
        if (values[counter] > 0) != trains:
            problems.append(f"bypass: {counter} = {values[counter]} on a workload that "
                            f"{'trains' if trains else 'only runs forwards'}")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "metaretrain" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from metaretrain.cli import main as cli_main

    scale = SCALES[args.scale]
    work = ROOT / ".perfbench" / f"work-{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        with_checkpoint = WORKLOADS[args.workload] is None
        setups = [setup(work, i, args.seed, scale, with_checkpoint)
                  for i in range(1 if args.trace else SETUPS)]
        # passes run inside the work dir and get relative paths, so their outputs
        # do not depend on where the checkout lives
        os.chdir(work)
        workload = Workload(args.workload, args.seed, scale, setups[0].data_dir, setups[0].checkpoint)
        passes, tracer, kernel_s = run_passes(args, workload, cli_main)
        compare_to_first(passes)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for p in passes if p.problems)
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p.problems]
    if args.trace:
        metrics = per_layer_metrics(args.workload, passes, tracer, setups[0].make_s, problems)
    else:
        metrics = end_to_end_metrics(passes, setups, kernel_s)
    correct = not problems

    facts = machine_facts()
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "scale": args.scale,
        "machine": facts, "correct": correct, "problems": problems,
        "error_rate": failed / len(passes),
        "setup_s": [s.seconds for s in setups],
        "hostspeed": {"nominal_s": hostspeed.NOMINAL_S, "kernel_s": kernel_s},
        "passes": [{"seconds": p.seconds, "sha256": p.hashes, "quality": p.quality} for p in passes],
        "metrics": metrics,
    }
    if tracer is not None:
        details["conv2d_computed_per_call"] = [
            {"input": list(k[0]), "weight": list(k[1]), "stride": k[2], "padding": k[3], **v}
            for k, v in sorted(tracer.conv_shapes.items())
        ]
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2, sort_keys=True) + "\n")

    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    if kernel_s:
        print(f"host speed: kernel median {statistics.median(kernel_s):.4f} s over {len(kernel_s)} timings, "
              f"nominal {hostspeed.NOMINAL_S} s; wall times are scaled by {hostspeed.scale(kernel_s):.4f}")
    for i, p in enumerate(passes):
        print(f"pass {i}: {p.seconds:.3f} s sha256 {json.dumps(p.hashes, sort_keys=True)}")
    for entry in details.get("conv2d_computed_per_call", []):
        print(f"conv2d computed per call: {json.dumps(entry, sort_keys=True)}")
    print(f"error_rate = {failed / len(passes):.4f} fraction ({failed} of {len(passes)} passes failed a check)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(passes), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
