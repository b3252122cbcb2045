"""Tiny-size self-test of the benchmark: one cycle on a few dozen samples.

Checks that every metric named in BENCHMARK.json is emitted with its unit,
and that the benchmark refuses to report without the package source.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if trace:
        # 10 transformed suites plus the originals re-predicted by the 9
        # label-preserving ones: 19 images per 10 cases
        assert values["tester.images_per_case"] == pytest.approx(1.9)
        # a negative self time means a span's children were counted twice;
        # cli.main spans the whole pass, so little time stays unattributed
        assert all(v >= 0 for name, v in values.items() if name.endswith(".self_s"))
        assert 0 <= values["trace.unattributed_s"] <= 0.2 * values["trace.run_s"]


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_benchmark("score-checkpoint", 0, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
