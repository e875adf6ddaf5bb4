"""Tests of the benchmark itself: clean tiny passes find no failures, a
corrupted expectation or a perturbed answer is caught, and run.py
prints every metric BENCHMARK.json declares.

    python3 -m pytest -q perfbench/check_perfbench.py

The file is not named test_*.py, so the library's own test run does not
collect it; it starts benchmark subprocesses and takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import expected  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from recorder import COUNTS, Recorder  # noqa: E402
from tworoots import symsquare  # noqa: E402


def tiny_fail_ratio(workload: str) -> float:
    rec = Recorder(False)
    ready = workloads.setup(workload, rec)
    workloads.run(workload, workloads.make_inputs(workload, 3, "tiny"),
                  ready, rec)
    assert rec.attempted > 0
    # A calibration window before the first item and after every item.
    assert len(rec.windows) == len(rec.items) + 1
    return len(rec.failures) / rec.attempted


def bench(workload: str, trace: int, root: Path = ROOT, size: str = "tiny"):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--size", size],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_finds_no_failure(workload):
    assert tiny_fail_ratio(workload) == 0


@pytest.mark.parametrize("workload, table, key, wrong", [
    ("paper_tables", expected.ORBIT_SIZES, "D4", [6, 6, 7]),
    ("paper_tables", expected.HIGHEST_HEIGHTS, "A4", [6]),
    ("kernel_closure", expected.KERNEL_ORDERS, "D4", {6: 4}),
])
def test_corrupted_expected_value_is_caught(monkeypatch, workload, table,
                                            key, wrong):
    monkeypatch.setitem(table, key, wrong)
    assert tiny_fail_ratio(workload) > 0


@pytest.mark.parametrize("workload", ["paper_tables", "fork_queries"])
def test_perturbed_coordinate_is_caught(monkeypatch, workload):
    real = symsquare.CanonicalBasis.expand

    def perturbed(self, s):
        coords = real(self, s)
        return (coords[0] + 1,) + coords[1:]

    monkeypatch.setattr(symsquare.CanonicalBasis, "expand", perturbed)
    assert tiny_fail_ratio(workload) > 0


def test_self_time():
    spans = [["measure", 0.0, 10.0, None],
             ["item", 1.0, 5.0, 0],
             ["symsquare.expand", 2.0, 4.0, 1],
             ["forms.gram", 6.0, 7.0, 0],
             ["forms.gram", 7.0, 7.5, 0]]
    assert run.self_times(spans) == {"measure": 4.5, "item": 2.0,
                                     "symsquare.expand": 2.0,
                                     "forms.gram": 1.5}


def test_scale_items():
    windows = [[0.0, [1.0]], [0.7, [3.0]], [5.5, [2.0]], [6.5, [6.0]]]
    items = [[0.5, 0.6], [1.0, 5.0], [6.0, 6.1]]
    # A short item gets its two windows; the long one also every window
    # within its length of its middle.
    assert calibrate.scale_items(items, windows) == pytest.approx(
        [0.1 * calibrate.REF_S / 2, 4 * calibrate.REF_S / 3,
         0.1 * calibrate.REF_S / 4])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in declared[key]}


def test_exact_counts_repeat_for_a_seed():
    names = list(COUNTS) + ["symsquare.expand.calls"]
    seen = []
    for _ in range(2):
        proc = bench("paper_tables", 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        seen.append({n: metrics[n]["value"] for n in names})
    assert seen[0] == seen[1]
    assert all(seen[0][n] > 0 for n in names if n != "forms.image_order_sum")


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("paper_tables", 0, root=tmp_path, size="full")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
