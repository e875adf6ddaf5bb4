"""Benchmark of the tworoots library: runs one workload for a time budget
and prints its metrics.

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every pass of the workload runs in a
fresh interpreter (worker.py), single-threaded, so the library's
module-level caches start cold each time; passes repeat, one after the
other, while another fits in --seconds.  With --trace 0 every pass is
untraced and the end-to-end metrics are reported; with --trace 1
untraced and traced passes alternate and the per-layer metrics are
reported.  Every time is scaled to a reference speed of the machine by
the calibration loop sampled around it (calibrate.py).  Metric names and
units come from BENCHMARK.json.  Every pass checks the library's answers;
a failed check makes ``correct`` false but does not stop the run.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it gives the environment,
the sample counts and the failed checks.  Both, and the spans of the
traced passes, are also written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from recorder import COUNTS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_tables", "fork_queries", "kernel_closure")
# Workloads whose items are separate queries.  Each of the others is one
# request for a whole result, so its pass is one query.
QUERY_STREAMS = ("fork_queries",)
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 5
# A run must end within 180 seconds; leave room to report.
DEADLINE_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = worker_env()
        self.started = time.monotonic()
        calibrate.sample()  # warm the loop up

    def pass_(self, trace: bool, setup_only: bool = False) -> dict:
        """One pass in a fresh interpreter.  Adds its set-up time and, when
        it measured, each item's time, both at the reference speed, and
        the pass's mean speed relative to it."""
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), a.workload,
               str(a.seed), a.size, "1" if trace else "0"]
        if setup_only:
            cmd.append("--setup-only")
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise RuntimeError("out of time before the pass started")
        before = calibrate.window(calibrate.SETUP_WINDOW_S)
        launched = time.monotonic()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError("worker exited %d: %s" % (
                proc.returncode, proc.stderr.strip()[-2000:]))
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"] = calibrate.scale(out["ready"] - launched,
                                         before + out["cal_ready"])
        if not setup_only:
            out["item_ref_s"] = calibrate.scale_items(out["items"],
                                                      out["windows"])
            out["speed"] = calibrate.scale(
                1.0, [s for _, samples in out["windows"] for s in samples])
        out["elapsed_s"] = time.monotonic() - launched
        out["trace"] = trace
        return out


def run_passes(args) -> tuple[list[dict], list[float]]:
    """Passes while another fits in the budget, at least MIN_PASSES; with
    tracing, untraced and traced passes alternate.  Without, set-up-only
    passes follow until there are MIN_SETUP_SAMPLES set-up times."""
    runner = Runner(args)
    passes: list[dict] = []
    while True:
        passes.append(runner.pass_(bool(args.trace) and len(passes) % 2 == 1))
        spent = time.monotonic() - runner.started
        longest = max(p["elapsed_s"] for p in passes)
        if len(passes) >= MIN_PASSES and spent + longest > args.seconds:
            break
    setups = [p["setup_s"] for p in passes if not p["trace"]]
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.pass_(False, setup_only=True)["setup_s"])
    return passes, setups


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the time
    its direct children cover.  Spans of one pass never overlap their
    siblings, because a pass runs in one thread."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, passes, setups) -> tuple[dict, dict]:
    """Every pass times the same items.  Each item's time, at the
    reference speed, is its median over the passes; ``wall_s`` is the sum
    of these medians."""
    n = len(passes[0]["item_ref_s"])
    if any(len(p["item_ref_s"]) != n for p in passes):
        raise RuntimeError("passes timed different numbers of items")
    items = [statistics.median(p["item_ref_s"][i] for p in passes)
             for i in range(n)]
    wall = sum(items)
    lat = items if workload in QUERY_STREAMS else [wall]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "query_p50_ms": percentile(lat, 50) * 1e3,
        "query_p90_ms": percentile(lat, 90) * 1e3,
        "queries_per_s": len(lat) / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    samples = {"pass_wall_s": [p["wall_s"] for p in passes],
               "pass_speed": [p["speed"] for p in passes],
               "setup_samples": len(setups), "queries": len(lat),
               "queries_above_p90": sum(x * 1e3 > values["query_p90_ms"]
                                        for x in lat)}
    return values, samples


def per_layer(passes) -> tuple[dict, dict, bool]:
    """Per-layer metrics from the traced passes; the last value says
    whether the exact counts repeated in every traced pass.  Each traced
    pass's times are scaled to the reference speed by its mean speed."""
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]
    selfs = [{name: t * p["speed"]
              for name, t in self_times(p["spans"]).items()}
             for p in traced]
    values = {}
    for layer in LAYERS:
        values[layer + ".s"] = statistics.median(s.get(layer, 0.0)
                                                 for s in selfs)
    expand = [(e - s) * p["speed"] for p in traced
              for n, s, e, _ in p["spans"]
              if n == "symsquare.expand"]
    values["symsquare.expand.calls"] = len(expand) // len(traced)
    values["symsquare.expand.p50_us"] = (statistics.median(expand) * 1e6
                                         if expand else 0.0)
    counts = traced[0]["counts"]
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    values["trace_overhead_s"] = (
        statistics.median(sum(p["item_ref_s"]) for p in traced)
        - statistics.median(sum(p["item_ref_s"]) for p in plain))
    # Layer spans never nest, so what no layer covers in the measured phase
    # is the self time of the other spans in it, less calibration.
    values["untraced_s"] = statistics.median(
        sum(t for name, t in s.items()
            if name not in LAYERS + ("setup", "calibrate"))
        for s in selfs)
    samples = {"pass_wall_s": [p["wall_s"] for p in passes],
               "traced_passes": len(traced),
               "expand_samples": len(expand)}
    repeat = all(p["counts"] == counts for p in traced)
    return values, samples, repeat


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tworoots" / "__init__.py").is_file():
        print("error: no library source at %s" % (ROOT / "src" / "tworoots"),
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    # Compile before timing, so set-up time does not include compiling.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    try:
        passes, setups = run_passes(args)
        if args.trace:
            values, samples, correct = per_layer(passes)
        else:
            values, samples = end_to_end(args.workload, passes, setups)
            correct = True
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    correct = correct and not failures
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    details = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "commit": commit(),
        "python": passes[0]["python"], "numpy": passes[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "samples": samples,
        "fail_ratio": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
    }
    result = {"correct": correct, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    record = dict(details, result=result)
    if args.trace:
        record["spans"] = [
            dict(zip(("name", "start", "end", "parent"), s),
                 run_id="%s-%d-%d" % (args.workload, args.seed, i))
            for i, p in enumerate(passes) if p["trace"] for s in p["spans"]]
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (out / name).write_text(json.dumps(record) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
