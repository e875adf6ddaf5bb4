"""One pass of a workload, in the fresh interpreter it is started in.

    python3 perfbench/worker.py WORKLOAD SEED SIZE TRACE [--setup-only]

Started by run.py with the checkout's ``src`` on PYTHONPATH.  Imports the
library, does the workload's set-up, notes the monotonic clock (which all
processes share, so the parent can time set-up from before it started the
interpreter) and samples the calibration loop, then runs the measured
phase and prints one JSON line.  With --setup-only it stops after set-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    workload, seed, size, trace = argv[:4]
    setup_only = "--setup-only" in argv[4:]
    import numpy

    import calibrate
    import tworoots
    from recorder import Recorder
    import workloads

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(tworoots.__file__).resolve().parent != src / "tworoots":
        print("error: imported tworoots from %s, not from %s"
              % (tworoots.__file__, src), file=sys.stderr)
        return 2
    rec = Recorder(trace == "1")
    inputs = workloads.make_inputs(workload, int(seed), size)
    with rec.span("setup"):
        ready = workloads.setup(workload, rec)
    out = {"ready": time.monotonic(),
           "cal_ready": calibrate.window(calibrate.SETUP_WINDOW_S)}
    if not setup_only:
        start = time.perf_counter()
        with rec.span("measure"):
            workloads.run(workload, inputs, ready, rec)
        out["wall_s"] = time.perf_counter() - start
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.update(
            peak_rss_mb=peak_kib / 1024,
            attempted=rec.attempted,
            failures=rec.failures,
            items=rec.items,
            windows=rec.windows,
            spans=rec.spans,
            counts=rec.counts,
            python=sys.version.split()[0],
            numpy=numpy.__version__,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
