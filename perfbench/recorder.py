"""What one pass of a workload records: checks, item times and, when
tracing, spans around every call into the library plus exact counts.

A span is ``[name, start, end, parent]`` with perf_counter times in
seconds and ``parent`` the index of the enclosing span (or None).  Spans
are kept in memory and handed back with the pass result; the run id is
attached when run.py writes them out.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import calibrate

# Span names of the library calls the workloads make, and the exact counts
# recorded beside them.
LAYERS = (
    "roots.positive_roots",
    "symsquare.canonical_basis",
    "symsquare.action_matrices",
    "symsquare.expand",
    "symsquare.word_column",
    "orbits.pair_action",
    "orbits.orbit_tables",
    "orbits.closed_form_highest",
    "orbits.highest_pair",
    "forms.gram",
    "linalg.nullspace",
    "forms.action_kernel_order",
    "forms.kernel_intersection",
)
COUNTS = (
    "roots.positive_roots.count",
    "orbits.orbit_tables.members",
    "forms.gram.entries",
    "forms.image_order_sum",
)


class Recorder:
    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        # Items as [start, end], and windows of calibration samples as
        # [middle, samples]: one window before the first item and one
        # after every item.
        self.items: list[list[float]] = []
        self.windows: list[list] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """A span named ``name`` when tracing; nothing otherwise."""
        if not self.trace:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        entry = [name, perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(entry)
        try:
            yield
        finally:
            entry[2] = perf_counter()
            self._stack.pop()

    def call(self, layer: str, fn, *args):
        """fn(*args) as one use of ``layer``."""
        if not self.trace:
            return fn(*args)
        with self.span(layer):
            return fn(*args)

    @contextmanager
    def item(self, label: str):
        """One timed unit of a workload; when tracing, its calls nest in
        an item span.  An exception inside it counts as a failed check and
        the workload goes on with the next unit.  The machine's speed is
        sampled before and after it."""
        if not self.windows:
            self._calibrate(calibrate.SETUP_WINDOW_S)
        start = perf_counter()
        try:
            with self.span("item"):
                yield
        except Exception as exc:  # any library failure is a wrong answer here
            self.check("%s raised %r" % (label, exc), False)
        end = perf_counter()
        self.items.append([start, end])
        self._calibrate(calibrate.SHARE * (end - start))

    def _calibrate(self, seconds: float) -> None:
        with self.span("calibrate"):
            start = perf_counter()
            samples = calibrate.window(seconds)
            self.windows.append([(start + perf_counter()) / 2, samples])

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def count(self, name: str, n: int) -> None:
        if self.trace:
            self.counts[name] = self.counts.get(name, 0) + n
