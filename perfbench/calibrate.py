"""How fast the machine runs Python at a moment, measured by a fixed loop.

The benchmark runs on shared machines whose speed swings by a factor of
up to two, both from one millisecond to the next and over spells of
seconds, as neighbours load the host.  Every time the benchmark reports
is therefore scaled to a reference speed: a pass runs this loop in a
window before its first item and after every item, each window lasting
SHARE of the item before it, and an item's time is multiplied by REF_S
over the loop's mean time around the item (``scale_items``).  A change to
the library changes the item times but not the loop, so it shows in full;
a slow spell of the host slows both, and drops out.

The loop is the benchmark's own code and never calls the library.  It
does the kind of work the library does (tuple building and hashing,
dictionary updates, small-integer arithmetic) with the garbage collector
off, so that its time does not depend on how large the library's heap is.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Seconds the loop takes at the reference speed: about its time in the
# fast spells of a 2 GHz x86-64 Xeon VM under CPython 3.11.  Times the
# benchmark reports are seconds at this speed.
REF_S = 0.0018
ROUNDS = 3000
# A window after an item lasts this share of the item's time.
SHARE = 0.2
# Seconds of the windows before and after set-up.
SETUP_WINDOW_S = 0.05


def _loop() -> int:
    table: dict = {}
    x = 12345
    for i in range(ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 255, (x >> 8) & 255, i & 7)
        table[key] = table.get(key, 0) + 1
    return len(table)


def sample() -> float:
    """Seconds one run of the loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def window(seconds: float) -> list[float]:
    """Samples of the loop, one after another, until they cover
    ``seconds``; at least one."""
    samples = [sample()]
    total = samples[0]
    while total < seconds:
        samples.append(sample())
        total += samples[-1]
    return samples


def scale(seconds: float, samples: list[float]) -> float:
    """``seconds`` measured among the loop ``samples``, as seconds at the
    reference speed."""
    return seconds * REF_S * len(samples) / sum(samples)


def scale_items(items: list, windows: list) -> list[float]:
    """Times at the reference speed of the items of one pass.

    ``items`` are ``[start, end]`` and ``windows`` ``[middle, samples]``,
    with perf_counter times; window i comes before item i and window i + 1
    after it.  An item is scaled by the loop's mean over its two windows
    and every window whose middle lies within one item length of the
    item's middle.  A short item thus gets the speed just around it, while
    a long one gets a mean over a stretch of the pass about three times its
    length: speed changes within it, which no window sees, average out.
    """
    out = []
    for i, (start, end) in enumerate(items):
        middle, length = (start + end) / 2, end - start
        pool = [s for j, (at, samples) in enumerate(windows)
                if j in (i, i + 1) or abs(at - middle) <= length
                for s in samples]
        out.append(scale(length, pool))
    return out
