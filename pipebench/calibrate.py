"""A fixed calibration loop that measures how fast the host runs Python now.

On a shared host the speed of one core moves by half or more within
seconds, as other tenants load the cores it shares (on a 2-vCPU cloud VM a
fixed loop took anywhere from 0.15 s to 0.24 s within one minute, and the
corpus invocations slowed with it). The benchmark times this loop right
before and right after each measurement and rescales the measurement to
the speed at which the loop takes ``REFERENCE_S``:

    reference seconds = seconds * REFERENCE_S / loop seconds

A change to cellgauge moves its own time and not the loop's, so it moves the
rescaled figure by the same share as the raw one, while a slow spell of the
host moves both and largely cancels out. The loop mixes the two kinds of work the
pipeline does: a hot dictionary loop that stays in cache, and allocation of
sets, tuples and strings over a few megabytes, as the graph and the scanner
do.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.3  # about the loop's time on one 2.1 GHz Xeon vCPU


def _loop() -> int:
    counts: dict[int, int] = {}
    for i in range(600_000):
        key = i % 5000
        counts[key] = counts.get(key, 0) + i
    reverse: dict[tuple[int, int], set] = {}
    for k in range(1, 360):
        target = (k, 2)
        for r in range(1, k + 1):
            sources = reverse.get((r, 1))
            if sources is None:
                sources = reverse[(r, 1)] = set()
            sources.add(target)
    tokens: list[str] = []
    for i in range(20_000):
        text = f'SUM($A$1:A{i})+IF(B{i}>{i % 97},"x",C{i}*3)'
        tokens.extend(text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split())
    return len(counts) + len(reverse) + len(tokens)


def loop_seconds() -> float:
    """Wall time of the calibration loop, run twice so that one short spike
    of the host weighs no more in it than in a corpus invocation."""
    started = time.perf_counter()
    _loop()
    _loop()
    return time.perf_counter() - started


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` in reference seconds, given the loop's time on either side."""
    return seconds * REFERENCE_S / ((before + after) / 2)
