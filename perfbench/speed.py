"""Machine-speed probe that the analysis wall times are normalised by.

On a shared 2-CPU sandbox the same code runs at speeds up to about 1.6x
apart, in phases that last from seconds to minutes, on each CPU
independently.  Whole-run wall times then differ by 20-45 % between runs of
identical work.  A fixed probe timed right before each analysis slows down
with it: 150 back-to-back runs of one ``analyze`` call had an interquartile
range of 28 % of the median raw, 9 % after dividing by the probe.  A
normalised time is ``raw * REFERENCE_S / probe``: the time the call would
take on a machine where the probe takes ``REFERENCE_S``.  ``setup_s`` is
normalised the same way, by probes run in the fresh interpreter right after
the import it times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.005
WINDOW = 5  # probes in the rolling median, so one preempted probe does not count


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter work (dict, str, int and
    float operations, as in the tree queries) and dense row elimination (as
    in the window truncations, the cokernel and the Krylov checks)."""
    a = np.arange(90000.0).reshape(300, 300) % 7.0 + 10.0 * np.eye(300)
    start = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(4000):
        key = str(i & 511)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += int(key) * 1e-3
    for r in range(5):
        a[r + 1:, r:] -= np.outer(a[r + 1:, r] / a[r, r], a[r, r:])
    return time.perf_counter() - start


def median_probe(count: int = WINDOW) -> float:
    return statistics.median(probe() for _ in range(count))


class SpeedScale:
    """Rolling median of recent probes; ``scale`` turns a raw time into a
    normalised one."""

    def __init__(self):
        self._recent = []

    def sample(self):
        self._recent = self._recent[1 - WINDOW:] + [probe()]

    def scale(self, seconds: float) -> float:
        return seconds * REFERENCE_S / statistics.median(self._recent)
