"""Scaling measured times to a reference host speed.

CPU speed on a shared virtual machine drifts by 15-40% over tens of
seconds as other tenants' load comes and goes, which swamps the changes
the benchmark exists to find. So the times the benchmark reports are
scaled: a fixed pure-Python loop is timed just before and just after each
measurement, and a measured duration d becomes
d * NOMINAL_S / (mean loop time). The loop does not depend on the program,
so scaled times compare across commits. Raw wall times are printed beside
them.

The loop runs in a child process of its own (`python3 bench/speed.py`
prints one timing): on Linux a child's peak RSS counts its parent's at
spawn, so the benchmark process must stay small.
"""
from __future__ import annotations

import subprocess
import sys
import time

ITERATIONS = 2_000_000
#: The loop's time on the machine the benchmark was tuned on, in a quiet
#: phase; it only sets the scale, so reported times read as seconds there.
NOMINAL_S = 0.36


def reference_loop() -> float:
    """Tuples, dict lookups and stores into a table of 60,491 entries: the
    same kind of interpreter and memory work the program does."""
    start = time.perf_counter()
    table = {}
    for i in range(ITERATIONS):
        key = (i % 251, i % 241)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


def loop_seconds() -> float:
    done = subprocess.run([sys.executable, __file__], check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout)


class Scale:
    """Reference timings that bracket a sequence of measurements."""

    def __init__(self):
        self.last = loop_seconds()
        self.loops = [self.last]

    def factor(self) -> float:
        """Call right after a measurement: NOMINAL_S over the mean of the
        loop timings just before and just after it."""
        now = loop_seconds()
        self.loops.append(now)
        factor = NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return factor


if __name__ == "__main__":
    print(repr(reference_loop()))
