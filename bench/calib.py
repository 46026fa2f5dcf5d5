"""Machine-speed calibration: a fixed pure-Python loop, timed between operations.

On a machine shared with other tenants, the CPU speed moves between states
about 1.4x apart, in bursts within a second and in states that last for
minutes, longer than a run.  Every timing moves with it, library and loop
alike.  A pass therefore times this loop between its operations, and the
benchmark reports each timing multiplied by REFERENCE_S / (the median loop
time around it): the time the operation would take at the reference speed.
The raw figures are reported beside them.
"""

from __future__ import annotations

import time
from fractions import Fraction

# loop_time() on the reference machine (a 2-vCPU Xeon VM, CPython 3.11) in
# its fast state, the 10th percentile over 30 s; a fixed unit, so that scaled
# timings read as milliseconds at that speed
REFERENCE_S = 0.0009

# a pass times the loop after every this many seconds of operations
EVERY_S = 0.05

# an operation is scaled by the median of this many loop samples nearest to it
NEAREST = 5


def loop_time() -> float:
    """Seconds taken by a fixed mix of integer, Fraction and dict work."""
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    total = Fraction(0)
    for i in range(1, 3600):
        acc += (i * i + acc) % 7919
        table[acc & 255] = i
        if i % 50 == 0:
            total += Fraction(acc, i)
    return time.perf_counter() - t0


def speed_factor(samples: list[float]) -> float:
    """How much slower than the reference the machine ran, from loop times."""
    ordered = sorted(samples)
    return ordered[len(ordered) // 2] / REFERENCE_S


def local_factor(samples: list[list[float]], at: float) -> float:
    """Speed factor around `at` from the (time, loop time) samples of one pass.

    Times are seconds of operations done before the sample.  The NEAREST
    samples closest to `at` are used, so that a change of the machine's state
    within a pass is followed.
    """
    near = sorted(samples, key=lambda s: abs(s[0] - at))[:NEAREST]
    return speed_factor([loop for _, loop in near])
