"""Host-speed calibration: a fixed reference loop timed around each pass.

On a shared host the same pass can take 7 s in one minute and 11 s a few
minutes later: the machine's speed drifts in steps that last seconds to
minutes, and a median over passes cannot remove drift slower than a
run.  So the runner times this loop -- a fixed amount of interpreter work
(calls, dict and heap operations) and small numpy operations, none of it
program code -- before the first pass and after every pass, and scales
each measured time by :func:`speed_factor` of the loop times around it.

The loop runs no ``repro`` code, so the factor does not depend on the
program: a change to the program moves scaled times by the same ratio as
measured ones, while host drift partly cancels.  Unscaled times stay
visible as ``host.wall_s`` and ``host.reference_loop_s``.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Loop time (seconds) of the nominal host that timings are scaled to.
REFERENCE_S = 0.4

#: How strongly the workloads follow the loop's speed.  The loop swings
#: about twice as far as the workloads between the host's fast and slow
#: states (0.25 s to 0.54 s, against 7 s to 11 s for a figure5_quick
#: pass), so full scaling (exponent 1) over-corrects long passes.  Over
#: two sets of 5 and 10 runs of each workload on a 2-core shared host,
#: the largest quartile spread of ``wall_s`` was 0.43 unscaled, 0.32 with
#: exponent 1 and 0.18 with exponent 0.5, the smallest of those tried.
EXPONENT = 0.5

_ITERATIONS = 250_000


def speed_factor(loop_s: float) -> float:
    """Factor that scales a time measured while the loop took ``loop_s``."""
    return (REFERENCE_S / loop_s) ** EXPONENT


def reference_loop_s() -> float:
    """Wall time of one run of the fixed reference loop."""
    t0 = time.perf_counter()
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    for i in range(_ITERATIONS):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    values = np.arange(64.0)
    for _ in range(_ITERATIONS // 8):
        values = np.maximum(values * 0.5, 1.0)
    return time.perf_counter() - t0
