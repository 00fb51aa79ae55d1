"""Host-normalised time for the timing metrics.

The speed of a shared VM drifts: on a 2-vCPU host, consecutive 25-second
runs of the same ops moved by up to 1.4x, and a slow or fast spell lasts
from seconds to minutes, so more work in a run does not average it out.
A fixed reference loop that touches no pattherm code is therefore timed
between ops, and every op's wall time is scaled by (REF_S / r) ** TRACKING,
where r is the median of the reference times around the op. A change in
pattherm moves the scaled time in full, since the reference does not run
its code; a change in host speed moves the reference and the op together
and mostly cancels. Raw wall times are kept next to the scaled ones in the
result file.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Nominal reference time. A scaled second is a wall second on a host where
# one reference loop takes REF_S; it is about the fast state of the host
# the benchmark was tuned on.
REF_S = 0.003
# Ops slow by about the reference's slowdown to this power. Fitted on
# 45-second runs of each workload at different times: per-pass op time
# then spread (log sd) 0.035-0.057 on the three workloads, against
# 0.060-0.078 with a power of 1 and 0.11-0.16 unscaled.
TRACKING = 0.75

_SMALL = np.random.default_rng(0).random((16, 16))


def reference_seconds() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy calls.

    Its data fit in the L1 cache. A large array would be evicted by a big
    op and read back slower after it, which would tie the reference to
    pattherm's own memory use.
    """
    start = time.perf_counter()
    acc: dict[tuple[int, int], float] = {}
    for i in range(5000):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, 0.0) + math.log1p(i)
    for _ in range(300):
        _SMALL.sum(axis=1).argmax()
    return time.perf_counter() - start


WINDOW = 5  # reference times on each side of a step that set its scale


class HostClock:
    """Times the reference between steps and scales each step's wall time.

    Step i runs between reference times i and i + 1. Its scale uses the
    median of the 2 * WINDOW reference times around it, since a single
    reference time is itself as noisy as a short op.
    """

    def __init__(self) -> None:
        self.refs = [reference_seconds()]

    def tick(self) -> None:
        """Time the reference once more; call it after every step."""
        self.refs.append(reference_seconds())

    def scale(self, step: int, seconds: float) -> float:
        around = self.refs[max(0, step + 1 - WINDOW): step + 1 + WINDOW]
        return scaled(seconds, statistics.median(around))


def scaled(seconds: float, reference: float) -> float:
    """Wall seconds as they would read where the reference takes REF_S."""
    return seconds * (REF_S / reference) ** TRACKING
