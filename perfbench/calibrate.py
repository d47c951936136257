"""Machine-speed calibration for host-time metrics.

On a shared virtual machine the speed of a core drifts by 15-25% over
tens of seconds as other tenants load the host, and the whole process
slows together.  A fixed pure-Python reference task, timed between the
jobs of a run, tracks that drift closely (correlation ~0.97 against
repeated kernel extractions on the 2-core reference machine).  Every
host-time metric is therefore reported in *reference seconds*: the
measured time scaled by ``NOMINAL_S / (reference time measured nearby)``.
The reference uses nothing from ``src/``, so a change to the program
cannot move it; the raw seconds and the probes are kept in the run
record.

Garbage collection is paused while the reference runs, so a large heap
left by the program does not slow the probe and hide a regression.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List, Sequence

#: Seconds one :func:`reference_work` takes at the reference speed.
NOMINAL_S = 0.009


def reference_work() -> int:
    """A fixed task built from the operations the engine spends its time
    on: tuples of literal ids, set intersections, dict indexes, bitmasks."""
    rng = random.Random(12345)
    cubes = [tuple(sorted(rng.sample(range(64), rng.randint(2, 6)))) for _ in range(600)]
    index = {}
    for i, c in enumerate(cubes):
        for lit in c:
            index.setdefault(lit, set()).add(i)
    acc = 0
    for c in cubes:
        rows = set.intersection(*(index[lit] for lit in c[:2]))
        mask = 0
        for r in rows:
            mask |= 1 << (r & 63)
        acc += bin(mask).count("1") + len(rows)
        acc ^= hash(tuple(sorted(set(c) | {acc & 63})))
    return acc


def probe() -> float:
    """Seconds one reference task takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(probes: Sequence[float]) -> float:
    """Factor that turns seconds measured near *probes* into reference
    seconds (below 1 when the machine ran slower than the reference)."""
    return NOMINAL_S / statistics.median(probes)


def window(probes: List[float], i: int) -> List[float]:
    """The probes around the job that ran between probes *i* and *i* + 1:
    four on each side, so one probe slowed by a stray task cannot move
    the scale."""
    return probes[max(0, i - 3):i + 5]
