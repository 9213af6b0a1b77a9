"""Host speed, measured by a fixed reference loop timed between ops.

The benchmark runs on a few cores of a shared host whose speed changes
within a second and drifts by up to 40 % over minutes: a neighbour's load
slows the core itself, so process CPU time slows with wall time and neither
removes the drift.  A loop of the same kind of interpreter work as the
program (integer arithmetic, dict and set updates, list appends and a
sort), timed next to the ops, slows by nearly the same share.  Dividing an
op's time by the loop's slowdown gives the op's time on a host where the
loop takes ``NOMINAL_S``.

The loop is part of the benchmark, not of the program, so a change to the
program moves the op times and leaves the reference alone.
"""

from __future__ import annotations

import time
from statistics import fmean

# About the loop's median time on the 2-core Xeon KVM guest (Python 3.11)
# the benchmark was tuned on.  It only fixes the scale of normalised times.
NOMINAL_S = 0.004
# Reference runs used on each side of a timing: one tracks 20 ms ops best,
# more smooth the loop's own noise on ops of a quarter second.
REACH = 2


def reference_work() -> int:
    """A fixed mix of interpreter work; the result is returned so it runs."""
    counts: dict[int, int] = {}
    seen = set()
    order = []
    acc = 0
    for i in range(6000):
        key = (i * 7919) % 977
        counts[key] = counts.get(key, 0) + 1
        seen.add(key ^ (i & 31))
        order.append(key)
        acc += (i * i) % 13
    order.sort()
    return acc + len(seen) + order[len(order) // 2] + len(counts)


def sample() -> float:
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def normalise(times: list[float], refs: list[float]) -> list[float]:
    """Each of ``times`` scaled to a host where the loop takes ``NOMINAL_S``.

    ``refs[i]`` is a reference run made just before ``times[i]`` and
    ``refs[i + 1]`` one made just after.  The host changes speed within a
    second, so each time is divided by the mean slowdown of the ``REACH``
    runs on either side of it only.
    """
    out = []
    for i, seconds in enumerate(times):
        around = refs[max(0, i + 1 - REACH) : i + 1 + REACH]
        out.append(seconds * NOMINAL_S / fmean(around))
    return out
