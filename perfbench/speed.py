"""Machine-speed calibration for wall times taken on a shared machine.

On a machine shared with other tenants the speed of one CPU drifts by a
factor of two over tens of seconds, so raw wall-time medians of two runs a
minute apart can differ by 20% or more with no change to the program.  Each
timed interval is therefore bracketed by a fixed pure-Python calibration loop
(float arithmetic, calls, small dicts and tuples, like symbif's own hot
code), and reported in *reference seconds*::

    reference_s = measured_s * CAL_NOMINAL_S / mean(calibration before, after)

A reference second is the time the work takes when the calibration loop
takes CAL_NOMINAL_S.  The loop imports nothing from symbif, so a change to
symbif moves the reported time exactly as it moves the measured one; raw
seconds are printed alongside.
"""

from __future__ import annotations

import os
import time

#: nominal duration of one calibration loop; the unit of a reference second
CAL_NOMINAL_S = 0.016


def _calibration_loop(n: int = 12000) -> float:
    acc = 0.0
    counts: dict[int, int] = {}
    pairs = []
    for i in range(n):
        x = 0.001 * i
        term = total = 1.0
        for k in range(1, 8):
            term = -term * x * x / (4.0 * k * k)
            total += term
        acc += abs(total)
        counts[i & 127] = counts.get(i & 127, 0) + 1
        pairs.append((i, total))
        if len(pairs) > 64:
            pairs.clear()
    return acc


def calibration_s() -> float:
    t0 = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - t0


def timed_ops(ops):
    """Run each thunk in turn, with a calibration loop before the first and after each.

    Returns (results, raw seconds, reference seconds); each operation is scaled
    by the mean of the two calibrations around it.
    """
    results = []
    raw = ref = 0.0
    before = calibration_s()
    for op in ops:
        t0 = time.perf_counter()
        results.append(op())
        dt = time.perf_counter() - t0
        after = calibration_s()
        raw += dt
        ref += dt * CAL_NOMINAL_S / (0.5 * (before + after))
        before = after
    return results, raw, ref


def timed(fn):
    """Run fn once; returns (result, raw seconds, reference seconds)."""
    results, raw, ref = timed_ops([fn])
    return results[0], raw, ref


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so calibration and work share it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
