"""Host-speed reference for the benchmark's figures that measure
computation (set-up, CPU per operation, certification time).

The shared host's CPU speed drifts by up to 1.6x over tens of minutes:
on a 2-vCPU KVM guest with Python 3.11.7 the certify-symmetric
certification took 8.0 s of CPU at one point and 4.8 s fifteen minutes
later, while a fixed pure-Python loop went from 18.2 to 11.5 ms in the
same two periods.  CPU time does not remove such drift (it removes
only the time other tenants hold the CPU), so those figures are scaled
to a nominal host speed: every measured process times :func:`unit` next
to its measured work and that work's time is multiplied by
``NOMINAL_UNIT_MS / unit time``.  The unit does none of the program's
work, so a change to the program moves a scaled figure by the same share
as the raw one.
"""

from __future__ import annotations

import statistics
from time import process_time

#: CPU milliseconds of one :func:`unit` on the nominal host, a fixed
#: point taken from the guest above (where it has measured 8.8 to 25.9 ms):
#: scaled figures read as times on a host where the unit takes this long.
NOMINAL_UNIT_MS = 11.5
#: Each measured process times the unit next to its measured work, in
#: samples of this much CPU time; the median drops short disturbances.
SAMPLES = 5
SAMPLE_S = 0.1


def unit() -> int:
    """A fixed piece of interpreter work of the kind the program does:
    a depth-first search over tuple states with a dict memo."""
    memo: dict[tuple[int, int], int] = {}
    total = 0
    for seed in range(60):
        stack = [(seed & 15, 0)]
        while stack:
            state, depth = stack.pop()
            key = (state, depth)
            if key in memo:
                total += memo[key]
                continue
            memo[key] = depth
            if depth < 6:
                for bit in (1, 2, 4):
                    stack.append(((state ^ bit) * 3 & 0xFFFF, depth + 1))
        memo.clear()
    return total


def unit_ms() -> float:
    """One unit's CPU time on this host now, in ms (median of samples)."""
    unit()  # the first call runs measurably slower than the rest
    samples = []
    for _ in range(SAMPLES):
        started = process_time()
        units = 0
        while process_time() - started < SAMPLE_S:
            unit()
            units += 1
        samples.append(1000 * (process_time() - started) / units)
    return statistics.median(samples)


def to_nominal(unit_ms_here: float) -> float:
    """The factor that turns this host's CPU time into the nominal host's."""
    return NOMINAL_UNIT_MS / unit_ms_here
