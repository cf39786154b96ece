"""Order statistics, the resident-memory reading and the host probe."""

from __future__ import annotations

import os
import resource
import statistics
import time

#: The tail percentile keeps at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples)``: the highest percentile with at
    least :data:`TAIL_BEYOND` samples beyond it (the maximum when there
    are too few samples for that)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def spread(values) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the driver computes it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else float("inf")


def self_peak_mb() -> float:
    """Peak resident set of this process, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_mb() -> float:
    """Largest peak resident set of any reaped child process, MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def process_peak_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_probe(repeats: int = 5) -> float:
    """Seconds for a fixed pure-Python loop: the median of ``repeats``.

    Program-independent; recorded next to each workload so host drift
    can be told apart from the program.  Never used to adjust a metric.
    """
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


def host_info() -> dict:
    """Host facts every run's output records."""
    import platform

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }
