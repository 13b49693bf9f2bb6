"""Machine-speed sampling, so that timings from a shared machine compare.

On a machine shared with other tenants the same pure-Python scan runs up to
40% slower from one minute to the next, and it drifts over minutes, so
longer runs do not average it out.  While a run measures, a SIGALRM timer
interrupts it every ``INTERVAL_S`` and times a fixed pure-Python kernel by
the thread's CPU time.  Every latency is then scaled by ``(NOMINAL_S / k)
** SLOPE``, where k is the median kernel time during the request and
CONTEXT_S before it: it estimates the latency on a machine on which the
kernel takes ``NOMINAL_S``, about its typical time on a 2-core Xeon.  The
workloads slow down less than the kernel when the machine is busy: over
sets of ten runs on a 2-core Xeon the log-log slope of their times against
the kernel's ranged from 0.4 to 1.2, median 0.7.  SLOPE = 0.5 took the
spread between runs from up to 0.25 to at most 0.12 on every workload,
where the full correction (SLOPE = 1) over-corrected the parallel workload.
The kernel is the benchmark's own code, so a faster package moves the
scaled times as it moves the raw ones.  Time spent in the handler is
subtracted from the request it interrupted, and runs record the times as
measured too.

Set-up (importing the package and building its tables) is unmarshalling
and running module code, which the kernel does not track.  A set-up probe
first imports ``IMPORT_REFERENCE``, pure-Python standard modules the
package does not use, and set-up is scaled by ``NOMINAL_IMPORT_S / (their
import time)``; on a 2-core Xeon that took the spread of set-up between
runs from 0.15-0.43 to below 0.1.
"""

from __future__ import annotations

import bisect
import importlib
import signal
import statistics
from time import perf_counter, thread_time

INTERVAL_S = 0.2
IMPORT_REFERENCE = ("_pydecimal", "ipaddress", "difflib", "configparser", "calendar")
NOMINAL_IMPORT_S = 0.012
CONTEXT_S = 2.0
NOMINAL_S = 8.0e-4
SLOPE = 0.5

_TABLE = [[(a * b) % 7 for b in range(7)] for a in range(7)]


def kernel(rounds: int = 300) -> int:
    """Table lookups, small tuples, a dict and integer work, like the scans."""
    seen: dict = {}
    acc = 0
    for i in range(rounds):
        row = _TABLE[i % 7]
        key = tuple(row[(i + k) % 7] for k in range(6))
        seen[key] = seen.get(key, 0) + 1
        acc ^= (i * 2654435761) & 0xFFFF
        acc += sum(key) % 7
    return acc + len(seen)


def import_reference_time() -> float:
    """Time to import IMPORT_REFERENCE; call once, in a fresh process."""
    start = perf_counter()
    for name in IMPORT_REFERENCE:
        importlib.import_module(name)
    return perf_counter() - start


def kernel_time() -> float:
    start = thread_time()
    kernel()
    return thread_time() - start


class Unscaled:
    """Raw timing: traced runs, whose spans the handler would disturb."""

    spent = 0.0

    def scale(self, start: float, end: float) -> float:
        return 1.0


class Speedometer:
    """Samples the kernel on a timer while active (a context manager)."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_signal) -> None:
        start = perf_counter()
        self.times.append(start)
        self.kernel_s.append(kernel_time())
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        for _ in range(5):
            self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """(NOMINAL_S / k) ** SLOPE for the median kernel time k sampled from
        CONTEXT_S before the request to its end (one sample is too noisy)."""
        lo = bisect.bisect_left(self.times, start - CONTEXT_S)
        hi = bisect.bisect_right(self.times, end)
        k = statistics.median(self.kernel_s[lo:hi] or self.kernel_s[-5:])
        return (NOMINAL_S / k) ** SLOPE

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernel_s)
