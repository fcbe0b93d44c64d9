"""The machine's speed, taken before each timed operation.

On a shared host the same code runs 1.3 to 1.9 times slower while another
tenant loads the sibling hardware thread, in phases lasting from under a
second to tens of seconds, and different code slows by different factors.
On top of that the speed of the quiet machine drifts by 10-20% over
minutes.  So before each timed operation, spin() times a fixed pure-Python
loop that does not touch the package, and the operation starts only once
the loop runs within QUIET_FACTOR of the fastest loop seen in the run (or
once the run's waiting budget is spent).  That keeps most timed operations
out of the contended phases; scaling the operation's wall time by
SPIN_REFERENCE_S over the loop time around it (before it, and for an
operation longer than LONG_OP_S the mean of before and after) then takes
out the slow drift.  The speed can change during a longer operation, so a
Sampler thread can also take spin() every SAMPLE_EVERY_S while one runs;
the process is then pinned to one CPU, so that the samples see the CPU the
operation runs on.  A spin is shorter than the interpreter's switch
interval, so the operation's thread does not cut it short; the operation
pauses for it instead, about 4% of a long operation's time.

This module imports nothing from the package, so a fresh interpreter can
use it before `import seaweeds` is timed.
"""

import os
import threading
from time import perf_counter, sleep

SPIN_ITERATIONS = 30_000
SPIN_REFERENCE_S = 0.002  # about its time on an uncontended 2-core Xeon
QUIET_FACTOR = 1.12
QUIET_POLL_S = 0.02
LONG_OP_S = 0.05
SAMPLE_EVERY_S = 0.05


def spin() -> float:
    """Wall time of a fixed loop."""
    t0 = perf_counter()
    s = 0
    for i in range(SPIN_ITERATIONS):
        s += i * i % 7
    return perf_counter() - t0


def slowest_spin(cpus) -> float:
    """The slowest spin() over `cpus`, pinned to each in turn; an operation
    spread over workers on all of them waits for the slowest."""
    allowed = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(spin())
    finally:
        os.sched_setaffinity(0, allowed)
    return max(times)


class Gate:
    """Holds each operation back until the machine runs at its best speed;
    with `cpus`, until every one of those CPUs does."""

    def __init__(self, budget_s: float, cpus=None):
        self.budget_s = budget_s  # total waiting allowed in the run
        self.cpus = cpus
        self.waited_s = 0.0
        self.spins: list[float] = []

    def sample(self) -> float:
        return spin() if self.cpus is None else slowest_spin(self.cpus)

    def wait(self) -> float:
        """Wait for a quiet machine; return the last speed sample."""
        start = perf_counter()
        while True:
            s = self.sample()
            self.spins.append(s)
            if (s <= QUIET_FACTOR * min(self.spins)
                    or self.waited_s + perf_counter() - start > self.budget_s):
                break
            sleep(QUIET_POLL_S)
        self.waited_s += perf_counter() - start
        return s


def at_reference(seconds: float, spin_s: float) -> float:
    """`seconds` of wall time, at the speed where spin() takes the reference."""
    return seconds * SPIN_REFERENCE_S / spin_s


class Sampler:
    """A thread taking spin() every SAMPLE_EVERY_S while an operation has been
    running longer than `after_s`; use as a context manager around the run."""

    def __init__(self, after_s: float):
        self.after_s = after_s
        self.op_start: float | None = None  # set while an operation runs
        self.samples: list[float] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample)

    def _sample(self) -> None:
        while not self._done.wait(SAMPLE_EVERY_S):
            start = self.op_start
            if start is not None and perf_counter() - start > self.after_s:
                self.samples.append(spin())

    def __enter__(self):
        self._allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._allowed)})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._done.set()
        self._thread.join()
        os.sched_setaffinity(0, self._allowed)
