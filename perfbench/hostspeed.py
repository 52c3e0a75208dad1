"""How fast the host runs right now, from a fixed reference kernel.

A shared host runs its CPUs in fast and slow phases of seconds to
minutes; a slow phase stretches every request it covers.  To keep those
phases out of the metrics, each timed loop runs the reference kernel
below between requests, about every ``INTERVAL_S`` of wall time, and
the pass's timings are divided by its host-speed factor: the median
kernel time over ``REFERENCE_S`` (``HostSpeed.factor``).

The kernel is the benchmark's own pure-Python code and calls nothing of
the program under test.  It does what an interpreter-bound service does:
dict and list lookups scattered over a 100k-record working set, small
allocations and calls.  Every sample draws fresh records instead of
re-reading the last sample's, so it finds them out of the near caches
whatever the program did in between, and a change to the program's
memory traffic does not move it.  It is timed in thread CPU time, so another thread or process holding
the CPU while it runs does not slow it.
"""

from __future__ import annotations

import time
from array import array

#: Kernel time, in thread CPU seconds, that counts as the reference
#: speed: scaled timings read as if every request ran at this speed.
#: It is the kernel's median time inside the timed loops over 100 s on
#: a shared 2-vCPU VM, where over hours the factor ranged 0.8-1.5.
REFERENCE_S = 0.0033
#: Wall seconds between kernel samples inside a timed loop.
INTERVAL_S = 0.04

RECORDS = 100_000
STEPS = 2_000
#: Untimed steps before each timed sample, so the interpreter's own
#: code and state are as warm for the kernel as ever, whatever code the
#: program ran before it.
WARMUP_STEPS = 200


def _build():
    return [{"id": i, "name": f"r{i}", "pair": [i, i + 1]} for i in range(RECORDS)]


def _key(record) -> int:
    return (record["id"] ^ len(record["name"])) & 63


def kernel(records, x: int, steps: int) -> int:
    """``steps`` lookups at records picked by an LCG that continues from
    state ``x``; returns the LCG's next state.  Each sample draws fresh
    records instead of re-reading the last sample's, so it finds them
    about as far from the CPU whatever the program did to the caches in
    between."""
    buckets: dict = {}
    count = len(records)
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        index = x % count
        record = records[index]
        key = _key(record)
        buckets[key] = buckets.get(key, 0) + record["pair"][1]
        if index & 3 == 0:
            pair = {"k": key, "v": (index, key)}
            buckets[key] += len(pair)
    return x


class HostSpeed:
    """Kernel samples taken through one timed loop."""

    def __init__(self) -> None:
        self.records = _build()
        self.state = 1
        self.reset()

    def reset(self) -> None:
        self.samples = array("d")
        self.last = float("-inf")

    def sample(self) -> None:
        """Run the kernel once and record its thread CPU time."""
        thread_clock = time.thread_time
        self.state = kernel(self.records, self.state, WARMUP_STEPS)
        started = thread_clock()
        self.state = kernel(self.records, self.state, STEPS)
        self.samples.append(thread_clock() - started)
        self.last = time.perf_counter()

    def tick(self) -> None:
        """Call before each request: samples when ``INTERVAL_S`` has
        passed since the last sample."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """The median sample over ``REFERENCE_S``: how much slower than
        the reference the host ran through the loop."""
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2] / REFERENCE_S
