"""How fast the CPUs a pass runs on are while it runs.

On a shared virtual machine, other tenants slow a core down by up to 1.75x
for stretches of seconds to minutes, independently on each CPU. Pass times
follow: identical passes of one workload varied 19% (IQR over median). A
fixed loop's CPU time, sampled on the pass's own CPU while the pass runs,
tracks that slowdown (correlation 0.98 with pass wall time), because CPU
time leaves out the time the loop waits for the pass but not the time the
core is slowed.

A `CoreSpeed` samples the loop on each given CPU, from threads of the
calling process: when it starts, every PROBE_INTERVAL_S, and when it stops.
Its `slowdown` is the mean sample divided by PROBE_REF_S, the loop's CPU
time on an uncontended core of the machine the benchmark was built on
(Intel Xeon, 2 vCPUs, Python 3.11.7). Dividing a process's times by it
gives seconds at that reference speed.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PROBE_LOOPS = 20_000
PROBE_INTERVAL_S = 0.2
PROBE_REF_S = 1.1e-3


def probe_cpu_time() -> float:
    """CPU seconds this thread spends on a fixed loop."""
    start = time.thread_time()
    x = 0
    for i in range(PROBE_LOOPS):
        x += (i * i) & 0xFF
    return time.thread_time() - start


class CoreSpeed:
    """Samples the probe on each of `cpus` until the `with` block ends."""

    def __init__(self, cpus: list[int]):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(cpu,), daemon=True)
                         for cpu in cpus]

    def _sample(self, cpu: int) -> None:
        # one sample at the start and one at the end, so that a process too
        # short for the interval still gets two
        os.sched_setaffinity(0, {cpu})  # this thread only
        self.samples.append(probe_cpu_time())
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append(probe_cpu_time())
        self.samples.append(probe_cpu_time())

    def __enter__(self) -> "CoreSpeed":
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        for t in self._threads:
            t.join()
        return False

    @property
    def slowdown(self) -> float:
        """Mean probe time over the reference; 1.0 if no sample was taken."""
        return statistics.fmean(self.samples) / PROBE_REF_S if self.samples else 1.0
