"""Machine-speed calibration by a fixed pure-Python integer kernel.

The speed of a shared machine drifts with the load other tenants put on it.
The kernel below does the same kind of work as fanoweb (small tuples, dict
lookups, integer arithmetic, a generator) and its result is fixed, so its
time measures only the speed of the interpreter at that moment. Operation
times are CPU times of the thread doing the work, which leave out the time
the machine ran other processes. The process that times the operations also
times the kernel, from a second thread while they run (Sampler), and scales
each operation's time by NOMINAL_MS / (mean time of the kernel runs around
it). Figures are then in seconds of a machine on which the kernel takes
NOMINAL_MS.

In a fresh interpreter the kernel does not track what a cold process costs.
Cold work (CLI processes, the set-up of workload processes) is calibrated
instead by a fixed reference cold process run next to it: its CPU time is
scaled by COLD_NOMINAL_MS / (median CPU time of the nearby reference
processes).
"""

from __future__ import annotations

import threading
from time import perf_counter_ns, thread_time_ns

KERNEL_N = 2000
KERNEL_RESULT = 4222485
# Median kernel time on the reference machine (2-vCPU VM, Python 3.11.7).
NOMINAL_MS = 2.5
# CPU time of worker.py's reference cold process on the same machine.
COLD_NOMINAL_MS = 150.0


def kernel(n=KERNEL_N):
    d = {}
    acc = 0
    for i in range(n):
        t = (i % 61, (i * 7) % 53)
        k = d.get(t)
        if k is None:
            k = d[t] = t[0] * t[1] - t[1]
        acc += k if (t[0] + t[1]) & 1 else -k
        acc += sum(x * x for x in t)
    return acc


def sample_ms(repeats=1):
    """Mean kernel CPU time of this thread in milliseconds over `repeats` runs."""
    t0 = thread_time_ns()
    for _ in range(repeats):
        if kernel() != KERNEL_RESULT:
            raise RuntimeError("calibration kernel gave a wrong result")
    return (thread_time_ns() - t0) / 1e6 / repeats


def warm_up():
    """The first runs in a fresh interpreter are slower while it specializes
    the kernel's bytecode."""
    sample_ms(3)


class Sampler:
    """Kernel samples from a second thread while operations run.

    Use as a context manager around the operations. Time each operation
    with the CPU time of its own thread (time.thread_time_ns), which leaves
    out the sampler's share, and note its wall-clock span
    (time.perf_counter_ns). factor(start, end) is the scale factor from the
    samples taken within MARGIN_NS of that span.
    """

    MARGIN_NS = 250_000_000

    def __init__(self, interval_s=0.05):
        self.interval_s = interval_s
        self.samples = []  # (perf_counter_ns at the end of a sample, kernel ms)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        ms = sample_ms()
        self.samples.append((perf_counter_ns(), ms))

    def _run(self):
        warm_up()
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self._sample()

    def factor(self, start_ns, end_ns):
        lo, hi = start_ns - self.MARGIN_NS, end_ns + self.MARGIN_NS
        near = [ms for t, ms in self.samples if lo <= t <= hi]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - end_ns))[1]]
        return NOMINAL_MS * len(near) / sum(near)
