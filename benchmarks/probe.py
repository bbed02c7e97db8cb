"""Host-speed probe, interleaved with every benchmark child on the child's CPU.

The benchmark host is a few cores of a shared machine whose speed drifts by
tens of percent over tens of seconds.  To take that drift out of the times,
the parent pins itself and the child to one CPU and, every RUN_SLICE_S, stops
the child (SIGSTOP), times PROBE_BATCHES batches of a fixed kernel, and lets
the child go on (SIGCONT).  The probe thus samples the speed of the child's
own CPU all through the child's run, without ever running beside it.  run.py
removes the stopped intervals from the child's times and scales what is left
by NOMINAL_BATCH_S / (mean batch time): seconds on a host where one probe
batch takes NOMINAL_BATCH_S.  The probe uses only numpy and the interpreter,
never heatconf, so a change to the program does not change it.

The kernel mixes the kinds of work the workloads do: trigonometry on a
modes x points outer product (jet_block), a 3-D FFT (the spectral grid) and a
pure-Python loop (per-point code).
"""
from __future__ import annotations

import bisect
import os
import signal
import subprocess
import time

import numpy as np

NOMINAL_BATCH_S = 0.008         # one batch on a quiet 2-core test host
RUN_SLICE_S = 0.25              # child runs this long between two probes
PROBE_BATCHES = 3               # batches per probe, about 25 ms


class Probe:
    def __init__(self, seed: int = 20240917):
        rng = np.random.default_rng(seed)
        self.points = rng.standard_normal(4096)
        self.modes = rng.standard_normal(48)
        self.grid = rng.standard_normal((32, 32, 32))
        for _ in range(20):     # warm caches and allocator before any timing
            self.batch()

    def batch(self) -> float:
        phase = np.outer(self.modes, self.points)
        acc = float(np.cos(phase).sum() + np.sin(phase).sum())
        acc += float(np.fft.ifftn(np.fft.fftn(self.grid)).real.sum())
        k = 0
        for i in range(3000):
            k += (i * i) % 7
        return acc + k

    def interleave(self, proc: subprocess.Popen, deadline: float) -> dict:
        """Probe between slices of `proc` until it exits; kill it at `deadline`
        (monotonic seconds).  Always reaps the process.

        Returns {"batch_s": mean batch time or None, "stops": [(stop_ns,
        cont_ns), ...] on the monotonic clock, "timed_out": bool}.
        """
        stops, times, timed_out = [], [], False
        try:
            while True:
                try:
                    proc.wait(timeout=RUN_SLICE_S)
                    break
                except subprocess.TimeoutExpired:
                    pass
                if time.monotonic() > deadline:
                    timed_out = True
                    break
                stop_ns = time.monotonic_ns()
                os.kill(proc.pid, signal.SIGSTOP)
                pid, status = os.waitpid(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):       # it ended just before the stop
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                for _ in range(PROBE_BATCHES):
                    t0 = time.perf_counter()
                    self.batch()
                    times.append(time.perf_counter() - t0)
                os.kill(proc.pid, signal.SIGCONT)
                stops.append((stop_ns, time.monotonic_ns()))
        finally:
            if proc.returncode is None:
                proc.kill()
                os.kill(proc.pid, signal.SIGCONT)
                proc.wait()
        return {"batch_s": sum(times) / len(times) if times else None,
                "stops": stops, "timed_out": timed_out}


def stop_free_clock(stops):
    """A map of monotonic ns onto a clock that stands still while the child is
    stopped: t minus the stopped time before t.  `stops` is in time order."""
    starts = [a for a, _ in stops]
    before = [0]                    # stopped ns before each stop begins
    for a, b in stops:
        before.append(before[-1] + b - a)

    def clock(t: int) -> int:
        i = bisect.bisect_right(starts, t) - 1
        if i < 0:
            return t
        a, b = stops[i]
        return t - before[i] - (min(t, b) - a)
    return clock


def child_cpu() -> set[int]:
    """The one CPU that the parent and the child share."""
    return {min(os.sched_getaffinity(0))}
