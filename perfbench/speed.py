"""Host-speed calibration: times scaled to a reference host speed.

The benchmark runs on a shared VM whose speed swings by up to 1.7x
within a minute (neighbours come and go), so one run's wall time says as
much about the host as about the program. A :class:`Speedometer` runs a
fixed calibration kernel (:func:`calibrate`) in short slices next to the
measured work and scales every interval it times by ``REFERENCE_S /
slice time``: a time in *reference seconds* is what the interval would
have taken on a host that runs the kernel in ``REFERENCE_S``. The kernel
mixes what the program spends its time on (small dense Newton solves in
NumPy, dict and list churn in the interpreter), so it slows with the host
as the program does: on a five-minute probe the SPICE characterization
of two cells, scaled by the slice next to it, spread 0.05 IQR/median over
25-second blocks where its wall time spread 0.44.

``ticking()`` runs a slice every ``TICK_S`` of wall time from a
``SIGALRM`` handler, between the main thread's bytecodes, so a single
long call (the cold STCO run) is calibrated all along, and no hook into
the program is needed. Slice time is excluded from :meth:`clock`, so an
interval timed on that clock holds the program's work only. ``mark()``
runs a slice at a chosen point (between set-ups, between serve windows).

The kernel and ``REFERENCE_S`` are fixed: changing either changes every
scaled number, so both belong to the benchmark's definition.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import os
import signal
import time

import numpy as np

__all__ = ["REFERENCE_S", "TICK_S", "calibrate", "Speedometer"]

#: Seconds one calibration slice takes on the reference host: the median
#: slice on a 2-vCPU KVM guest (Python 3.11, NumPy 2 with single-threaded
#: OpenBLAS) in a quiet minute.
REFERENCE_S = 0.04
#: Wall time between slices while ticking.
TICK_S = 0.25
#: Kernel rounds per slice.
ROUNDS = 1800
#: A stretch between two slices is scaled by the median of the slices
#: taken within this many seconds of it (four while ticking): a single
#: slice is noisy, and the host's slow spells can be as short as a
#: second, which a wider median would smooth away from the 5 ms reads.
SMOOTH_S = 0.3

_RNG = np.random.RandomState(20261016)
_MATS = [_RNG.rand(8, 8) + 8.0 * np.eye(8) for _ in range(8)]
_VECS = [_RNG.rand(8) for _ in range(8)]
_NETS = [f"n{i:04d}" for i in range(160)]


def calibrate(rounds: int = ROUNDS) -> float:
    """Fixed work: damped Newton steps on small dense systems and a
    netlist-like dict build and sort per round."""
    x = np.zeros(8)
    acc = 0.0
    for i in range(rounds):
        a, b = _MATS[i & 7], _VECS[i & 7]
        e = np.exp(np.clip(x, -4.0, 4.0)) * 1e-3
        dx = np.linalg.solve(a + np.diag(e), a @ x - b + e)
        x -= 0.5 * dx
        start = (i * 37) % 128
        fan = {net: (j * 7919) % 97 for j, net in
               enumerate(_NETS[start:start + 32])}
        acc += sum(sorted(fan.values())[:8]) + float(dx[0])
    return acc


class Speedometer:
    """Calibration slices and the clock they are excluded from.

    ``enabled=False`` gives plain wall time: :meth:`mark` does nothing,
    :meth:`ticking` installs nothing and :meth:`scaled` is ``b - a``.
    The vCPUs of a shared VM slow down separately, so a slice measures
    the CPU it runs on: a program pinned to one CPU is calibrated on
    that CPU, and ``every_cpu=True`` (for a program spread over all of
    them) makes each mark run its slices on every CPU in turn and count
    their mean.
    """

    def __init__(self, enabled: bool = True, every_cpu: bool = False):
        self.enabled = enabled
        self.cpus = sorted(os.sched_getaffinity(0)) if every_cpu else None
        self.excluded = 0.0
        self.times: list = []       # clock time of each slice
        self.slices: list = []      # its duration, wall seconds
        self._factors: dict = {}

    def clock(self) -> float:
        """Wall time minus the time spent in slices."""
        return time.perf_counter() - self.excluded

    def mark(self, repeats: int = 1) -> None:
        """Run ``repeats`` slices now (on each CPU with ``every_cpu``);
        their median (the mean of the CPUs' medians) counts as one."""
        if not self.enabled:
            return
        collecting = gc.isenabled()
        gc.disable()                # the program's garbage stays its own
        start = time.perf_counter()
        at = start - self.excluded
        medians = []
        for cpu in self.cpus or (None,):
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            durations = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                calibrate(ROUNDS)
                durations.append(time.perf_counter() - t0)
            medians.append(sorted(durations)[repeats // 2])
        if self.cpus:
            os.sched_setaffinity(0, self.cpus)
        if collecting:
            gc.enable()
        self.excluded += time.perf_counter() - start
        self.times.append(at)
        self.slices.append(sum(medians) / len(medians))
        self._factors.clear()

    @contextlib.contextmanager
    def ticking(self):
        """Run a slice on entry, every TICK_S of wall time (main thread
        only) and on exit."""
        if not self.enabled:
            yield self
            return
        self.mark()
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self.mark())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.mark()

    def _factor(self, k: int) -> float:
        """Scale on the k-th stretch, from slice k-1 to slice k (before
        the first or after the last: from that slice on): the reference
        over the median of the slices within SMOOTH_S of the stretch."""
        if k not in self._factors:
            t = self.times
            lo = bisect.bisect_left(t, t[max(k - 1, 0)] - SMOOTH_S)
            hi = bisect.bisect_right(t, t[min(k, len(t) - 1)] + SMOOTH_S)
            near = sorted(self.slices[lo:hi])
            mid = (near[(len(near) - 1) // 2] + near[len(near) // 2]) / 2
            self._factors[k] = REFERENCE_S / mid
        return self._factors[k]

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds in the clock interval ``[a, b]``. Call it
        once the slices around the interval have run: a slice taken
        later may still change it."""
        if not self.enabled:
            return b - a
        if not self.slices:
            raise RuntimeError("no calibration slice to scale by")
        t = self.times
        k = bisect.bisect_right(t, a)
        total = 0.0
        while True:
            end = t[k] if k < len(t) and t[k] < b else b
            total += (end - a) * self._factor(k)
            if end >= b:
                return total
            a = end
            k += 1

    def speed(self) -> dict:
        """Slice statistics for the context line."""
        s = sorted(self.slices)
        if not s:
            return {"slices": 0}
        return {"slices": len(s), "median_s": s[len(s) // 2],
                "min_s": s[0], "max_s": s[-1],
                "reference_s": REFERENCE_S}
