"""Per-job sampling profiler: *where inside* a slow span did time go?

Spans bound the execute stage; they cannot say which frame burned it.
:class:`SamplingProfiler` answers that with nothing but the stdlib: a
daemon thread wakes every ``interval_s``, pulls the target thread's
current frame out of ``sys._current_frames()``, renders the stack
root-first as ``module.function`` frames, and credits the stack with
the wall time elapsed since the previous sample (dt-weighted, so
attributed seconds track profiled duration even when the OS stretches
a sleep). ``stop()`` takes one final tail sample before joining, so
the last partial interval is not dropped.

The result is a :class:`Profile`: a ``stack -> seconds`` mapping that
serialises to the job's events sidecar (``kind="profile"``) and
renders as flamegraph-compatible collapsed-stack text
(``frame;frame;frame weight`` — feed it straight to ``flamegraph.pl``
or speedscope). Stack cardinality is bounded by ``max_stacks``;
overflow collapses into a synthetic ``(overflow)`` row rather than
growing without bound, and ``truncated`` says it happened.

Sampling costs one stack walk of *one* thread per interval — the
profiled thread itself is never interrupted, which is what keeps the
overhead benchmark's 5% budget intact with the profiler on.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

__all__ = ["Profile", "SamplingProfiler", "DEFAULT_INTERVAL_S"]

#: Default sampling period: 10 ms — ~100 samples/s, plenty for stages
#: that run seconds to minutes, invisible next to real work.
DEFAULT_INTERVAL_S = 0.01

#: Frames deeper than this aggregate into a trailing ``(deep)`` frame.
MAX_DEPTH = 128


@lru_cache(maxsize=8192)
def _code_name(code) -> str:
    """``module.function`` for one code object. Cached: building the
    name costs microseconds a frame, and a sample walks every frame
    while holding the GIL the profiled thread is waiting for."""
    return f"{Path(code.co_filename).stem}.{code.co_name}"


def _collapse(frame) -> str:
    """Render a frame chain root-first as ``a.f;b.g;c.h``."""
    names = []
    while frame is not None:
        names.append(_code_name(frame.f_code))
        frame = frame.f_back
    names.reverse()
    if len(names) > MAX_DEPTH:
        names = names[:MAX_DEPTH] + ["(deep)"]
    return ";".join(names)


@dataclass
class Profile:
    """Aggregated collapsed stacks with dt weights, in seconds."""

    stacks: dict = field(default_factory=dict)
    samples: int = 0
    duration_s: float = 0.0
    interval_s: float = DEFAULT_INTERVAL_S
    truncated: bool = False

    @property
    def attributed_s(self) -> float:
        return sum(self.stacks.values())

    def add(self, stack: str, dt: float, max_stacks: int) -> None:
        if stack not in self.stacks and len(self.stacks) >= max_stacks:
            stack = "(overflow)"
            self.truncated = True
        self.stacks[stack] = self.stacks.get(stack, 0.0) + dt
        self.samples += 1

    def to_dict(self) -> dict:
        return {"samples": self.samples,
                "duration_s": round(self.duration_s, 6),
                "attributed_s": round(self.attributed_s, 6),
                "interval_s": self.interval_s,
                "truncated": self.truncated,
                "stacks": {k: round(v, 6)
                           for k, v in sorted(
                               self.stacks.items(),
                               key=lambda kv: -kv[1])}}

    @classmethod
    def from_dict(cls, payload: dict) -> "Profile":
        prof = cls(stacks=dict(payload.get("stacks", {})),
                   samples=int(payload.get("samples", 0)),
                   duration_s=float(payload.get("duration_s", 0.0)),
                   interval_s=float(payload.get(
                       "interval_s", DEFAULT_INTERVAL_S)),
                   truncated=bool(payload.get("truncated", False)))
        return prof

    def render_collapsed(self) -> str:
        """Flamegraph collapsed-stack text: ``frames weight`` per line,
        weight in integer microseconds, heaviest first."""
        lines = []
        for stack, seconds in sorted(self.stacks.items(),
                                     key=lambda kv: -kv[1]):
            lines.append(f"{stack} {max(1, round(seconds * 1e6))}")
        return "\n".join(lines) + ("\n" if lines else "")


class SamplingProfiler:
    """Sample one thread's stack on an interval from a daemon thread."""

    def __init__(self, thread_id: int | None = None,
                 interval_s: float = DEFAULT_INTERVAL_S,
                 max_stacks: int = 2000, clock=time.perf_counter):
        self.thread_id = (thread_id if thread_id is not None
                          else threading.get_ident())
        self.interval_s = float(interval_s)
        self.max_stacks = int(max_stacks)
        self.clock = clock
        self.profile = Profile(interval_s=self.interval_s)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._t0 = None
        self._last = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None or self.interval_s <= 0:
            return self
        self._stop.clear()
        self._t0 = self._last = self.clock()
        self._thread = threading.Thread(target=self._loop,
                                        name="obs-prof", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> Profile:
        """Join the sampler (taking one tail sample) and return the
        finished profile."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=10)
            self._thread = None
            self._sample()          # tail: credit the final partial
            #                         interval to whatever runs now
            self.profile.duration_s = self.clock() - self._t0
        return self.profile

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    # -- sampling ----------------------------------------------------------
    def _sample(self) -> None:
        now = self.clock()
        dt, self._last = now - self._last, now
        frame = sys._current_frames().get(self.thread_id)
        if frame is None or dt <= 0:    # thread gone (or clock jitter)
            return
        try:
            stack = _collapse(frame)
        finally:
            del frame                   # break the frame ref cycle
        self.profile.add(stack, dt, self.max_stacks)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self._sample()
            except Exception:    # noqa: BLE001 — sampling must never
                pass             # take the profiled thread down with it
