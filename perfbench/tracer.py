"""In-memory span tracer that wraps a program's entry points from outside.

The benchmark measures end-to-end numbers with nothing installed; the
traced run installs wrappers on named functions and methods of the
program (:meth:`Tracer.wrap`), keeps every span in memory, and derives
per-layer numbers once the workload is done:

* a layer's *inclusive* time is the union of its spans' intervals, so a
  method that calls itself (or its base class) through another wrapped
  name is not counted twice;
* a span's *self* time is its duration minus the part of that interval
  its child spans cover;
* coverage is the share of a wall-clock window that top-level spans
  cover;
* a wrapped name that was never called is *uncovered*: it has no time
  entry at all, because "never ran" and "ran in no time" are different
  findings.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "union_length"]


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)``
    intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Spans and counters recorded by wrappers around program entry
    points. Spans nest per thread: a span opened while another is open on
    the same thread becomes its child."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []            # [name, start, end, parent]
        self.counts: dict = defaultdict(float)
        self.calls: dict = {}            # wrapped name -> invocations
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []   # (owner, attr, original, own)

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, self.clock(), None, parent])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    # -- wrapping ------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_result=None,
             timed: bool = True) -> None:
        """Replace ``owner.attr`` (a module function or a plain method of
        a class) by a wrapper that counts calls under ``name``, records a
        span when ``timed``, and passes ``(args, kwargs, result)`` to
        ``on_result``. :meth:`uninstall` puts the original back."""
        original = getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not callable")
        self.calls.setdefault(name, 0)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.calls[name] += 1
            index = self.open(name) if timed else None
            try:
                result = original(*args, **kwargs)
            finally:
                if index is not None:
                    self.close(index)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:                        # inherited: uncover the base's
                delattr(owner, attr)

    # -- analysis ------------------------------------------------------------
    def uncovered(self) -> list:
        """Wrapped names that were never called."""
        return sorted(name for name, n in self.calls.items() if n == 0)

    def _finished(self) -> list:
        return [(i, s) for i, s in enumerate(self.spans)
                if s[2] is not None]

    def self_times(self) -> list:
        """Per span, its duration minus the time its children cover."""
        children = defaultdict(list)
        for _, (_, start, end, parent) in self._finished():
            if parent is not None:
                children[parent].append((start, end))
        out = [0.0] * len(self.spans)
        for i, (_, start, end, _) in self._finished():
            out[i] = (end - start) - union_length(
                (max(a, start), min(b, end)) for a, b in children[i]
                if min(b, end) > max(a, start))
        return out

    def layers(self) -> dict:
        """``name -> {"calls", "s", "self_s"}`` for every wrapped name
        that ran; uncovered names are absent (see :meth:`uncovered`)."""
        own = self.self_times()
        by_name = defaultdict(list)
        for i, span in self._finished():
            by_name[span[0]].append(i)
        out = {}
        for name, calls in self.calls.items():
            if calls == 0:
                continue
            indices = by_name.get(name, [])
            out[name] = {
                "calls": calls,
                "s": union_length((self.spans[i][1], self.spans[i][2])
                                  for i in indices),
                "self_s": sum(own[i] for i in indices)}
        return out

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level spans."""
        if end <= start:
            raise ValueError("empty coverage window")
        roots = [(max(s[1], start), min(s[2], end))
                 for _, s in self._finished() if s[3] is None]
        return union_length((a, b) for a, b in roots if b > a) \
            / (end - start)

    def dump(self) -> list:
        """Finished spans as JSON-able rows."""
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                for s in self.spans if s[2] is not None]
