"""Pluggable execution backends for batch corner evaluation.

A backend maps a picklable task function over a list of payloads and
returns results in **input order**, whatever the completion order — the
property the engine relies on for reproducible campaign trajectories.

A map may carry one ``context`` object that every task reads (the
engine's library builder); each task is then called as
``fn(context, payload)``. The context is not part of any payload:

* :class:`SerialBackend` — in-process loop, zero overhead, the default;
  the context is passed by reference.
* :class:`ProcessPoolBackend` — ``multiprocessing`` pool; wins for the
  CPU-bound SPICE/flow work on multi-core machines. The context reaches
  each worker once per pool, as the pool initializer's argument: a
  ``fork`` worker inherits it without pickling, a ``spawn`` worker
  unpickles it once. A map with a different context key restarts the
  pool, so each worker holds its own copy of exactly one context and
  there is no shared mutable state.

Backends are addressable by spec string (``"serial"``, ``"process"``,
``"process:4"``) so campaign configs stay JSON-able;
:func:`parse_backend` is the one validity rule for those strings.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from functools import partial

__all__ = ["SerialBackend", "ProcessPoolBackend", "get_backend",
           "parse_backend", "available_workers"]


#: Start method for pool workers (``fork`` wherever the OS has it).
_START_METHOD = "fork" if hasattr(os, "fork") else "spawn"

#: The running pool's context inside a worker process (see
#: :func:`_install_context`); never set in the parent.
_WORKER_CONTEXT = None


def _install_context(context) -> None:
    """Pool initializer: keep the pool's context for this worker's tasks."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _call_with_context(fn, payload):
    """Worker-side trampoline: ``fn(<this worker's context>, payload)``."""
    return fn(_WORKER_CONTEXT, payload)


def available_workers() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # non-Linux
        return multiprocessing.cpu_count()


class SerialBackend:
    """Evaluate tasks one by one in the calling process."""

    name = "serial"
    workers = 1

    def map(self, fn, payloads, context=None, context_key=None) -> list:
        if context is None:
            return [fn(p) for p in payloads]
        return [fn(context, p) for p in payloads]

    def shutdown(self) -> None:
        pass

    def __repr__(self):
        return "SerialBackend()"


class ProcessPoolBackend:
    """``multiprocessing.Pool`` over picklable payloads.

    ``Pool.map`` already returns results in input order regardless of
    which worker finished first, giving deterministic result ordering.
    The pool is created lazily (first ``map``) and kept warm across
    calls so repeated sweeps don't pay fork+import each time.

    The pool is started with one context (see the module docstring) and
    serves every map whose ``context_key`` matches it; the key defaults
    to the context's identity. A map with another key closes the pool
    and starts a new one, so one instance can be shared by engines with
    different builders. Maps are serialized by a lock: a restart never
    pulls the pool out from under another thread's map.
    """

    name = "process"

    def __init__(self, workers: int | None = None):
        self.workers = workers if workers else available_workers()
        self._pool = None
        self._context = None        # the running pool's context ...
        self._context_key = None    # ... and the key it was started for
        self._lock = threading.Lock()

    def _ensure(self, context, context_key):
        if self._pool is not None and context_key != self._context_key:
            self._close()
        if self._pool is None:
            self._pool = multiprocessing.get_context(_START_METHOD).Pool(
                self.workers, initializer=_install_context,
                initargs=(context,))
            self._context, self._context_key = context, context_key
        return self._pool

    def map(self, fn, payloads, context=None, context_key=None) -> list:
        payloads = list(payloads)
        if context is not None:
            # The context stays referenced while its pool runs, so an
            # identity key cannot be reused by another object meanwhile.
            if context_key is None:
                context_key = ("id", id(context))
            inline, fn = partial(fn, context), partial(_call_with_context, fn)
        else:
            inline = fn
        if len(payloads) <= 1 or self.workers <= 1:
            return [inline(p) for p in payloads]
        chunk = max(1, len(payloads) // (self.workers * 4))
        with self._lock:
            return self._ensure(context, context_key).map(
                fn, payloads, chunksize=chunk)

    def _close(self) -> None:
        self._pool.close()
        self._pool.join()
        self._pool = self._context = self._context_key = None

    def shutdown(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._close()

    def __del__(self):
        try:
            self.shutdown()
        except Exception:
            pass

    def __repr__(self):
        return f"ProcessPoolBackend(workers={self.workers})"


_BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
}


def parse_backend(spec: str) -> tuple[str, int | None]:
    """Split a backend spec into ``(name, workers)``.

    ``workers`` is ``None`` when the spec names no count (``"process"``
    means every available CPU). Raises :class:`ValueError` for an
    unknown name, a count on ``serial``, or a count that is not a
    positive integer.
    """
    if not isinstance(spec, str):
        raise ValueError(f"backend spec must be a string, got {spec!r}")
    name, sep, count = spec.partition(":")
    if name == "thread":
        raise ValueError("the 'thread' backend was removed: it never beat "
                         "'serial' on a measured sweep; use 'serial' or "
                         "'process:N'")
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; "
                         f"expected one of {sorted(_BACKENDS)}")
    if not sep:
        return name, None
    if name == "serial":
        raise ValueError(f"backend spec {spec!r}: 'serial' takes no "
                         f"worker count")
    try:
        workers = int(count)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"invalid worker count in backend spec {spec!r}; "
                         f"expected a positive integer, e.g. '{name}:4'")
    return name, workers


def get_backend(spec):
    """Resolve a backend instance from a spec string or pass one through.

    Specs: ``"serial"``, ``"process"``, ``"process:N"`` (see
    :func:`parse_backend`).
    """
    if not isinstance(spec, str):
        return spec
    name, workers = parse_backend(spec)
    cls = _BACKENDS[name]
    return cls() if workers is None else cls(workers)
