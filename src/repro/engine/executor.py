"""Pluggable execution backends for batch corner evaluation.

A backend maps a picklable task function over a list of payloads and
returns results in **input order**, whatever the completion order — the
property the engine relies on for reproducible campaign trajectories.

* :class:`SerialBackend` — in-process loop, zero overhead, the default.
* :class:`ProcessPoolBackend` — ``multiprocessing`` pool; wins for the
  CPU-bound SPICE/flow work on multi-core machines (workers get their
  own copy of the builder, so no shared mutable state).

Backends are addressable by spec string (``"serial"``, ``"process"``,
``"process:4"``) so campaign configs stay JSON-able;
:func:`parse_backend` is the one validity rule for those strings.
"""

from __future__ import annotations

import multiprocessing
import os

__all__ = ["SerialBackend", "ProcessPoolBackend", "get_backend",
           "parse_backend", "available_workers"]


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

    def map(self, fn, payloads) -> list:
        return [fn(p) for p in payloads]

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
    """

    name = "process"

    def __init__(self, workers: int | None = None):
        self.workers = workers if workers else available_workers()
        self._pool = None

    def _ensure(self):
        if self._pool is None:
            self._pool = multiprocessing.get_context("fork" if hasattr(
                os, "fork") else "spawn").Pool(self.workers)
        return self._pool

    def map(self, fn, payloads) -> list:
        payloads = list(payloads)
        if len(payloads) <= 1 or self.workers <= 1:
            return [fn(p) for p in payloads]
        chunk = max(1, len(payloads) // (self.workers * 4))
        return self._ensure().map(fn, payloads, chunksize=chunk)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

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
