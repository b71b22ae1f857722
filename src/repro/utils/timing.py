"""Wall-clock timing helpers used by the engine and the TCAD simulator.

Since the :mod:`repro.obs` subsystem landed, these are thin compat
wrappers over the one process-wide timing substrate: every
:meth:`TimingRecord.add` also observes the
``repro_stage_seconds{stage=…}`` histogram in the metrics registry, and
:func:`timed` opens a real trace span (so a timed block nests into any
surrounding request trace). The per-instance ``totals`` / ``counts``
dicts are unchanged — callers see the exact numbers they always did —
but the same seconds are now visible on ``GET /v1/metrics`` too.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["timed", "TimingRecord"]


def _observe_stage(name: str, seconds: float) -> None:
    """Mirror one stage measurement into the process metrics registry.

    Looked up lazily (never held as a field) so TimingRecord instances
    stay picklable and honor a registry swapped in by tests.
    """
    from ..obs.metrics import get_registry
    get_registry().histogram(
        "repro_stage_seconds",
        "Wall-clock seconds per named pipeline stage",
        labels=("stage",)).labels(stage=name).observe(seconds)


@dataclass
class TimingRecord:
    """Accumulated wall-clock per named stage (view over the substrate)."""

    totals: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1
        _observe_stage(name, seconds)

    def total(self, name: str | None = None) -> float:
        if name is None:
            return sum(self.totals.values())
        return self.totals.get(name, 0.0)

    def mean(self, name: str) -> float:
        count = self.counts.get(name, 0)
        return self.totals.get(name, 0.0) / count if count else 0.0

    def merge(self, other: "TimingRecord") -> None:
        # A merge moves numbers between views of work already observed
        # once at add() time; re-observing would double-count in the
        # registry, so only the local dicts move.
        for name, seconds in other.totals.items():
            self.totals[name] = self.totals.get(name, 0.0) + seconds
            self.counts[name] = (self.counts.get(name, 0)
                                 + other.counts.get(name, 0))


@contextmanager
def timed(record: TimingRecord, name: str):
    """Context manager adding the block's wall-clock to ``record[name]``.

    Also opens a trace span of the same name, so a ``timed`` block
    inside a traced request shows up in its span tree.
    """
    from ..obs.trace import span
    start = time.perf_counter()
    try:
        with span(name):
            yield
    finally:
        record.add(name, time.perf_counter() - start)
