"""Process-wide metrics: counters, gauges and histograms, one registry.

Every layer of the pipeline already counts things — the engine counts
characterizations, the caches count hits, the coalescer counts leaders —
but each subsystem kept its own ad-hoc dict and none of it was visible
outside the owning object. A :class:`MetricsRegistry` is the one place
those numbers live:

* **instruments** — :class:`Counter` (monotonic), :class:`Gauge`
  (set/inc/dec), :class:`Histogram` (bucketed distribution with exact
  sum/count). All are thread-safe; a family with ``labels=(...)``
  fans out into per-label-value children (``family.labels(tier="disk")``).
* **snapshot / delta** — a flat ``{series: value}`` view that subtracts
  cleanly, generalizing ``EvaluationEngine.snapshot()`` to the whole
  process: bracket any window of work with :meth:`MetricsRegistry.snapshot`
  / :meth:`MetricsRegistry.delta`.
* **exposition** — Prometheus text (:meth:`render_prometheus`) and a
  JSON document (:meth:`render_json`), both served by the serve layer's
  ``GET /v1/metrics``.
* **collectors** — callbacks run at scrape time for values that are
  sampled rather than incremented (queue depth, body-cache occupancy).

The module keeps one process-wide default registry
(:func:`get_registry`); components fetch their instruments from it at
construction. Tests and the overhead benchmark swap it with
:func:`use_registry` — :class:`NullRegistry` hands out no-op instruments
so the fully-instrumented hot path can be measured against a zero-cost one.

Dependency-free by design: nothing here imports any other repro module.
"""

from __future__ import annotations

import bisect
import json
import threading
import time
from contextlib import contextmanager

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NullRegistry", "get_registry", "use_registry",
           "quantile_from_cumulative", "DEFAULT_BUCKETS"]

#: Default histogram buckets (seconds): spans microsecond GNN forwards
#: to minute-scale campaign sweeps.
DEFAULT_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                   0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                   10.0, 30.0, 60.0)


class Counter:
    """Monotonically increasing value (events since process start)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down (queue depth, occupancy)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Bucketed distribution with exact ``sum`` and ``count``.

    Buckets are cumulative at render time (Prometheus ``le`` semantics)
    but stored per-interval so ``observe`` is one bisect + two adds.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, buckets=DEFAULT_BUCKETS):
        self._lock = lock
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)   # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @contextmanager
    def time(self):
        """Observe the wall-clock of the ``with`` block."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def cumulative(self) -> list:
        """[(upper_bound, cumulative_count)] including ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        out, total = [], 0
        for bound, n in zip(self.buckets + (float("inf"),), counts):
            total += n
            out.append((bound, total))
        return out

    def quantile(self, q: float):
        """Interpolated quantile of everything ever observed.

        ``None`` on an empty histogram; mass in the ``+Inf`` bucket
        clamps to the largest finite bound. See
        :func:`quantile_from_cumulative` for the interpolation rules.
        """
        return quantile_from_cumulative(self.cumulative(), q)


def quantile_from_cumulative(cumulative, q: float):
    """Interpolated quantile from ``[(upper_bound, cumulative_count)]``.

    The shared math behind :meth:`Histogram.quantile` and the series
    layer's quantile-over-window (which feeds it *bucket deltas*
    between two samples). Prometheus ``histogram_quantile`` semantics:
    linear interpolation inside the bucket holding the target rank.
    Returns ``None`` when there is no mass. Mass in the ``+Inf`` bucket
    clamps to the largest finite bound (the distribution's true tail is
    unknowable from the buckets).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not cumulative:
        return None
    total = cumulative[-1][1]
    if total <= 0:
        return None
    finite = [b for b, _ in cumulative
              if b is not None and b != float("inf")]
    largest_finite = finite[-1] if finite else None
    rank = q * total
    prev_bound, prev_cum = None, 0
    for bound, cum in cumulative:
        if cum > 0 and cum >= rank:
            if bound is None or bound == float("inf"):
                return largest_finite
            in_bucket = cum - prev_cum
            if prev_bound is None:
                # First (non-empty) bucket: no lower edge to
                # interpolate from — use 0 for positive bounds (the
                # natural origin for durations), else the bound itself.
                lower = 0.0 if bound > 0 else bound
            else:
                lower = prev_bound
            if in_bucket <= 0:
                return bound
            return lower + (bound - lower) * (rank - prev_cum) / in_bucket
        prev_bound, prev_cum = bound, cum
    return largest_finite


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _label_key(labelnames: tuple, labels: dict) -> tuple:
    if set(labels) != set(labelnames):
        raise ValueError(f"expected labels {labelnames}, "
                         f"got {sorted(labels)}")
    return tuple(str(labels[name]) for name in labelnames)


class Family:
    """One named metric and its per-label-value children.

    With ``labels=()`` the family has a single anonymous child and
    proxies the instrument methods directly (``family.inc()``); with
    label names, call :meth:`labels` to get (and memoize) a child.
    """

    def __init__(self, kind: str, name: str, help: str = "",
                 labelnames: tuple = (), buckets=DEFAULT_BUCKETS):
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._buckets = buckets
        self._lock = threading.Lock()
        self._children: dict = {}
        if not self.labelnames:
            self._children[()] = self._make()

    def _make(self):
        if self.kind == "histogram":
            return Histogram(self._lock, self._buckets)
        return _KINDS[self.kind](self._lock)

    def labels(self, **labels):
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make()
        return child

    def _default(self):
        if self.labelnames:
            raise ValueError(f"metric {self.name!r} has labels "
                             f"{self.labelnames}; use .labels(...)")
        return self._children[()]

    # Unlabeled convenience proxies.
    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def time(self):
        return self._default().time()

    @property
    def value(self):
        return self._default().value

    @property
    def sum(self):
        return self._default().sum

    @property
    def count(self):
        return self._default().count

    def cumulative(self) -> list:
        return self._default().cumulative()

    def quantile(self, q: float):
        return self._default().quantile(q)

    def children(self) -> list:
        """[(label_dict, instrument)] snapshot, insertion order."""
        with self._lock:
            items = list(self._children.items())
        return [(dict(zip(self.labelnames, key)), child)
                for key, child in items]


def _series(name: str, labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return name
    inner = ",".join(f'{k}="{_escape(str(v))}"'
                     for k, v in merged.items())
    return f"{name}{{{inner}}}"


def _escape(value: str) -> str:
    """Label-value escaping per the 0.0.4 text format: backslash
    first (or the other escapes would double up), then double-quote
    and newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """HELP-line escaping: the 0.0.4 format escapes only backslash and
    newline there (quotes are legal verbatim in help text)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Thread-safe, name-addressed home for every instrument."""

    def __init__(self):
        self._lock = threading.RLock()
        self._families: dict[str, Family] = {}
        self._collectors: list = []
        self._collector_errors = 0

    # -- registration ------------------------------------------------------
    def _family(self, kind: str, name: str, help: str,
                labels: tuple, buckets=DEFAULT_BUCKETS) -> Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = Family(kind, name, help, labels, buckets)
                self._families[name] = family
                return family
        if family.kind != kind or family.labelnames != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{family.kind}{family.labelnames}, requested "
                f"{kind}{tuple(labels)}")
        return family

    def counter(self, name: str, help: str = "",
                labels: tuple = ()) -> Family:
        return self._family("counter", name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: tuple = ()) -> Family:
        return self._family("gauge", name, help, labels)

    def histogram(self, name: str, help: str = "", labels: tuple = (),
                  buckets=DEFAULT_BUCKETS) -> Family:
        return self._family("histogram", name, help, labels, buckets)

    # -- scrape-time sampling ----------------------------------------------
    def add_collector(self, fn) -> None:
        """Register ``fn()`` to run before every snapshot/render — for
        gauges sampled from live state rather than incremented."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    def remove_collector(self, fn) -> None:
        with self._lock:
            try:
                self._collectors.remove(fn)
            except ValueError:
                pass

    def collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            try:
                fn()
            except Exception:   # noqa: BLE001 — one broken collector
                # must not take down the metrics endpoint.
                with self._lock:
                    self._collector_errors += 1

    # -- views -------------------------------------------------------------
    def _items(self) -> list:
        with self._lock:
            return list(self._families.values())

    def snapshot(self) -> dict:
        """Flat ``{series: value}`` of every instrument (collectors run
        first). Histograms contribute ``_sum`` / ``_count`` series so
        the whole dict subtracts cleanly via :meth:`delta`."""
        self.collect()
        out = {}
        for family in self._items():
            for labels, child in family.children():
                if family.kind == "histogram":
                    out[_series(family.name + "_sum", labels)] = child.sum
                    out[_series(family.name + "_count", labels)] = \
                        child.count
                else:
                    out[_series(family.name, labels)] = child.value
        return out

    def delta(self, before: dict) -> dict:
        """Series movement since ``before`` (a :meth:`snapshot`)."""
        now = self.snapshot()
        return {key: value - before.get(key, 0)
                for key, value in now.items()}

    def histogram_cumulative(self) -> dict:
        """``{series: [(upper_bound, cumulative_count), …]}`` for every
        histogram child — the bucket-level view :meth:`snapshot` folds
        away, needed by the series layer for quantile-over-window.
        Does *not* run collectors (call after :meth:`snapshot` to get a
        consistent pair)."""
        out = {}
        for family in self._items():
            if family.kind != "histogram":
                continue
            for labels, child in family.children():
                out[_series(family.name, labels)] = child.cumulative()
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4)."""
        self.collect()
        lines = []
        for family in self._items():
            if family.help:
                lines.append(f"# HELP {family.name} "
                             f"{_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, child in family.children():
                if family.kind == "histogram":
                    for bound, count in child.cumulative():
                        lines.append(
                            f"{_series(family.name + '_bucket', labels, {'le': _fmt(bound)})}"
                            f" {count}")
                    lines.append(f"{_series(family.name + '_sum', labels)}"
                                 f" {repr(child.sum)}")
                    lines.append(
                        f"{_series(family.name + '_count', labels)}"
                        f" {child.count}")
                else:
                    lines.append(f"{_series(family.name, labels)} "
                                 f"{_fmt(child.value)}")
        return "\n".join(lines) + "\n"

    def render_json(self) -> dict:
        """Structured JSON exposition (``/v1/metrics?format=json``)."""
        self.collect()
        metrics = {}
        for family in self._items():
            series = []
            for labels, child in family.children():
                if family.kind == "histogram":
                    series.append({
                        "labels": labels, "sum": child.sum,
                        "count": child.count,
                        "buckets": [[_fmt(b), n] for b, n
                                    in child.cumulative()]})
                else:
                    series.append({"labels": labels,
                                   "value": child.value})
            metrics[family.name] = {"type": family.kind,
                                    "help": family.help,
                                    "series": series}
        return {"metrics": metrics,
                "collector_errors": self._collector_errors}

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.render_json(), indent=indent,
                          sort_keys=True)


class _NullInstrument:
    """Absorbs every instrument call; ``labels`` returns itself."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **labels):
        return self

    @contextmanager
    def time(self):
        yield

    @property
    def value(self) -> float:
        return 0.0

    sum = value
    count = value

    def cumulative(self) -> list:
        return []

    def quantile(self, q: float):
        return None

    def children(self) -> list:
        return []


_NULL = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """Hands out no-op instruments — the zero-overhead baseline the
    instrumentation benchmark compares against, and the off switch for
    embedders that want none of this."""

    def _family(self, kind, name, help, labels, buckets=DEFAULT_BUCKETS):
        return _NULL

    def snapshot(self) -> dict:
        return {}

    def render_prometheus(self) -> str:
        return ""

    def render_json(self) -> dict:
        return {"metrics": {}, "collector_errors": 0}


_default_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry components instrument themselves on."""
    return _default_registry


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Swap the process default within a ``with`` block.

    Components bind instruments at construction, so anything that
    should land in ``registry`` must be *constructed* inside the block.
    Intended for tests and the overhead benchmark; not safe against
    concurrent swaps (the restore is last-writer-wins).
    """
    global _default_registry
    with _registry_lock:
        previous, _default_registry = _default_registry, registry
    try:
        yield registry
    finally:
        with _registry_lock:
            _default_registry = previous
