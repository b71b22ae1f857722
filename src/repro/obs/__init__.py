"""repro.obs: unified metrics + tracing across the whole pipeline.

Two dependency-free primitives, threaded through every layer:

* :mod:`~repro.obs.metrics` — a process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  histograms (thread-safe, labeled, snapshot/delta semantics) with
  Prometheus-text and JSON exposition. The engine's cache hits,
  its characterizations, the serve queue depth and the coalescer's
  leader/follower/duplicate counts all land here, and the serve layer
  exports it live at ``GET /v1/metrics``.
* :mod:`~repro.obs.trace` — lightweight span trees
  (``with span("engine.characterize", corners=3): …``) with wall and
  CPU time, built per request as the serve worker → search driver →
  engine call tree executes. Serve jobs persist their tree to the
  events sidecar; ``repro trace JOB_ID`` renders it.

Three closed-loop layers build on them:

* :mod:`~repro.obs.series` — a
  :class:`~repro.obs.series.SeriesRecorder` sampling the registry on
  an interval into a bounded ring + workspace JSONL, with windowed
  queries (deltas, rates, histogram quantiles over time).
* :mod:`~repro.obs.slo` — declarative
  :class:`~repro.obs.slo.SloRule` objectives over those windows with
  ok/warning/breach states and burn rates, rolled up to the
  healthy/degraded/unhealthy value ``/healthz`` reports.
* :mod:`~repro.obs.prof` — a stdlib
  :class:`~repro.obs.prof.SamplingProfiler` attached per serve job,
  persisting collapsed stacks (``kind="profile"`` event) rendered by
  ``repro profile JOB_ID``.

:func:`disabled` turns the primitives off (no-op instruments, no-op
spans) — the configuration the overhead benchmark compares against.
"""

from contextlib import contextmanager

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      NullRegistry, get_registry, use_registry)
from .prof import Profile, SamplingProfiler
from .series import SeriesRecorder
from .slo import (SloEngine, SloRule, cluster_rules, default_rules,
                  shard_series)
from .trace import (TraceContext, Span, current_context, current_span,
                    current_traceparent, format_traceparent,
                    mint_context, parse_traceparent, render_tree, span,
                    trace_context)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "get_registry", "use_registry",
    "Span", "span", "current_span", "render_tree",
    "TraceContext", "mint_context", "parse_traceparent",
    "format_traceparent", "trace_context", "current_context",
    "current_traceparent",
    "SeriesRecorder", "SloEngine", "SloRule", "default_rules",
    "cluster_rules", "shard_series",
    "Profile", "SamplingProfiler",
    "disabled",
]


@contextmanager
def disabled():
    """No-op every instrument and span within the block (components
    must be constructed inside it to bind the null instruments)."""
    from . import trace as _trace
    was = _trace.enabled()
    _trace.set_enabled(False)
    try:
        with use_registry(NullRegistry()) as registry:
            yield registry
    finally:
        _trace.set_enabled(was)
