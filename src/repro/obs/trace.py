"""Lightweight span tracing: where did this request's time actually go?

A :class:`Span` is one named, measured stage of work (wall clock via
``perf_counter``, CPU via ``thread_time``) with free-form attributes
and child spans. The module-level :func:`span` context manager
maintains a per-thread stack, so nested ``with`` blocks build a tree
without any plumbing::

    with span("serve.execute", job_id=jid) as root:
        ...
        with span("engine.evaluate_many", corners=3):
            ...
    root.to_dict()      # the whole tree, JSON-able

The tree shape mirrors the call tree: the serve worker opens the root,
the search driver adds per-round spans, the engine adds
characterize/flow/executor spans underneath — all on the same thread,
which is exactly how the serve layer executes jobs (engine executions
serialize on one lock).

Span durations also feed the process metrics registry
(``repro_span_seconds{span=...}`` histograms), so every traced stage
gets a latency distribution for free; :func:`set_enabled` (or
:func:`repro.obs.disabled`) turns the whole mechanism into a no-op.

Synthetic spans (:meth:`Span.synthetic`) cover stages that were
measured externally rather than executed under a tracer — e.g. a serve
job's queue wait, reconstructed from its ledger.

Traces cross process boundaries via a W3C-traceparent-shaped
:class:`TraceContext` (``00-{trace_id}-{span_id}-01``): the caller
mints one (:func:`mint_context`), sends it as the ``traceparent``
header, and the receiver's root span :meth:`Span.adopt`\\ s it — same
trace id, the caller's span id as parent, a fresh id of its own. The
per-thread :func:`trace_context` holder lets outgoing hops made deep
inside a request (escalations, peer borrows) pick the context up
without plumbing it through every call signature.
"""

from __future__ import annotations

import os
import re
import threading
import time
from contextlib import contextmanager

from .metrics import get_registry

__all__ = ["Span", "span", "current_span", "set_enabled", "enabled",
           "render_tree", "TraceContext", "mint_context",
           "parse_traceparent", "format_traceparent", "trace_context",
           "current_context", "current_traceparent",
           "TRACEPARENT_HEADER"]

#: Children beyond this are dropped (counted in ``dropped``) so a
#: pathological loop cannot grow an unbounded tree.
MAX_CHILDREN = 256

_local = threading.local()
_enabled = True

# Span-exit fast path: resolving histogram children through the family
# costs label-key validation per call, which adds up on micro-spans.
# Memoize per (registry, span name); invalidated whenever use_registry
# swaps the default registry out from under us.
_hist_registry = None
_hist_children: dict = {}


def _span_histogram(name: str):
    global _hist_registry, _hist_children
    registry = get_registry()
    if registry is not _hist_registry:
        _hist_registry = registry
        _hist_children = {}
    child = _hist_children.get(name)
    if child is None:
        child = _hist_children[name] = registry.histogram(
            "repro_span_seconds",
            "Wall-clock seconds per traced stage",
            labels=("span",)).labels(span=name)
    return child


def set_enabled(flag: bool) -> None:
    """Globally enable/disable tracing (spans become no-ops)."""
    global _enabled
    _enabled = bool(flag)


def enabled() -> bool:
    return _enabled


#: HTTP header that carries the propagation context between processes.
TRACEPARENT_HEADER = "traceparent"

_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$")


def new_trace_id() -> str:
    return os.urandom(16).hex()


def new_span_id() -> str:
    return os.urandom(8).hex()


class TraceContext:
    """One hop's worth of trace identity: which trace, which parent."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def traceparent(self) -> str:
        return format_traceparent(self)

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: dict) -> "TraceContext | None":
        trace_id = str(data.get("trace_id", ""))
        span_id = str(data.get("span_id", ""))
        if not trace_id:
            return None
        return cls(trace_id, span_id or new_span_id())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TraceContext({self.trace_id!r}, {self.span_id!r})"


def mint_context() -> TraceContext:
    """A fresh trace root: new trace id, new span id."""
    return TraceContext(new_trace_id(), new_span_id())


def format_traceparent(ctx: TraceContext) -> str:
    return f"00-{ctx.trace_id}-{ctx.span_id}-01"


def parse_traceparent(header: str) -> TraceContext | None:
    """Parse a ``traceparent`` header; ``None`` on anything malformed."""
    if not header:
        return None
    m = _TRACEPARENT_RE.match(header.strip().lower())
    if not m:
        return None
    return TraceContext(m.group(1), m.group(2))


def current_context() -> TraceContext | None:
    """This thread's active propagation context (``None`` outside one)."""
    return getattr(_local, "ctx", None)


def current_traceparent() -> str:
    """Rendered header for the active context ("" when there is none)."""
    ctx = current_context()
    return format_traceparent(ctx) if ctx is not None else ""


@contextmanager
def trace_context(ctx: TraceContext | None):
    """Install ``ctx`` as this thread's context for the ``with`` body.

    Outgoing :class:`repro.serve.client.ServeClient` requests made
    inside the body carry it as ``traceparent`` automatically.
    """
    prev = getattr(_local, "ctx", None)
    _local.ctx = ctx
    try:
        yield ctx
    finally:
        _local.ctx = prev


class Span:
    """One measured stage; a node in a per-request trace tree."""

    __slots__ = ("name", "attrs", "children", "start_s", "wall_s",
                 "cpu_s", "dropped", "error", "trace_id", "span_id",
                 "parent_span_id", "_t0", "_c0")

    def __init__(self, name: str, attrs: dict | None = None):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.children: list = []
        self.start_s = time.time()
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.dropped = 0
        self.error = ""
        self.trace_id = ""
        self.span_id = ""
        self.parent_span_id = ""
        self._t0 = time.perf_counter()
        self._c0 = time.thread_time()

    def finish(self) -> "Span":
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.thread_time() - self._c0
        return self

    def adopt(self, ctx: TraceContext) -> TraceContext:
        """Join a propagated trace: ``ctx``'s trace id, its span id as
        parent, a freshly minted id of our own. Returns the context to
        hand to *our* downstream hops."""
        self.trace_id = ctx.trace_id
        self.parent_span_id = ctx.span_id
        self.span_id = new_span_id()
        return TraceContext(self.trace_id, self.span_id)

    def add_child(self, child: "Span") -> None:
        if len(self.children) >= MAX_CHILDREN:
            self.dropped += 1
            return
        self.children.append(child)

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    @classmethod
    def synthetic(cls, name: str, wall_s: float,
                  start_s: float | None = None, **attrs) -> "Span":
        """A finished span for an externally measured stage."""
        out = cls(name, attrs)
        out.wall_s = float(wall_s)
        out.cpu_s = 0.0
        if start_s is not None:
            out.start_s = float(start_s)
        return out

    def to_dict(self) -> dict:
        out = {"name": self.name, "start_s": self.start_s,
               "wall_s": self.wall_s, "cpu_s": self.cpu_s}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        if self.dropped:
            out["dropped"] = self.dropped
        if self.error:
            out["error"] = self.error
        if self.trace_id:
            out["trace_id"] = self.trace_id
        if self.span_id:
            out["span_id"] = self.span_id
        if self.parent_span_id:
            out["parent_span_id"] = self.parent_span_id
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        out = cls.synthetic(data.get("name", "?"),
                            data.get("wall_s", 0.0),
                            start_s=data.get("start_s"),
                            **data.get("attrs", {}))
        out.cpu_s = data.get("cpu_s", 0.0)
        out.dropped = data.get("dropped", 0)
        out.error = data.get("error", "")
        out.trace_id = data.get("trace_id", "")
        out.span_id = data.get("span_id", "")
        out.parent_span_id = data.get("parent_span_id", "")
        out.children = [cls.from_dict(c)
                        for c in data.get("children", [])]
        return out


class _NullSpan:
    """Stands in when tracing is disabled: absorbs annotations."""

    __slots__ = ()
    name = ""
    attrs: dict = {}
    children: list = []
    wall_s = 0.0
    cpu_s = 0.0
    trace_id = ""
    span_id = ""
    parent_span_id = ""

    def annotate(self, **attrs) -> None:
        pass

    def add_child(self, child) -> None:
        pass

    def adopt(self, ctx) -> "TraceContext":
        # Keep propagating the caller's context even when local
        # tracing is off — downstream processes may have it on.
        return ctx

    def to_dict(self) -> dict:
        return {}


_NULL_SPAN = _NullSpan()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def current_span():
    """The innermost open span on this thread (``None`` outside any)."""
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def span(name: str, **attrs):
    """Open a child span of this thread's current span.

    Yields the :class:`Span`; on exit it is finished, attached to its
    parent (roots stay with the caller), and its wall time is observed
    into the ``repro_span_seconds{span=name}`` histogram. An exception
    marks the span's ``error`` and propagates.
    """
    if not _enabled:
        yield _NULL_SPAN
        return
    node = Span(name, attrs)
    stack = _stack()
    stack.append(node)
    try:
        yield node
    except BaseException as exc:
        node.error = type(exc).__name__
        raise
    finally:
        stack.pop()
        node.finish()
        if stack:
            stack[-1].add_child(node)
        _span_histogram(name).observe(node.wall_s)


def render_tree(trace: dict, indent: int = 0) -> list:
    """Pretty lines for one ``Span.to_dict()`` tree (CLI renderer)."""
    if not trace:
        return []
    wall = trace.get("wall_s", 0.0)
    cpu = trace.get("cpu_s", 0.0)
    attrs = trace.get("attrs", {})
    suffix = ""
    if attrs:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        suffix = f"  [{inner}]"
    if trace.get("error"):
        suffix += f"  !{trace['error']}"
    if trace.get("trace_id"):
        suffix += f"  trace={trace['trace_id'][:8]}"
    lines = [f"{'  ' * indent}{trace.get('name', '?')}  "
             f"{wall * 1000:.2f} ms wall / {cpu * 1000:.2f} ms cpu"
             f"{suffix}"]
    for child in trace.get("children", []):
        lines.extend(render_tree(child, indent + 1))
    if trace.get("dropped"):
        lines.append(f"{'  ' * (indent + 1)}"
                     f"… {trace['dropped']} child span(s) dropped")
    return lines
