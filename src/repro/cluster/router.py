"""The router: N shards behind one shard-shaped API.

A :class:`Router` owns the cluster membership (names, URLs, weights),
the consistent-hash ring built from it, and one retrying
:class:`~repro.serve.client.ServeClient` per shard. Its methods mirror
a single :class:`~repro.serve.pool.ServeService` so the one HTTP front
end (:mod:`~repro.serve.http`, as :class:`RouterServer`) exposes the
*same* surface a shard does — clients cannot tell a cluster from a
shard. The mapping:

* **submissions** route by :func:`~repro.cluster.ring.route_key` to
  the owning shard, so per-shard coalescing/dedup is globally correct;
* **job reads** go to the shard that owns the job (a location cache,
  refilled by fan-out probe when cold — e.g. after a router restart);
* **health / SLO** aggregate worst-of-shards (an unreachable shard is
  unhealthy: silent partial clusters must not look green);
* **metrics** merge every shard's JSON exposition under an added
  ``shard`` label, re-rendered to Prometheus text on demand;
* **predictions** are stateless, so any shard with a servable model
  answers; shards are tried in ring-preference order from the design
  name (a stable first choice keeps that shard's prediction LRU hot),
  skipping shards that answer 409 (no model yet);
* **membership changes** (:meth:`add_shard`) rebuild the ring and push
  the new document to every shard's ``POST /v1/cluster/peers``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..obs.metrics import _escape_help, _fmt, _series, get_registry
from ..obs.series import SeriesRecorder
from ..obs.slo import SloEngine, cluster_rules
from ..obs.trace import (Span, TraceContext, current_context,
                         new_span_id, new_trace_id, span,
                         trace_context)
from ..serve.client import ServeClient, ServeClientError
from ..serve.http import ROUTER, ApiError, StcoServer
from ..serve.jobs import UnknownJobError
from .ring import HashRing, route_key

__all__ = ["ShardUnavailable", "Router", "RouterServer"]

#: Router-side submit spans kept for stitching (newest win).
TRACES_MAX = 1024

_HEALTH_RANK = {"healthy": 0, "degraded": 1, "unhealthy": 2,
                "unreachable": 2}


class ShardUnavailable(RuntimeError):
    """A shard the request needs could not be reached."""

    def __init__(self, shard: str, cause: str):
        super().__init__(f"shard {shard!r} unavailable: {cause}")
        self.shard = shard
        self.cause = cause

    def http_reply(self) -> tuple:
        return (503, {"error": str(self), "shard": self.shard},
                {"Retry-After": "2"})


def _worst(a: str, b: str) -> str:
    return a if _HEALTH_RANK.get(a, 2) >= _HEALTH_RANK.get(b, 2) else b


class Router:
    """Route-by-key writes, fan-out reads, worst-of-shards health.

    ``shards`` maps name → URL string or ``{"url": ..., "weight": ...}``.
    ``client_factory(url) -> client`` lets tests substitute stubs.
    """

    def __init__(self, shards: dict, timeout_s: float = 30.0,
                 vnodes: int = 64, client_factory=None,
                 series_interval_s: float = 0.0,
                 recorder_dir=None, slo_rules=None):
        if not shards:
            raise ValueError("a router needs at least one shard")
        self._factory = client_factory if client_factory is not None \
            else (lambda url: ServeClient(url, timeout_s=timeout_s))
        self._members: dict[str, dict] = {}
        self._clients: dict[str, object] = {}
        for name, spec in shards.items():
            self._adopt(name, spec)
        self.ring = HashRing({n: m["weight"]
                              for n, m in self._members.items()},
                             vnodes=vnodes)
        self._locations: dict[str, str] = {}   # job id -> shard name
        self._traces: OrderedDict = OrderedDict()  # job id -> hop span
        self._lock = threading.Lock()
        self._m_requests = get_registry().counter(
            "repro_router_requests_total",
            "Router operations by kind and target shard",
            labels=("op", "shard"))
        self._m_predicts = get_registry().counter(
            "repro_router_predict_total",
            "Cluster predict requests by outcome",
            labels=("outcome",))
        # The router's own history: the merged shard-labeled snapshot
        # sampled on an interval, so windowed rates/quantiles and SLO
        # burn exist at the cluster level and survive shard restarts
        # (each sample is a new scrape; persisted history spans
        # *router* restarts too). ``series_interval_s=0`` (default)
        # keeps background sampling off — embedders and the HTTP front
        # end opt in.
        self.recorder = SeriesRecorder(
            interval_s=series_interval_s, persist_dir=recorder_dir,
            source=self._federated_sample)
        self.recorder.start()
        self.slo_engine = SloEngine(
            self.recorder,
            rules=slo_rules if slo_rules is not None
            else cluster_rules(self._members))

    def close(self) -> None:
        """Stop the background series sampler and close the shard
        clients' kept-alive connections (idempotent)."""
        self.recorder.stop()
        for client in self._clients.values():
            close = getattr(client, "close", None)   # stubs may lack it
            if close is not None:
                close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- membership --------------------------------------------------------
    def _adopt(self, name: str, spec) -> None:
        if isinstance(spec, str):
            spec = {"url": spec}
        url = str(spec.get("url", "")).rstrip("/")
        if not url:
            raise ValueError(f"shard {name!r} needs a url")
        weight = float(spec.get("weight", 1.0))
        self._members[name] = {"url": url, "weight": weight}
        self._clients[name] = self._factory(url)

    @property
    def shards(self) -> dict:
        return {name: dict(m) for name, m in self._members.items()}

    def membership(self) -> dict:
        """The document every shard adopts for peer borrowing."""
        return {"shards": self.shards}

    def client(self, name: str):
        return self._clients[name]

    def add_shard(self, name: str, url: str,
                  weight: float = 1.0) -> dict:
        """Join a shard: extend the ring (~1/N keys remap to it) and
        push the new membership to everyone."""
        self._adopt(name, {"url": url, "weight": weight})
        self.ring.add(name, weight)
        return {"shard": name, "ring": self.ring.stats(),
                "peers": self.push_membership()}

    def push_membership(self) -> dict:
        """``POST /v1/cluster/peers`` to every shard; per-shard result
        (an unreachable shard records its error — it will adopt the
        document when it rejoins)."""
        doc = self.membership()
        out = {}
        for name, client in self._clients.items():
            try:
                out[name] = client._request("POST", "/v1/cluster/peers",
                                            doc)
            except (ServeClientError, OSError) as exc:
                out[name] = {"error": str(exc)}
        return out

    # -- routing -----------------------------------------------------------
    def route(self, config) -> tuple:
        """``(route_key, owning_shard)`` for a config document."""
        key = route_key(config)
        return key, self.ring.shard_for(key)

    def submit(self, config, priority: int = 0, force: bool = False,
               trace: TraceContext | None = None) -> dict:
        """Route-by-key submit under a ``router.submit`` span.

        The span joins the submitter's trace (``trace`` argument, the
        thread's active context, or a freshly minted one) and the hop
        to the owning shard carries it onward as ``traceparent`` — the
        shard's whole span tree lands under the same trace id, and the
        finished router span is kept for :meth:`events` to stitch.
        """
        key, owner = self.route(config)
        self._m_requests.labels(op="submit", shard=owner).inc()
        incoming = trace if trace is not None else current_context()
        try:
            with span("router.submit", shard=owner) as hop:
                if not isinstance(hop, Span):
                    downstream = incoming    # tracing off: pass along
                elif incoming is not None:
                    downstream = hop.adopt(incoming)
                else:
                    hop.trace_id = new_trace_id()
                    hop.span_id = new_span_id()
                    downstream = TraceContext(hop.trace_id,
                                              hop.span_id)
                with trace_context(downstream):
                    job = self._clients[owner].submit(
                        config, priority=priority, force=force)
        except OSError as exc:
            raise ShardUnavailable(owner, str(exc)) from None
        with self._lock:
            self._locations[job["job_id"]] = owner
            if isinstance(hop, Span):
                self._traces[job["job_id"]] = hop.to_dict()
                while len(self._traces) > TRACES_MAX:
                    self._traces.popitem(last=False)
        return dict(job, shard=owner, route_key=key)

    def locate(self, job_id: str) -> str:
        """The shard holding ``job_id`` — cached, else fan-out probe.

        Raises :class:`UnknownJobError` only when *every* shard
        answered 404; with any shard unreachable the honest answer is
        503, not "gone".
        """
        with self._lock:
            cached = self._locations.get(job_id)
        order = list(self._clients)
        if cached in self._clients:
            order.remove(cached)
            order.insert(0, cached)
        unreachable = []
        for name in order:
            try:
                self._clients[name]._request(
                    "GET", f"/v1/runs/{job_id}?view=summary")
            except ServeClientError as exc:
                if exc.status == 404:
                    continue
                unreachable.append(name)
            except OSError:
                unreachable.append(name)
            else:
                with self._lock:
                    self._locations[job_id] = name
                return name
        if unreachable:
            raise ShardUnavailable(",".join(unreachable),
                                   f"cannot locate job {job_id!r}")
        raise UnknownJobError(job_id)

    def _on_shard(self, job_id: str, op: str, call):
        name = self.locate(job_id)
        self._m_requests.labels(op=op, shard=name).inc()
        try:
            return name, call(self._clients[name])
        except OSError as exc:
            raise ShardUnavailable(name, str(exc)) from None

    # -- tier-0 inference --------------------------------------------------
    def _predict_any(self, op: str, call) -> dict:
        """Predictions are stateless (no job, no workspace write), so
        any shard with a servable model answers. Shards are tried in
        ring order from the design's hash — identical queries keep
        landing on the same shard first, so its prediction LRU stays
        hot. A 409 (no servable model on that shard — LocalCluster
        shards train independently) falls through to the next; any
        other HTTP error is the answer."""
        first = None
        lacking, unreachable = [], []
        for name in self.ring.preference(op):
            self._m_requests.labels(op="predict", shard=name).inc()
            try:
                doc = call(self._clients[name])
            except ServeClientError as exc:
                if exc.status == 409:
                    lacking.append(name)
                    continue
                self._m_predicts.labels(outcome="failed").inc()
                raise
            except OSError as exc:
                unreachable.append(name)
                if first is None:
                    first = str(exc)
                continue
            self._m_predicts.labels(outcome="served").inc()
            return dict(doc, shard=name)
        self._m_predicts.labels(outcome="failed").inc()
        if unreachable:
            raise ShardUnavailable(",".join(unreachable),
                                   first or "no shard reachable")
        raise ServeClientError(
            409, f"no shard holds a servable surrogate model "
                 f"(tried {', '.join(lacking) or 'none'})")

    def predict(self, design: str, corner) -> dict:
        if not isinstance(corner, (list, tuple)):
            raise ApiError(400, "'corner' must be a 3-number list")
        return self._predict_any(
            f"predict:{design}", lambda c: c.predict(design, corner))

    def predict_batch(self, design: str, corners) -> dict:
        if not isinstance(corners, list):
            raise ApiError(400, "'corners' must be a list")
        return self._predict_any(
            f"predict:{design}",
            lambda c: c.predict_batch(design, corners))

    # -- jobs --------------------------------------------------------------
    def jobs(self) -> dict:
        merged, unreachable = [], []
        for name, client in self._clients.items():
            try:
                for job in client.jobs():
                    merged.append(dict(job, shard=name))
            except (ServeClientError, OSError):
                unreachable.append(name)
        merged.sort(key=lambda j: j.get("submitted_s", 0.0))
        return {"jobs": merged, "unreachable": unreachable}

    def job(self, job_id: str, summary: bool = False) -> dict:
        view = "?view=summary" if summary else ""
        name, doc = self._on_shard(
            job_id, "job",
            lambda c: c._request("GET", f"/v1/runs/{job_id}{view}"))
        return dict(doc, shard=name)

    def events(self, job_id: str) -> dict:
        name, doc = self._on_shard(
            job_id, "events",
            lambda c: c._request("GET", f"/v1/runs/{job_id}/events"))
        doc = dict(doc, shard=name)
        doc["events"] = [self._stitch_event(e, job_id)
                         for e in doc.get("events", [])]
        return doc

    # -- trace stitching ---------------------------------------------------
    def _stitch_event(self, event, job_id: str, depth: int = 0):
        """Rewrite a shard's ``kind="trace"`` event into the cluster
        view: the shard tree wrapped under the router's submit span,
        with the escalation twin's trace (when the job escalated)
        grafted at its parent span."""
        if not isinstance(event, dict) or event.get("kind") != "trace":
            return event
        tree = event.get("trace")
        if not isinstance(tree, dict):
            return event
        with self._lock:
            hop = self._traces.get(job_id)
        if hop:
            wrapper = dict(hop)
            wrapper["children"] = list(wrapper.get("children", [])) \
                + [tree]
            tree = wrapper
        if depth == 0:
            twin = self._escalated_trace(job_id)
            if twin is not None:
                self._graft(tree, twin)
        return dict(event, trace=tree)

    def _escalated_trace(self, job_id: str):
        """The escalation twin's stitched trace tree, best effort:
        ``None`` when the job never escalated, the twin is elsewhere
        unreachable, or its trace has not landed yet."""
        try:
            doc = self.job(job_id)
            twin_id = ((doc.get("report") or {})
                       .get("uncertainty", {})
                       .get("escalated_job_id"))
            if not twin_id:
                return None
            twin = self._on_shard(
                twin_id, "events",
                lambda c: c._request(
                    "GET", f"/v1/runs/{twin_id}/events"))[1]
        except (ShardUnavailable, UnknownJobError, ServeClientError,
                OSError):
            return None
        for event in reversed(twin.get("events", [])):
            stitched = self._stitch_event(event, twin_id, depth=1)
            if isinstance(stitched, dict) \
                    and stitched.get("kind") == "trace":
                return stitched.get("trace")
        return None

    @staticmethod
    def _graft(tree: dict, twin: dict) -> None:
        """Attach ``twin`` under the span it names as parent
        (``parent_span_id``), falling back to the root."""
        target, queue = None, [tree]
        want = twin.get("parent_span_id")
        while queue:
            node = queue.pop()
            if want and node.get("span_id") == want:
                target = node
                break
            queue.extend(node.get("children", []))
        host = target if target is not None else tree
        host.setdefault("children", []).append(twin)

    def event_stream(self, job_id: str):
        """The owning shard's live SSE feed (parsed-event generator,
        heartbeats included so the HTTP front end can re-emit them)."""
        name = self.locate(job_id)
        self._m_requests.labels(op="stream", shard=name).inc()
        return self._clients[name].events(job_id, stream=True,
                                          heartbeats=True)

    def profile(self, job_id: str, format: str = "text"):
        name, doc = self._on_shard(
            job_id, "profile",
            lambda c: c.profile(job_id, format=format))
        return dict(doc, shard=name) if isinstance(doc, dict) else doc

    def cancel(self, job_id: str) -> dict:
        name, doc = self._on_shard(job_id, "cancel",
                                   lambda c: c.cancel(job_id))
        return dict(doc, shard=name)

    # -- aggregate reads ---------------------------------------------------
    def _fan_out(self, call) -> tuple:
        """``({shard: result}, {shard: error_doc})`` over all shards."""
        results, errors = {}, {}
        for name, client in self._clients.items():
            try:
                results[name] = call(client)
            except ServeClientError as exc:
                errors[name] = {"error": exc.message,
                                "status": exc.status,
                                "body": exc.body}
            except OSError as exc:
                errors[name] = {"error": str(exc)}
        return results, errors

    def health(self) -> dict:
        shards, worst, accepting = {}, "healthy", False
        jobs: dict[str, int] = {}
        for name, client in self._clients.items():
            try:
                doc = client.health()
            except (ServeClientError, OSError) as exc:
                doc = {"health": "unreachable", "error": str(exc)}
            shards[name] = doc
            worst = _worst(worst, doc.get("health", "unreachable"))
            accepting = accepting or bool(doc.get("accepting"))
            for state, count in (doc.get("jobs") or {}).items():
                jobs[state] = jobs.get(state, 0) + int(count)
        return {"status": "ok", "role": "router", "health": worst,
                "accepting": accepting, "jobs": jobs,
                "shards": shards, "ring": self.ring.stats()}

    def slo(self) -> dict:
        rules, shards, worst = [], {}, "healthy"
        results, errors = self._fan_out(lambda c: c.slo())
        for name, report in results.items():
            shards[name] = {"health": report.get("health", "unknown")}
            worst = _worst(worst, report.get("health", "unhealthy"))
            for rule in report.get("rules", []):
                rules.append(dict(rule, shard=name))
        for name, error in errors.items():
            shards[name] = {"health": "unreachable", **error}
            worst = "unhealthy"
        # Cluster-level rules evaluate over the router's own recorded
        # history (shard-labeled series + router counters) — burn that
        # survives a shard restarting with fresh counters. They live
        # under their own key: every entry in "rules" stays a
        # shard-tagged rule from a live shard.
        cluster = self.slo_engine.evaluate()
        worst = _worst(worst, cluster["health"])
        return {"health": worst, "rules": rules, "shards": shards,
                "cluster": cluster, "role": "router"}

    def workspace_stats(self) -> dict:
        results, errors = self._fan_out(lambda c: c.workspace_stats())
        return {"role": "router", "shards": {**results, **errors}}

    def cache_entry(self, digest: str, tier: str | None = None):
        """First shard that holds the digest wins (fan-out read); no
        shard holding it is a 404."""
        for name, client in self._clients.items():
            try:
                found = client.cache_entry(digest, tier)
            except (ServeClientError, OSError):
                continue
            if found is not None:
                return found
        raise ApiError(404, f"no cache entry {digest!r} on any shard")

    def cluster_info(self) -> dict:
        with self._lock:
            located = len(self._locations)
        return {"role": "router", "shards": self.shards,
                "ring": self.ring.stats(), "located_jobs": located}

    # -- metrics merge -----------------------------------------------------
    def metrics_json(self) -> dict:
        """Every shard's JSON exposition merged; each series gains a
        ``shard`` label so identical families never collide."""
        merged: dict[str, dict] = {}
        collector_errors = 0
        results, errors = self._fan_out(
            lambda c: c.metrics(format="json"))
        for name, doc in results.items():
            collector_errors += int(doc.get("collector_errors", 0))
            for fam_name, family in doc.get("metrics", {}).items():
                out = merged.setdefault(
                    fam_name, {"type": family.get("type", "gauge"),
                               "help": family.get("help", ""),
                               "series": []})
                for series in family.get("series", []):
                    labels = dict(series.get("labels", {}))
                    labels["shard"] = name
                    out["series"].append(dict(series, labels=labels))
        return {"metrics": merged,
                "collector_errors": collector_errors,
                "unreachable": sorted(errors)}

    def metrics_text(self) -> str:
        """The merged exposition as Prometheus text 0.0.4."""
        doc = self.metrics_json()
        lines = []
        for name, family in doc["metrics"].items():
            if family.get("help"):
                lines.append(f"# HELP {name} "
                             f"{_escape_help(family['help'])}")
            lines.append(f"# TYPE {name} {family['type']}")
            for series in family["series"]:
                labels = series.get("labels", {})
                if family["type"] == "histogram":
                    for bound, count in series.get("buckets", []):
                        lines.append(
                            f"{_series(name + '_bucket', labels, {'le': bound})}"
                            f" {count}")
                    lines.append(f"{_series(name + '_sum', labels)} "
                                 f"{series.get('sum', 0.0)!r}")
                    lines.append(f"{_series(name + '_count', labels)} "
                                 f"{series.get('count', 0)}")
                else:
                    lines.append(f"{_series(name, labels)} "
                                 f"{_fmt(series.get('value', 0.0))}")
        return "\n".join(lines) + "\n"

    def metrics_window(self, window_s: float) -> dict:
        """The router recorder's windowed report over the merged
        shard-labeled history (deltas, rates, quantiles), with each
        shard's own windowed report riding along under ``shards``."""
        results, errors = self._fan_out(
            lambda c: c.metrics(window_s=window_s))
        report = self.recorder.window_report(window_s)
        report["role"] = "router"
        report["shards"] = {**results, **errors}
        return report

    def _federated_sample(self) -> tuple:
        """One cluster-wide sample for the router's recorder: every
        series of the merged exposition flattened to the snapshot form
        (histograms as ``_sum``/``_count`` values + cumulative
        buckets), keyed exactly as :func:`~repro.obs.slo.shard_series`
        spells them, plus the router's own registry."""
        values, buckets = {}, {}
        doc = self.metrics_json()
        for fam_name, family in doc["metrics"].items():
            is_hist = family.get("type") == "histogram"
            for series in family["series"]:
                labels = series.get("labels", {})
                if is_hist:
                    key = _series(fam_name, labels)
                    values[_series(fam_name + "_sum", labels)] = \
                        series.get("sum", 0.0)
                    values[_series(fam_name + "_count", labels)] = \
                        series.get("count", 0)
                    buckets[key] = [
                        [None if bound in (None, "+Inf")
                         else float(bound), count]
                        for bound, count in series.get("buckets", [])]
                else:
                    values[_series(fam_name, labels)] = \
                        series.get("value", 0.0)
        registry = get_registry()
        values.update(registry.snapshot())
        for key, cumulative in registry.histogram_cumulative().items():
            inf = float("inf")
            buckets[key] = [[None if bound == inf else bound, count]
                            for bound, count in cumulative]
        return values, buckets

    # The names the HTTP front end calls (a shard's own ``submit`` and
    # ``cancel`` return a Job and a bool; these answer the wire).
    submit_run, cancel_run, slo_report = submit, cancel, slo


class RouterServer(StcoServer):
    """The shared HTTP front end (:class:`~repro.serve.http.StcoServer`)
    over a :class:`Router`: the router's role and route table, its
    shards' own heartbeats relayed, and the router closed with it."""

    role = ROUTER

    def __init__(self, router: Router, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False):
        super().__init__(router, host=host, port=port, verbose=verbose)
        self.httpd.sse_heartbeat_s = None    # relay the shards' own
        self.router = router

    def close(self) -> None:
        super().close(close_service=True)   # stops the series sampler
