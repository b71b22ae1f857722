"""ServeService: a worker pool draining the job queue against one
shared workspace.

This is the piece that turns ``run(config, workspace)`` from a function
call into a multi-tenant service. One :class:`ServeService` composes

* a :class:`~repro.serve.jobs.JobStore` (durable queue + lifecycle),
* a :class:`~repro.serve.coalesce.Coalescer` (identical requests share
  one execution),
* one shared :class:`~repro.api.workspace.Workspace` (so the
  zero-retrain / zero-recharacterize guarantee holds *across tenants*:
  the model your request trained is the model every later request
  loads), and
* N worker threads claiming jobs and running them through
  :func:`repro.api.runner.run`.

Engine executions serialize on one process-wide lock, for two
reasons. The workspace's artifact builds are not synchronised: two
jobs could build the same dataset or train the same model twice. And
one at a time is the faster schedule: on 2 CPUs, two concurrent write
executions contend for the GIL and each takes ~2.2× longer, for no
more throughput. Autograd is not a reason: grad mode is per thread
(:class:`repro.nn.no_grad` in one job cannot change what another
records), and GNN and surrogate-ensemble inference run on plain
arrays. The service's concurrency win comes from admission
(submissions never block on running work), coalescing, and the
shared warm caches — the per-job ``ledger``
records queue wait, lock wait and execution seconds separately so that
split stays observable.

Cancellation: queued jobs cancel immediately; running jobs cancel at
the next optimizer round via the progress callback (the per-round hook
raises :class:`JobCancelled` inside the search loop). Followers of a
cancelled or failed-by-crash leader are not silently dropped — the
first is promoted to leader and re-queued, the rest re-coalesce onto
it.
"""

from __future__ import annotations

import threading
import time
import traceback

from ..obs.metrics import get_registry
from ..obs.prof import Profile, SamplingProfiler
from ..obs.series import SeriesRecorder
from ..obs.slo import SloEngine
from ..obs.trace import (Span, TraceContext, new_span_id, new_trace_id,
                         span, trace_context)
from .coalesce import Coalescer, request_key
from .jobs import JobState, JobStore, UnknownJobError

__all__ = ["JobCancelled", "ServiceClosed", "ServeService"]


class JobCancelled(Exception):
    """Raised inside a job's progress callback to abort it mid-search."""


class ServiceClosed(RuntimeError):
    """The service is draining or shut down and takes no new work."""

    def http_reply(self) -> tuple:
        # The hint tells retrying clients when to come back.
        return 503, {"error": str(self)}, {"Retry-After": "1"}


def _default_runner(config, workspace, progress_callback=None):
    from ..api.runner import run
    return run(config, workspace, progress_callback=progress_callback)


class ServeService:
    """Job admission, scheduling and execution over one workspace.

    Parameters
    ----------
    workspace:
        A :class:`~repro.api.workspace.Workspace` (or a path, coerced
        to one). All jobs execute against it.
    jobs_dir:
        Where job records persist; default ``<workspace>/serve/jobs``.
    workers:
        Worker-thread count. More workers mainly overlap admission,
        persistence and follower resolution — executions themselves
        serialize (see module docstring).
    reuse_completed:
        When True (default), a submission whose content key already
        succeeded completes instantly with the stored report.
    runner:
        Execution hook ``(config_dict, workspace, progress_callback)
        -> RunReport``; tests substitute stubs. Default:
        :func:`repro.api.runner.run`.
    on_event:
        Optional observer called with ``(job, snapshot)`` after every
        persisted progress event (logging, test orchestration).
    autostart:
        Start the worker threads immediately (default). Pass False to
        stage jobs first — e.g. to test queued-state behavior — then
        call :meth:`start`.
    series_interval_s:
        Sampling period of the service's
        :class:`~repro.obs.series.SeriesRecorder` (history under
        ``<workspace>/obs/series/``). ``0`` disables the background
        sampler; :meth:`slo_report` then sees only manual samples.
    slo_rules:
        SLO rule set for the built-in
        :class:`~repro.obs.slo.SloEngine`; default
        :func:`~repro.obs.slo.default_rules`.
    profile_interval_s:
        Sampling period of the per-job execute-stage profiler
        (``kind="profile"`` event on the job's sidecar). ``0``
        disables profiling.
    shard_name:
        This service's identity inside a cluster (empty = standalone).
        Surfaced in :meth:`health` and as the ``repro_shard_info``
        gauge so merged metrics stay attributable; peers are wired
        later via :meth:`configure_peers` (membership is only known
        once every shard has bound its port).
    """

    def __init__(self, workspace, jobs_dir=None, workers: int = 2,
                 reuse_completed: bool = True, runner=None,
                 on_event=None, autostart: bool = True,
                 series_interval_s: float = 5.0, slo_rules=None,
                 profile_interval_s: float = 0.01,
                 shard_name: str = "", predict_config=None):
        from ..api.workspace import Workspace
        if not isinstance(workspace, Workspace):
            workspace = Workspace(workspace)
        self.workspace = workspace
        self.store = JobStore(jobs_dir if jobs_dir is not None
                              else workspace.root / "serve" / "jobs")
        self.coalescer = Coalescer()
        self.workers = max(1, int(workers))
        self.reuse_completed = reuse_completed
        self._runner = runner if runner is not None else _default_runner
        self._on_event = on_event
        self._exec_lock = threading.Lock()
        self._cancel_events: dict[str, threading.Event] = {}
        self._state_lock = threading.Lock()
        self._accepting = True
        self._stop = threading.Event()
        self._threads: list = []
        self._started_s = time.time()
        self.shard_name = str(shard_name)
        self.peers = None                # PeerBorrower once clustered
        # One stable hook (borrower delegation happens inside it), so
        # re-configuring membership never stacks stale hooks on the
        # workspace.
        self.workspace.add_engine_hook(self._peer_hook)
        registry = get_registry()
        if self.shard_name:
            registry.gauge(
                "repro_shard_info",
                "Static shard identity (always 1; labels carry it)",
                labels=("shard",)).labels(
                    shard=self.shard_name).set(1)
        self._m_outcomes = registry.counter(
            "repro_serve_jobs_total",
            "Jobs finished by this service, by outcome",
            labels=("outcome",))
        g_queue = registry.gauge(
            "repro_serve_queue_depth",
            "Runnable jobs waiting for a worker")
        g_jobs = registry.gauge(
            "repro_serve_jobs", "Jobs known to the store, by state",
            labels=("state",))

        def _collect(store=self.store):
            # Scrape-time sampling: counts() is the ground truth the
            # gauges must agree with, so read it at exposition instead
            # of shadowing every transition.
            counts = store.counts()
            g_queue.set(counts.get("queued", 0))
            for state in JobState.ALL:
                g_jobs.labels(state=state).set(counts.get(state, 0))

        self._collector = _collect
        self._registry = registry
        registry.add_collector(_collect)
        from ..api.config import PredictConfig
        self.predict_config = predict_config if predict_config \
            is not None else PredictConfig()
        self._predict = None            # lazy PredictService
        self._predict_lock = threading.Lock()
        self.refresher = None
        if self.predict_config.refresh_delta_rows > 0:
            from ..predict.refresh import ModelRefresher
            self.refresher = ModelRefresher(
                self.workspace, service=None,
                delta_rows=self.predict_config.refresh_delta_rows,
                interval_s=self.predict_config.refresh_interval_s,
                epochs=self.predict_config.refresh_epochs or None,
                exec_lock=self._exec_lock,
                min_rows=self.predict_config.min_rows).start()
        self.profile_interval_s = float(profile_interval_s)
        self.recorder = SeriesRecorder(
            registry=registry, interval_s=series_interval_s,
            persist_dir=workspace.root / "obs" / "series")
        self.recorder.start()
        self.slo = SloEngine(self.recorder, rules=slo_rules)
        self._rebuild()
        if autostart:
            self.start()

    # -- restart rebuild ---------------------------------------------------
    def _rebuild(self) -> None:
        """Reconstruct coalescer state from the persisted store."""
        jobs = sorted(self.store.all_jobs(),
                      key=lambda j: j.finished_s)
        for job in jobs:
            if job.state == JobState.SUCCEEDED and job.content_key:
                # Lazily-indexed jobs are stubs here; the summary's
                # has_report flag says whether the record can actually
                # answer a duplicate. A report-less success must not
                # become a completed key (it would resolve duplicates
                # with report: null).
                if job.report is None and not self.store.summary(
                        job.job_id).get("has_report"):
                    continue
                self.coalescer.restore_completed(job.content_key,
                                                 job.job_id)
        leaders_by_key: dict = {}
        for job in jobs:
            if job.state != JobState.SUBMITTED:
                continue
            if not job.coalesced_with:
                self.coalescer.restore_leader(job.content_key,
                                              job.job_id)
                leaders_by_key.setdefault(job.content_key, job.job_id)
        for job in jobs:
            if job.state != JobState.SUBMITTED or not job.coalesced_with:
                continue
            try:
                leader = self.store.get(job.coalesced_with)
            except UnknownJobError:
                # The leader's record is gone (gc'd, torn file): a
                # dangling follower must never make the boot fail —
                # promote it and run solo.
                leader = None
            if leader is not None and leader.state in JobState.ACTIVE:
                self.coalescer.restore_follower(leader.job_id,
                                                job.job_id)
            elif leader is not None \
                    and leader.state == JobState.SUCCEEDED \
                    and leader.report is not None:
                self.store.finish(job.job_id, JobState.SUCCEEDED,
                                  report=leader.report)
            elif job.content_key in leaders_by_key:
                # An earlier rebuilt/promoted job already owns this
                # key: re-coalesce instead of executing twice.
                new_leader = leaders_by_key[job.content_key]
                job.coalesced_with = new_leader
                self.store.update(job)
                self.coalescer.restore_follower(new_leader, job.job_id)
            else:
                # Leader died terminally (or vanished) while we were
                # down: run solo.
                job.coalesced_with = ""
                self.store.update(job)
                self.coalescer.restore_leader(job.content_key,
                                              job.job_id)
                self.store.enqueue(job.job_id)
                leaders_by_key[job.content_key] = job.job_id

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._threads:
            return
        for i in range(self.workers):
            t = threading.Thread(target=self._worker_loop,
                                 name=f"serve-worker-{i}", daemon=True)
            t.start()
            self._threads.append(t)

    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting work; wait for the queue to empty."""
        with self._state_lock:
            self._accepting = False
        return self.store.wait_idle(timeout)

    def close(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain, stop workers, join threads."""
        self.drain(timeout)
        self._stop.set()
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads = []
        if self.refresher is not None:
            self.refresher.close()
        if self.peers is not None:
            self.peers.close()
        self.recorder.stop()
        self._registry.remove_collector(self._collector)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- admission ---------------------------------------------------------
    def submit(self, config, priority: int = 0, force: bool = False,
               trace: dict | None = None):
        """Admit one run request; returns its (persisted) Job.

        Validates/normalizes the config, computes its content key, and
        routes through the coalescer: leaders queue, followers park on
        the in-flight leader, duplicates complete instantly from the
        stored report. ``force=True`` always executes. ``trace`` is
        the submitter's propagated trace context (from a
        ``traceparent`` header); the job's root span adopts it.
        """
        from ..api.config import StcoConfig
        with self._state_lock:
            if not self._accepting:
                raise ServiceClosed("service is draining; not accepting "
                                    "new submissions")
        if not isinstance(config, StcoConfig):
            config = StcoConfig.from_dict(dict(config))
        key = request_key(config, self.workspace.root)
        job = self.store.submit(config.to_dict(), priority=priority,
                                content_key=key, enqueue=False,
                                trace=trace)
        # Two admission attempts: the second only runs when a
        # "duplicate" classification turned out to point at a job whose
        # report no longer exists (record gc'd from under the lazy
        # store) — the stale key is forgotten and the job re-admitted,
        # which can only yield leader or follower.
        for _ in range(2):
            role, other = self.coalescer.admit(
                key, job.job_id, force=force,
                reuse_completed=self.reuse_completed)
            if role == "leader":
                self.store.enqueue(job.job_id)
                break
            if role == "follower":
                job.coalesced_with = other
                self.store.update(job)
                # A high-priority request must not wait at its queued
                # leader's lower priority: the leader inherits the boost.
                self.store.boost(other, priority)
                break
            # duplicate: answer immediately — but never with a null
            # report (the eager store kept reports in memory; the lazy
            # one must re-execute when the record vanished).
            done = self.store.get(other)
            if done.state == JobState.SUCCEEDED \
                    and done.report is not None:
                self.store.finish(
                    job.job_id, JobState.SUCCEEDED,
                    report=done.report, coalesced_with=other,
                    ledger={"queued_s": 0.0, "lock_wait_s": 0.0,
                            "execution_s": 0.0})
                break
            self.coalescer.forget_completed(key, other)
        return self.store.get(job.job_id)

    def submit_run(self, config, priority: int = 0, force: bool = False,
                   trace: TraceContext | None = None) -> dict:
        """:meth:`submit` answered as ``POST /v1/runs`` answers it;
        ``trace`` is the request's parsed ``traceparent``."""
        job = self.submit(config, priority=priority, force=force,
                          trace=trace.to_dict() if trace is not None
                          else None)
        return {"job_id": job.job_id, "state": job.state,
                "content_key": job.content_key,
                "coalesced_with": job.coalesced_with,
                "priority": job.priority}

    # -- cancellation ------------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel a job. Queued/parked jobs cancel now; running jobs at
        their next progress event. False if it was already terminal
        (including losing the race against its own completion)."""
        job = self.store.get(job_id)
        if job.terminal:
            return False
        if job.state == JobState.SUBMITTED and job.coalesced_with:
            # Parked follower: detach it from the leader first. Losing
            # that race means the leader's resolution (or a
            # repatriation) owns the job now — retry once against the
            # possibly-new leader, then answer honestly.
            for _ in range(2):
                if self.coalescer.remove_follower(job.coalesced_with,
                                                  job_id):
                    return self.store.finish(
                        job_id, JobState.CANCELLED).state == \
                        JobState.CANCELLED
                job = self.store.get(job_id)
                if job.terminal or not job.coalesced_with:
                    break
            if job.terminal:
                return False
            if job.state == JobState.SUBMITTED and job.coalesced_with:
                # Mid-repatriation and we lost twice: the job is about
                # to be resolved or re-queued; report not-cancelled
                # rather than flag a run that will never consult it.
                return False
        if job.state == JobState.SUBMITTED and not job.coalesced_with:
            if self.store.cancel_queued(job_id):
                self._repatriate_followers(
                    self.coalescer.resolve(job.content_key, job_id,
                                           success=False))
                return True
        # Running (or it started while we were deciding): flag it for
        # the next progress round, then re-check — if it completed in
        # the meantime the worker's cleanup may already have run, so
        # drop our (re-created) event rather than leak it.
        self._cancel_event(job_id).set()
        job = self.store.get(job_id)
        if job.terminal:
            with self._state_lock:
                self._cancel_events.pop(job_id, None)
            return job.state == JobState.CANCELLED
        return True

    def cancel_run(self, job_id: str) -> dict:
        """:meth:`cancel` answered as ``POST .../cancel`` answers it."""
        cancelled = self.cancel(job_id)
        return {"job_id": job_id, "cancelled": cancelled,
                "state": self.store.get(job_id).state}

    def _cancel_event(self, job_id: str) -> threading.Event:
        with self._state_lock:
            return self._cancel_events.setdefault(job_id,
                                                  threading.Event())

    # -- execution ---------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.store.claim(timeout=0.2)
            if job is not None:
                self._execute(job)

    def _execute(self, job) -> None:
        cancel = self._cancel_event(job.job_id)
        ledger = {"queued_s": time.time() - job.submitted_s}
        root = None
        prof = None

        def on_progress(snapshot):
            self.store.add_event(job.job_id, snapshot)
            if self._on_event is not None:
                self._on_event(job, snapshot)
            if cancel.is_set():
                raise JobCancelled(job.job_id)

        try:
            if cancel.is_set():          # cancelled between claim & here
                raise JobCancelled(job.job_id)
            with span("serve.job", job_id=job.job_id,
                      priority=job.priority) as root:
                ctx = TraceContext.from_dict(job.trace) \
                    if job.trace else None
                if not isinstance(root, Span):
                    downstream = ctx     # tracing off: pass through
                elif ctx is not None:
                    downstream = root.adopt(ctx)
                else:
                    # No propagated context: this job roots its own
                    # trace, so hops it makes (escalations, peer
                    # borrows) still stitch under one id.
                    root.trace_id = new_trace_id()
                    root.span_id = new_span_id()
                    downstream = TraceContext(root.trace_id,
                                              root.span_id)
                with trace_context(downstream):
                    root.add_child(Span.synthetic(
                        "serve.queued", ledger["queued_s"],
                        start_s=job.submitted_s))
                    t0 = time.perf_counter()
                    with self._exec_lock:
                        ledger["lock_wait_s"] = time.perf_counter() - t0
                        root.add_child(Span.synthetic(
                            "serve.lock_wait", ledger["lock_wait_s"]))
                        t1 = time.perf_counter()
                        with span("serve.execute") as ex:
                            if self.profile_interval_s > 0:
                                prof = SamplingProfiler(
                                    interval_s=self.profile_interval_s
                                ).start()
                            try:
                                report = self._runner(
                                    job.config, self.workspace,
                                    progress_callback=on_progress)
                            finally:
                                if prof is not None:
                                    prof.stop()
                        ledger["execution_s"] = time.perf_counter() - t1
                        if isinstance(ex, Span):
                            # Pin the stage to the ledger value so the
                            # trace's queued/lock_wait/execute children
                            # sum exactly to the ledger total.
                            ex.wall_s = ledger["execution_s"]
        except JobCancelled:
            self._record_profile(job, prof)
            self._record_trace(job, root, ledger, JobState.CANCELLED)
            self.store.finish(job.job_id, JobState.CANCELLED,
                              ledger=ledger)
            self._m_outcomes.labels(outcome=JobState.CANCELLED).inc()
            self._repatriate_followers(
                self.coalescer.resolve(job.content_key, job.job_id,
                                       success=False))
        except Exception as exc:         # noqa: BLE001 — job boundary
            error = "".join(traceback.format_exception_only(exc)).strip()
            self._record_profile(job, prof)
            self._record_trace(job, root, ledger, JobState.FAILED)
            self.store.finish(job.job_id, JobState.FAILED, error=error,
                              ledger=ledger)
            self._m_outcomes.labels(outcome=JobState.FAILED).inc()
            # Same config, same workspace → the same deterministic
            # failure; followers inherit it instead of re-running.
            for follower in self.coalescer.resolve(job.content_key,
                                                   job.job_id,
                                                   success=False):
                self.store.finish(follower, JobState.FAILED, error=error)
        else:
            payload = (report.to_dict()
                       if hasattr(report, "to_dict") else dict(report))
            self._record_profile(job, prof)
            self._record_trace(job, root, ledger, JobState.SUCCEEDED)
            self.store.finish(job.job_id, JobState.SUCCEEDED,
                              report=payload, ledger=ledger)
            self._m_outcomes.labels(outcome=JobState.SUCCEEDED).inc()
            for follower in self.coalescer.resolve(job.content_key,
                                                   job.job_id,
                                                   success=True):
                self.store.finish(follower, JobState.SUCCEEDED,
                                  report=payload)
        finally:
            with self._state_lock:
                self._cancel_events.pop(job.job_id, None)

    def _record_profile(self, job, prof) -> None:
        """Persist the execute-stage sampling profile as a
        ``kind: profile`` event — before the trace event, so the trace
        stays the last pre-terminal entry restarts index against."""
        if prof is None or prof.profile.samples == 0:
            return
        try:
            self.store.add_event(job.job_id,
                                 {"kind": "profile",
                                  "profile": prof.profile.to_dict()})
        except Exception:                # noqa: BLE001 — best effort
            pass

    def _record_trace(self, job, root, ledger, state: str) -> None:
        """Persist the job's finished span tree as a ``kind: trace``
        event on its sidecar — the last event, before the terminal
        transition, so restarts index the right count."""
        if not isinstance(root, Span):
            return                       # tracing disabled / never ran
        root.annotate(state=state,
                      **{k: round(v, 6) for k, v in ledger.items()})
        try:
            self.store.add_event(job.job_id,
                                 {"kind": "trace",
                                  "trace": root.to_dict()})
        except Exception:                # noqa: BLE001 — best effort
            pass

    def _repatriate_followers(self, followers: list) -> None:
        """A leader went away without a result: promote the first
        still-pending follower to leader, re-coalesce the rest."""
        pending = []
        for job_id in followers:
            job = self.store.get(job_id)
            if job.state == JobState.SUBMITTED:
                pending.append(job)
        for job in pending:
            job.coalesced_with = ""
            self.store.update(job)
            role, other = self.coalescer.admit(
                job.content_key, job.job_id,
                reuse_completed=self.reuse_completed)
            if role == "leader":
                self.store.enqueue(job.job_id)
            elif role == "follower":
                job.coalesced_with = other
                self.store.update(job)
            else:                        # resolved while we repatriated
                done = self.store.get(other)
                self.store.finish(job.job_id, JobState.SUCCEEDED,
                                  report=done.report,
                                  coalesced_with=other)

    # -- cluster -----------------------------------------------------------
    def _peer_hook(self, engine) -> None:
        if self.peers is not None:
            self.peers.attach(engine)

    def configure_peers(self, members: dict) -> dict:
        """Adopt a cluster membership document
        (``{name: {"url": ..., "weight": ...}}``): future cache misses
        ask ring neighbors before characterizing. Idempotent;
        re-configuring replaces the previous membership."""
        from ..cluster.peers import PeerBorrower
        borrower = PeerBorrower(self.shard_name or "shard", members)
        previous, self.peers = self.peers, borrower
        for engine in self.workspace.engines():
            borrower.attach(engine)
        if previous is not None:
            previous.close()
        return {"shard": self.shard_name,
                "peers": list(borrower.peer_names)}

    def cache_entry(self, digest: str, tier: str | None = None):
        """One engine disk-cache entry as ``(tier, raw_bytes)``, or
        ``None``. Digests are validated against the hex grammar before
        they touch a path, and entries are read as opaque bytes — the
        server never unpickles foreign requests' keys."""
        from ..cluster.peers import CACHE_TIERS, DIGEST_RE
        if not isinstance(digest, str) or not DIGEST_RE.match(digest):
            return None
        tiers = (tier,) if tier is not None else CACHE_TIERS
        for name in tiers:
            if name not in CACHE_TIERS:
                continue
            path = self.workspace.engine_dir / name / f"{digest}.pkl"
            try:
                # Atomic writers (temp + rename) mean a readable file
                # is always a whole entry.
                return name, path.read_bytes()
            except OSError:
                continue
        return None

    # -- introspection -----------------------------------------------------
    def wait(self, job_id: str, timeout: float | None = None):
        """Block until the job is terminal; returns the Job."""
        return self.store.wait_for(job_id, timeout)

    def jobs(self) -> dict:
        return {"jobs": self.store.jobs()}

    def job(self, job_id: str, summary: bool = False) -> dict:
        """One job's record; ``summary=True`` is the light polling
        view (no config/report/events payload)."""
        return (self.store.summary(job_id) if summary
                else self.store.describe(job_id))

    def events(self, job_id: str) -> dict:
        """Progress snapshots for a job — a coalesced job that recorded
        none of its own transparently reports its leader's."""
        job = self.store.get(job_id)
        events = list(job.events)
        source = job.job_id
        if not events and job.coalesced_with:
            try:
                events = list(self.store.get(job.coalesced_with).events)
                source = job.coalesced_with
            except UnknownJobError:      # leader record gone: own (none)
                pass
        return {"job_id": job_id, "state": job.state,
                "source": source, "events": events}

    def event_stream(self, job_id: str, heartbeat_s: float = 10.0):
        """The job's live feed: an ``{"id", "event", "data"}`` item per
        persisted snapshot (``event`` is its ``kind`` for ``trace`` and
        ``profile`` snapshots, else ``progress``; ``id`` its index), a
        ``heartbeat`` item after each ``heartbeat_s`` without one, and
        a final ``end`` item carrying the terminal state. A coalesced
        follower streams its leader's snapshots. An unknown job raises
        here, not on the first item."""
        job = self.store.get(job_id)
        source = job.job_id
        if job.coalesced_with:
            try:
                self.store.get(job.coalesced_with)
                source = job.coalesced_with
            except UnknownJobError:
                pass                     # leader gone: own (empty) feed
        return self._feed(job_id, source, heartbeat_s)

    def _feed(self, job_id: str, source: str, heartbeat_s: float):
        index = 0
        while True:
            # Long-poll: wakes on a fresh snapshot or after heartbeat_s.
            events, state = self.store.events_since(source, index,
                                                    timeout=heartbeat_s)
            for event in events:
                kind = event.get("kind") \
                    if event.get("kind") in ("trace", "profile") \
                    else "progress"
                yield {"id": index, "event": kind, "data": event}
                index += 1
            if state in JobState.TERMINAL:
                yield {"event": "end",
                       "data": {"job_id": job_id, "source": source,
                                "state": state}}
                return
            if not events:
                yield {"event": "heartbeat", "data": None}

    def health(self) -> dict:
        counts = self.store.counts()
        with self._state_lock:
            accepting = self._accepting
        slo = self.slo.evaluate()
        return {"status": "ok" if accepting else "draining",
                "shard": self.shard_name,
                "peers": (self.peers.stats()
                          if self.peers is not None else None),
                "health": slo["health"],
                "slo_breaches": [r["name"] for r in slo["rules"]
                                 if r["state"] != "ok"],
                "accepting": accepting,
                "workers": len(self._threads),
                "uptime_s": time.time() - self._started_s,
                "jobs": counts,
                "store_memory": self.store.memory_stats(),
                "coalescer": self.coalescer.stats()}

    def slo_report(self) -> dict:
        """Full SLO evaluation plus the recorder's own vitals."""
        report = self.slo.evaluate()
        report["series"] = self.recorder.stats()
        return report

    def profile(self, job_id: str, format: str = "json"):
        """A job's persisted execute-stage profile (``None`` when the
        job recorded none — profiling off, or not yet executed). A
        coalesced job transparently reports its leader's.
        ``format="text"`` renders it as flamegraph collapsed stacks
        (``None`` without one)."""
        job = self.store.get(job_id)
        sources = [job]
        if job.coalesced_with:
            try:
                sources.append(self.store.get(job.coalesced_with))
            except UnknownJobError:
                pass
        found = {"job_id": job_id, "state": job.state,
                 "source": job.job_id, "profile": None}
        for source in sources:
            event = next((e for e in reversed(list(source.events))
                          if isinstance(e, dict)
                          and e.get("kind") == "profile"), None)
            if event is not None:
                found.update(source=source.job_id,
                             profile=event["profile"])
                break
        if format != "text":
            return found
        return (None if found["profile"] is None else
                Profile.from_dict(found["profile"]).render_collapsed())

    def workspace_stats(self) -> dict:
        return {"workspace": self.workspace.stats(),
                "engines": self.workspace.engine_stats()}

    def metrics_text(self) -> str:
        """The process registry as Prometheus text 0.0.4."""
        return get_registry().render_prometheus()

    def metrics_json(self) -> dict:
        return get_registry().render_json()

    def metrics_window(self, window_s: float) -> dict:
        """Deltas, rates and quantiles over the recorded window."""
        return self.recorder.window_report(window_s)

    # -- tier-0 predict ----------------------------------------------------
    def predict_service(self):
        """The lazily-built tier-0 inference edge over this service's
        workspace (see :class:`~repro.predict.service.PredictService`);
        once built, the background refresher (when enabled) swaps its
        served model after every warm refit."""
        with self._predict_lock:
            if self._predict is None:
                from ..predict.service import PredictService
                self._predict = PredictService(
                    self.workspace,
                    min_rows=self.predict_config.min_rows,
                    cache_size=self.predict_config.cache_size)
                if self.refresher is not None:
                    self.refresher.service = self._predict
            return self._predict

    def predict(self, design: str, corner) -> dict:
        """One tier-0 prediction from the served ensemble."""
        return self.predict_service().predict(design, corner)

    def predict_batch(self, design: str, corners) -> dict:
        """Many corners in one stacked ensemble forward."""
        return self.predict_service().predict_batch(design, corners)
