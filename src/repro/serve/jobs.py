"""Persistent job queue: the durable half of the serve layer.

A :class:`JobStore` owns one directory of JSON job records — one file
per job, written atomically on every state change — plus the in-memory
priority queue workers drain. Because every transition hits disk before
it is observable, a crashed server restarts into a consistent store:
jobs found ``running`` on load were interrupted mid-flight and are
resubmitted (queued again, ``resubmitted`` flagged, original priority
and FIFO position preserved), while terminal jobs keep their reports.

Scheduling is priority-then-FIFO: higher ``priority`` first, and within
one priority class strictly submission order (a monotonic sequence
number persisted with the job, so the order survives restarts too).

**Terminal records load lazily.** A weeks-old live process accumulates
thousands of finished jobs, and boot used to pin every config, report
and event history in memory forever. Now ``_load`` keeps only a light
*stub* per terminal record (state, priority, sequence, content key —
the fields scheduling and coalescer rebuild need); the heavy body
(config, report, events) is read from disk on first :meth:`get` and
held in a small bounded LRU. Active jobs still load fully — they are
the crash-recovery state.

The store knows nothing about *what* a job runs or how identical jobs
are shared — that is :mod:`repro.serve.pool` and
:mod:`repro.serve.coalesce`.
"""

from __future__ import annotations

import heapq
import json
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..utils.io import atomic_write_json

__all__ = ["JobState", "Job", "JobStore", "UnknownJobError"]

#: Loaded terminal-job bodies kept in memory (LRU; stubs stay forever).
BODY_CACHE_SIZE = 128

#: Record fields whose payload justifies lazy loading.
_HEAVY_FIELDS = ("config", "report", "events")


class UnknownJobError(KeyError):
    """No job with that id in this store."""

    def http_reply(self) -> tuple:
        return 404, {"error": f"unknown job {self.args[0]!r}"}, None


class JobState:
    """Lifecycle: submitted → running → succeeded/failed/cancelled."""

    SUBMITTED = "submitted"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ACTIVE = (SUBMITTED, RUNNING)
    TERMINAL = (SUCCEEDED, FAILED, CANCELLED)
    ALL = ACTIVE + TERMINAL


@dataclass
class Job:
    """One submitted run request and everything that happened to it."""

    job_id: str
    config: dict
    content_key: str = ""            # request_key() of (config, workspace)
    priority: int = 0                # higher drains first
    seq: int = 0                     # FIFO tiebreaker within a priority
    state: str = JobState.SUBMITTED
    submitted_s: float = 0.0
    started_s: float = 0.0
    finished_s: float = 0.0
    attempts: int = 0                # claim count (resubmission-aware)
    resubmitted: bool = False        # True after a crash-recovery requeue
    coalesced_with: str = ""         # leader / original job id ("" = none)
    error: str = ""
    report: dict | None = None       # RunReport.to_dict() when succeeded
    events: list = field(default_factory=list)   # progress snapshots
    ledger: dict = field(default_factory=dict)   # queue/lock/exec seconds
    trace: dict = field(default_factory=dict)    # propagated TraceContext

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def summary(self) -> dict:
        """The list-endpoint view: everything but the heavy payloads."""
        out = self.to_dict()
        out["events"] = len(self.events)
        out["has_report"] = self.report is not None
        del out["report"], out["config"]
        return out


class JobStore:
    """Crash-safe job records + the priority/FIFO queue over them."""

    def __init__(self, root: str | Path,
                 body_cache_size: int = BODY_CACHE_SIZE):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}  # active + this-process jobs
        self._stubs: dict[str, Job] = {}      # terminal, body on disk
        self._stub_meta: dict[str, dict] = {}  # has_report / event count
        self._bodies: OrderedDict = OrderedDict()   # loaded-body LRU
        self._body_cache_size = max(1, int(body_cache_size))
        self._queue: list = []           # (-priority, seq, job_id) heap
        self._seq = 0
        self.recovered: list = []        # ids resubmitted by recovery
        self._load()

    # -- persistence -------------------------------------------------------
    def _path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def _events_path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.events.jsonl"

    def _persist(self, job: Job) -> None:
        # Events live in an append-only sidecar (see add_event), so the
        # per-transition record write stays O(record), not O(rounds).
        # The count rides along as a light field so boot can index
        # terminal jobs without reading any sidecar.
        record = job.to_dict()
        del record["events"]
        record["events_count"] = len(job.events)
        atomic_write_json(self._path(job.job_id), record)

    def _load_events(self, job_id: str) -> list:
        path = self._events_path(job_id)
        if not path.exists():
            return []
        events = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    try:
                        events.append(json.loads(line))
                    except json.JSONDecodeError:
                        pass             # torn tail from a crash
        except OSError:
            pass
        return events

    def _count_events(self, job_id: str) -> int:
        path = self._events_path(job_id)
        if not path.exists():
            return 0
        try:
            with open(path, "rb") as fh:
                return sum(1 for _ in fh)
        except OSError:
            return 0

    def _load(self) -> None:
        """Index every record; requeue interrupted and pending work.

        Active (submitted/running) jobs load fully — they drive
        recovery and scheduling. Terminal jobs become light stubs: the
        record JSON is parsed once to learn its light fields, and the
        heavy payload (config, report, events) is dropped immediately,
        to be re-read on demand by :meth:`get`.
        """
        for path in sorted(self.root.glob("*.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
                job = Job.from_dict(record)
            except (OSError, json.JSONDecodeError, TypeError):
                continue                 # torn/foreign file: skip, keep
            self._seq = max(self._seq, job.seq + 1)
            if job.state in JobState.TERMINAL:
                job.config = {}
                job.report = None
                job.events = []
                self._stubs[job.job_id] = job
                events = record.get("events_count")
                if events is None:      # pre-upgrade record: count once
                    events = self._count_events(job.job_id)
                self._stub_meta[job.job_id] = {
                    "has_report": record.get("report") is not None,
                    "events": int(events)}
                continue
            job.events = self._load_events(job.job_id)
            if job.state == JobState.RUNNING:
                # Interrupted mid-flight by a crash: resubmit.
                job.state = JobState.SUBMITTED
                job.started_s = 0.0
                job.resubmitted = True
                self._persist(job)
                self.recovered.append(job.job_id)
            self._jobs[job.job_id] = job
        for job in self._jobs.values():
            if job.state == JobState.SUBMITTED and not job.coalesced_with:
                heapq.heappush(self._queue,
                               (-job.priority, job.seq, job.job_id))

    def _load_body(self, job_id: str, stub: Job) -> Job:
        """Materialize a stub's full record — called WITHOUT the lock.

        Terminal records are immutable on disk (first-writer-wins), so
        the read needs no lock and must not hold one: claim/submit/
        finish share the store lock, and a slow read of an old report
        must never stall the scheduler. Two racing readers simply both
        read; the second insert wins.
        """
        try:
            job = Job.from_dict(json.loads(
                self._path(job_id).read_text(encoding="utf-8")))
            job.events = self._load_events(job_id)
        except (OSError, json.JSONDecodeError, TypeError):
            # Record vanished (gc) or tore after boot: the stub's light
            # fields are still the truth we indexed — degrade to them.
            job = stub
        with self._lock:
            cached = self._bodies.get(job_id)
            if cached is not None:
                self._bodies.move_to_end(job_id)
                return cached
            self._bodies[job_id] = job
            while len(self._bodies) > self._body_cache_size:
                self._bodies.popitem(last=False)
        return job

    # -- submission / lookup ----------------------------------------------
    def submit(self, config: dict, priority: int = 0,
               content_key: str = "", enqueue: bool = True,
               trace: dict | None = None) -> Job:
        """Create (and persist) a new job; queue it unless told not to.

        ``enqueue=False`` leaves the job parked in ``submitted`` without
        a queue slot — the coalescing layer uses this for follower jobs
        that ride another job's execution. ``trace`` is the submitter's
        propagated trace context (``{"trace_id", "span_id"}``); the
        executing worker's root span adopts it.
        """
        with self._lock:
            job = Job(job_id=uuid.uuid4().hex[:12], config=dict(config),
                      content_key=content_key, priority=int(priority),
                      seq=self._seq, submitted_s=time.time(),
                      trace=dict(trace) if trace else {})
            self._seq += 1
            self._jobs[job.job_id] = job
            self._persist(job)
            if enqueue:
                heapq.heappush(self._queue,
                               (-job.priority, job.seq, job.job_id))
                self._cond.notify()
            return job

    def enqueue(self, job_id: str) -> None:
        """Queue a parked ``submitted`` job (e.g. a promoted follower)."""
        with self._lock:
            job = self.get(job_id)
            if job.state != JobState.SUBMITTED:
                raise ValueError(
                    f"cannot enqueue job {job_id} in state {job.state}")
            heapq.heappush(self._queue,
                           (-job.priority, job.seq, job.job_id))
            self._cond.notify()

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            cached = self._bodies.get(job_id)
            if cached is not None:
                self._bodies.move_to_end(job_id)
                return cached
            stub = self._stubs.get(job_id)
            if stub is None:
                raise UnknownJobError(job_id)
        return self._load_body(job_id, stub)     # disk I/O: no lock

    def _peek(self, job_id: str) -> Job:
        """Light view: never touches disk (stub for lazy terminals)."""
        with self._lock:
            job = self._jobs.get(job_id) or self._stubs.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            return job

    def describe(self, job_id: str) -> dict:
        """A consistent JSON view of one job (taken under the lock)."""
        job = self.get(job_id)      # lazy body loads happen un-locked
        with self._lock:
            return job.to_dict()

    def _summary_of(self, job: Job) -> dict:
        meta = self._stub_meta.get(job.job_id)
        if meta is None or job.job_id in self._jobs:
            return job.summary()
        out = job.summary()              # stub: patch the lazy fields
        out["events"] = meta["events"]
        out["has_report"] = meta["has_report"]
        return out

    def jobs(self) -> list:
        """Summaries of every job, submission order (no disk reads)."""
        with self._lock:
            everything = list(self._jobs.values()) \
                + [s for jid, s in self._stubs.items()
                   if jid not in self._jobs]
            return [self._summary_of(job) for job in
                    sorted(everything, key=lambda j: j.seq)]

    def all_jobs(self) -> list:
        """Snapshot of the live Job objects, submission order.

        Lazily-indexed terminal jobs appear as their stubs — every
        scheduling-relevant field is present, but ``config`` / ``report``
        / ``events`` are empty until :meth:`get` loads the body.
        """
        with self._lock:
            everything = list(self._jobs.values()) \
                + [s for jid, s in self._stubs.items()
                   if jid not in self._jobs]
            return sorted(everything, key=lambda j: j.seq)

    def summary(self, job_id: str) -> dict:
        """One job's light view (no config/report payloads)."""
        with self._lock:
            return self._summary_of(self._peek(job_id))

    def boost(self, job_id: str, priority: int) -> bool:
        """Raise a queued job's priority (never lowers it).

        The old heap entry goes stale and is skipped by :meth:`claim`
        (entry priority no longer matches the job's).
        """
        with self._lock:
            job = self._peek(job_id)
            if job.state != JobState.SUBMITTED or job.coalesced_with \
                    or priority <= job.priority:
                return False
            job.priority = int(priority)
            self._persist(job)
            heapq.heappush(self._queue,
                           (-job.priority, job.seq, job.job_id))
            self._cond.notify()
            return True

    def counts(self) -> dict:
        with self._lock:
            out = {state: 0 for state in JobState.ALL}
            queued = 0
            for job_id in set(self._jobs) | set(self._stubs):
                job = self._jobs.get(job_id) or self._stubs[job_id]
                out[job.state] = out.get(job.state, 0) + 1
                # Not len(self._queue): the heap holds stale entries
                # (priority boosts, cancelled-while-queued jobs) that
                # claim() skips — they are not real backlog.
                if job.state == JobState.SUBMITTED \
                        and not job.coalesced_with:
                    queued += 1
            out["queued"] = queued
            return out

    def memory_stats(self) -> dict:
        """What the store holds in memory vs indexes lazily."""
        with self._lock:
            return {"loaded": len(self._jobs),
                    "lazy_terminal": len(self._stubs),
                    "bodies_cached": len(self._bodies),
                    "body_cache_size": self._body_cache_size}

    # -- worker side -------------------------------------------------------
    def claim(self, timeout: float | None = None) -> Job | None:
        """Pop the next runnable job (priority, then FIFO), marking it
        ``running``. Blocks up to ``timeout`` seconds; ``None`` on
        timeout. Entries whose job was cancelled while queued are
        skipped lazily."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                while self._queue:
                    neg_pri, _, job_id = heapq.heappop(self._queue)
                    job = self._jobs.get(job_id)
                    if job is None or job.state != JobState.SUBMITTED \
                            or -neg_pri != job.priority:
                        continue         # cancelled / stale boost entry
                    job.state = JobState.RUNNING
                    job.started_s = time.time()
                    job.attempts += 1
                    self._persist(job)
                    return job
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)

    def add_event(self, job_id: str, snapshot: dict) -> None:
        job = self.get(job_id)      # lazy body loads happen un-locked
        with self._lock:
            job.events.append(dict(snapshot))
            meta = self._stub_meta.get(job_id)
            if meta is not None:
                meta["events"] += 1
            with open(self._events_path(job_id), "a",
                      encoding="utf-8") as fh:
                fh.write(json.dumps(snapshot, sort_keys=True) + "\n")
            # Streaming readers (SSE) block on the store condition.
            self._cond.notify_all()

    def events_since(self, job_id: str, start: int,
                     timeout: float | None = None) -> tuple:
        """Block until the job has events past index ``start`` or is
        terminal; returns ``(new_events, state)``.

        The long-poll primitive behind SSE streaming: each call either
        delivers fresh progress snapshots, reports the terminal state
        (possibly with a final batch of events), or times out with
        ``([], current_state)`` so the caller can heartbeat.
        """
        deadline = None if timeout is None else \
            time.monotonic() + timeout
        self.get(job_id)            # existence check, body warm-up
        with self._lock:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    break            # terminal + demoted: read the body
                if len(job.events) > start or job.terminal:
                    return list(job.events[start:]), job.state
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return [], job.state
                self._cond.wait(remaining)
        job = self.get(job_id)      # lazy body loads happen un-locked
        return list(job.events[start:]), job.state

    def update(self, job: Job) -> None:
        """Persist caller-made mutations to ``job``."""
        with self._lock:
            self._persist(job)
            self._cond.notify_all()

    def finish(self, job_id: str, state: str, report: dict | None = None,
               error: str = "", coalesced_with: str | None = None,
               ledger: dict | None = None) -> Job:
        """Move a job to a terminal state and persist it."""
        if state not in JobState.TERMINAL:
            raise ValueError(f"finish() needs a terminal state, "
                             f"got {state!r}")
        # Warm a lazy body outside the lock so the read-modify-write
        # below is pure dict work (barring an improbable LRU eviction
        # in between, which the reentrant lock handles correctly).
        self.get(job_id)
        with self._lock:
            job = self.get(job_id)
            if job.terminal:
                # First writer wins: a cancel racing the leader's
                # resolution (or vice versa) must not overwrite an
                # already-persisted outcome.
                return job
            job.state = state
            job.finished_s = time.time()
            if report is not None:
                job.report = report
            if error:
                job.error = error
            if coalesced_with is not None:
                job.coalesced_with = coalesced_with
            if ledger:
                job.ledger = dict(job.ledger, **ledger)
            self._persist(job)
            self._demote(job)
            self._cond.notify_all()
            return job

    def _demote(self, job: Job) -> None:
        """Swap a just-finished job for a light stub + cached body.

        Without this, a long-lived process would still pin every
        config/report/event history of the jobs *it* completed — the
        exact leak the lazy boot index exists to prevent. The full
        record goes into the bounded body LRU (so the submitter's
        immediate ``get`` is free) and can always be re-read from the
        file just persisted.
        """
        record = {k: v for k, v in job.to_dict().items()
                  if k not in _HEAVY_FIELDS}
        stub = Job.from_dict({**record, "config": {}})
        self._stubs[job.job_id] = stub
        self._stub_meta[job.job_id] = {
            "has_report": job.report is not None,
            "events": len(job.events)}
        self._bodies[job.job_id] = job
        self._bodies.move_to_end(job.job_id)
        while len(self._bodies) > self._body_cache_size:
            self._bodies.popitem(last=False)
        self._jobs.pop(job.job_id, None)

    def cancel_queued(self, job_id: str) -> bool:
        """Cancel a job that has not started; False if it already did."""
        with self._lock:
            job = self._peek(job_id)
            if job.state != JobState.SUBMITTED:
                return False
            self.finish(job_id, JobState.CANCELLED)
            return True

    # -- waiting -----------------------------------------------------------
    def wait_for(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until ``job_id`` reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        self.get(job_id)            # lazy body loads happen un-locked
        with self._lock:
            while True:
                job = self.get(job_id)
                if job.terminal:
                    return job
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {job.state} after "
                        f"{timeout:.1f}s")
                self._cond.wait(remaining)

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no job is submitted/running (a graceful drain)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                if not any(j.state in JobState.ACTIVE
                           for j in self._jobs.values()):
                    return True
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
