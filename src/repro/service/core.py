"""The coverage service: admission, dedup, dispatch, and the result cache.

:class:`CoverageService` is the one front door for executing coverage jobs.
Every entry point -- ``repro run``, the experiment pipeline, the HTTP
daemon -- builds :class:`~repro.service.jobs.JobRequest`\\ s and submits
them here; nothing else in the repository calls
:func:`~repro.baselines.harness.run_tool` on a benchmark case anymore.

What one submission goes through, in order:

1. **Key building** -- the request plus its (possibly derived) budget
   becomes a :class:`~repro.store.JobKey`; its fingerprint is the job's
   identity everywhere below.
2. **In-flight coalescing** -- if a job with the same fingerprint is
   queued or running, the submission attaches to it: N concurrent
   identical submissions cost exactly one execution and one store write.
3. **Result cache** -- the shared :class:`~repro.store.RunStore` is
   consulted (unless ``resume=False``); a hit completes the job instantly
   with zero executions, whether the record was written seconds or weeks
   ago, by this process or another.
4. **Admission** -- the job enters the bounded queue (non-blocking
   submitters get :class:`~repro.service.queue.QueueFull`; the daemon maps
   that to HTTP 429) and is routed to a shard by fingerprint hash.
5. **Execution** -- the shard's warm worker runs the job (inline, thread,
   or via a persistent process pool), the *coordinating* process writes
   the store record (single-writer per service; the store's fcntl lock
   covers other OS processes), and all waiters observe the same outcome.

Because jobs are seeded and deterministic, none of this machinery can
change stored bytes: the bit-identity tests submit the same plan through
the pipeline, the service, and the daemon under shard counts {1, 2, 4}
and diff ``runs.jsonl`` records byte-for-byte.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.baselines.harness import Budget
from repro.core.report import ToolRunSummary
from repro.service.jobs import (
    JobRequest,
    build_job_key,
    derive_budget,
    execute_job,
    execute_job_remote,
    instrument_for_lookup,
)
from repro.service.queue import AdmissionQueue, QueueFull  # noqa: F401  (re-exported)
from repro.service.shards import ShardRouter
from repro.service.workers import WorkerPool
from repro.store import JobKey, RunStore, summary_from_dict

#: Job lifecycle states (also the wire values of the daemon's job objects).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

WORKER_MODES = ("inline", "thread", "process")


class ServiceClosed(RuntimeError):
    """Raised when submitting to (or waiting on) a closed service."""


@dataclass
class JobOutcome:
    """The resolved result of one job, as seen by a waiter."""

    fingerprint: str
    key: JobKey
    payload: dict
    cached: bool
    warnings: list[str] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    @property
    def summary(self) -> ToolRunSummary:
        return summary_from_dict(self.payload["summary"])

    @property
    def evaluations(self) -> Optional[int]:
        return self.payload.get("tool_evaluations")


class ServiceJob:
    """One admitted job: shared state between submitters, workers, waiters.

    All mutation goes through the instance lock; ``_done`` flips exactly
    once (to ``done`` or ``failed``).  Multiple submitters coalescing onto
    one ServiceJob all wait on the same event and read the same outcome.
    """

    def __init__(self, request: JobRequest, key: JobKey, budget: Budget, shard: int):
        self.request = request
        self.key = key
        self.budget = budget
        self.fingerprint = key.fingerprint()
        self.shard = shard
        self.state = QUEUED
        self.cached = False
        self.payload: Optional[dict] = None
        self.error: Optional[BaseException] = None
        self.warnings: list[str] = []
        self.waiters = 1
        self.worker_id: Optional[int] = None
        self.created_at = time.time()
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._done = threading.Event()

    # -- event log ---------------------------------------------------------

    def add_event(self, event: str, **data) -> None:
        with self._lock:
            self._events.append({"event": event, "t": time.time(), **data})

    def add_progress(self, data: dict) -> None:
        """Fold one engine batch-progress dict into the event log."""
        payload = {k: v for k, v in data.items() if k != "event"}
        self.add_event("progress", **payload)

    def events_snapshot(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    # -- lifecycle (called by the service only) ----------------------------

    def mark_running(self, worker_id: Optional[int]) -> None:
        with self._lock:
            self.state = RUNNING
            self.worker_id = worker_id
            self._events.append({"event": "running", "t": time.time(), "worker": worker_id})

    def complete(self, payload: dict, cached: bool = False) -> None:
        with self._lock:
            self.state = DONE
            self.payload = payload
            self.cached = cached
            self._events.append({"event": "done", "t": time.time(), "cached": cached})
        self._done.set()

    def fail(self, error: BaseException) -> None:
        with self._lock:
            self.state = FAILED
            self.error = error
            self._events.append({"event": "failed", "t": time.time(), "error": repr(error)})
        self._done.set()

    # -- waiter API --------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def outcome(self) -> JobOutcome:
        if not self._done.is_set():
            raise RuntimeError("job has not finished")
        if self.error is not None:
            raise self.error
        return JobOutcome(
            fingerprint=self.fingerprint,
            key=self.key,
            payload=self.payload,
            cached=self.cached,
            warnings=list(self.warnings),
            events=self.events_snapshot(),
        )

    def snapshot(self) -> dict:
        """A JSON-safe view of the job (the daemon's job object)."""
        with self._lock:
            snap = {
                "job": self.fingerprint,
                "id": self.request.id,
                "case": self.request.case.key,
                "tool": self.request.tool,
                "profile": self.request.profile.name,
                "state": self.state,
                "cached": self.cached,
                "shard": self.shard,
                "waiters": self.waiters,
                "warnings": list(self.warnings),
                "error": repr(self.error) if self.error is not None else None,
            }
            if self.state == DONE:
                snap["payload"] = self.payload
                snap["evaluations"] = self.payload.get("tool_evaluations")
            return snap


class CoverageService:
    """Admission + dedup + sharded dispatch over a shared result cache.

    Args:
        store: The shared result cache -- a :class:`RunStore`, a path to
            open one at, or ``None`` for an ephemeral in-memory store.
            Store-like objects (anything with ``get_satisfying``/``put``)
            are accepted and used as-is.
        worker_mode: ``"inline"`` executes submissions synchronously on
            the submitting thread (no queue, no worker threads -- what
            serial pipelines use), ``"thread"`` runs a warm dispatcher
            pool in-process, ``"process"`` keeps the dispatchers but
            forwards execution to a persistent process pool (warm caches
            in each worker process; requests must be picklable).
        n_workers: Worker count for thread/process modes.
        n_shards: Shard count for the router; defaults to ``n_workers``.
            Results are bit-identical for every value (property-tested).
        queue_limit: Bound on pending admissions; ``None`` is unbounded.
        resume: Default result-cache policy for submissions.
        distributed: An optional
            :class:`~repro.distributed.coordinator.LeaseCoordinator` (or
            anything with its ``pool_factory``/``stats`` surface).  When
            set, CoverMe jobs run on a distributed :class:`LeasePool` --
            each engine batch becomes a lease that registered shard
            workers can execute -- instead of a local start pool.
            Incompatible with ``worker_mode="process"``: leases are
            issued by the coordinator living in *this* process, and a
            pool factory cannot cross the pickle boundary.
    """

    def __init__(
        self,
        store: Union[RunStore, Path, str, None] = None,
        worker_mode: str = "inline",
        n_workers: int = 1,
        n_shards: Optional[int] = None,
        queue_limit: Optional[int] = 256,
        resume: bool = True,
        distributed=None,
    ):
        if worker_mode not in WORKER_MODES:
            known = ", ".join(WORKER_MODES)
            raise ValueError(f"unknown service worker mode {worker_mode!r}; known: {known}")
        if distributed is not None and worker_mode == "process":
            raise ValueError(
                "distributed coordination requires inline or thread worker mode "
                "(the lease coordinator cannot cross the process-pool boundary)"
            )
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if isinstance(store, (str, Path)):
            self.store = RunStore(store)
            self._owns_store = True
        elif store is None:
            self.store = RunStore(None)
            self._owns_store = True
        else:
            self.store = store
            self._owns_store = False
        self.mode = worker_mode
        self.resume = resume
        self.distributed = distributed
        self._unjoined: list[str] = []
        self.n_workers = 1 if worker_mode == "inline" else n_workers
        self.n_shards = n_shards if n_shards is not None else self.n_workers
        self.router = ShardRouter(self.n_shards)
        self._jobs: dict[str, ServiceJob] = {}
        self._lock = threading.Lock()
        # Counters get their own lock: workers bump them from _handle, and
        # taking the registry lock there could deadlock against a submitter
        # blocked in queue.put while holding it (the worker would never get
        # back to take(), so the queue would never drain).
        self._stats_lock = threading.Lock()
        self._closed = False
        self._counters = {
            "submitted": 0,
            "executed": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "failed": 0,
            "rejected": 0,
        }
        self._registry_limit = 4096
        self._executor = None
        self._executor_lock = threading.Lock()
        # Running a job installs runtimes into its program's handle, so
        # concurrent jobs of one case must not share an instance: each
        # thread worker keeps its own clone per case (index = worker id).
        self._worker_programs = (
            [{} for _ in range(self.n_workers)] if worker_mode == "thread" else None
        )
        if worker_mode == "inline":
            self.queue = None
            self.pool = None
        else:
            self.queue = AdmissionQueue(self.n_shards, limit=queue_limit)
            self.pool = WorkerPool(self.queue, self._handle, self.n_workers, self.n_shards)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        request: JobRequest,
        budget: Optional[Budget] = None,
        resume: Optional[bool] = None,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> ServiceJob:
        """Admit one job; returns immediately with a :class:`ServiceJob`.

        The returned job may already be finished (result-cache hit), may be
        an existing in-flight job (coalesced duplicate), or is queued for a
        worker.  ``block=False`` raises :class:`QueueFull` instead of
        waiting when the admission queue is at capacity.
        """
        resume = self.resume if resume is None else resume
        if budget is None:
            budget = derive_budget(request, self.store, resume=resume)
        key = build_job_key(request, budget)
        fingerprint = key.fingerprint()
        with self._lock:
            if self._closed:
                raise ServiceClosed("coverage service is closed")
            existing = self._jobs.get(fingerprint)
            if existing is not None and existing.state in (QUEUED, RUNNING):
                existing.waiters += 1
                with self._stats_lock:
                    self._counters["coalesced"] += 1
                existing.add_event("coalesced", waiters=existing.waiters)
                return existing
            job = ServiceJob(request, key, budget, shard=self.router.shard_of(fingerprint))
            if resume:
                payload = self.store.get_satisfying(key)
                if payload is not None:
                    self._register(job)
                    with self._stats_lock:
                        self._counters["cache_hits"] += 1
                    job.add_event("cache-hit")
                    job.complete(payload, cached=True)
                    return job
            job.add_event("queued", shard=job.shard)
            self._register(job)
            with self._stats_lock:
                self._counters["submitted"] += 1
            if self.queue is not None:
                # Admission happens under the service lock; queue capacity
                # frees via worker take(), which never needs this lock, so
                # a blocked submitter cannot deadlock the service.
                try:
                    self.queue.put(job, job.shard, block=block, timeout=timeout)
                except QueueFull:
                    self._jobs.pop(fingerprint, None)
                    with self._stats_lock:
                        self._counters["submitted"] -= 1
                        self._counters["rejected"] += 1
                    raise
        if self.queue is None:
            self._handle(job, worker_id=None)
        return job

    def wait(self, job: Union[ServiceJob, str], timeout: Optional[float] = None) -> JobOutcome:
        """Block until ``job`` (or the job with that fingerprint) resolves.

        Re-raises the job's execution error on failure; raises
        :class:`TimeoutError` if it does not resolve in time.
        """
        if isinstance(job, str):
            found = self.job(job)
            if found is None:
                raise KeyError(f"unknown job fingerprint {job!r}")
            job = found
        if not job.wait(timeout):
            raise TimeoutError(f"job {job.request.id} did not finish within {timeout}s")
        return job.outcome()

    def run(self, request: JobRequest, budget: Optional[Budget] = None,
            resume: Optional[bool] = None, timeout: Optional[float] = None) -> JobOutcome:
        """Submit and wait: the synchronous convenience used by the pipeline."""
        return self.wait(self.submit(request, budget=budget, resume=resume), timeout=timeout)

    def job(self, fingerprint: str) -> Optional[ServiceJob]:
        with self._lock:
            return self._jobs.get(fingerprint)

    # -- execution (worker side) -------------------------------------------

    def _handle(self, job: ServiceJob, worker_id: Optional[int]) -> None:
        """Execute one job and resolve every waiter.  Never raises."""
        job.mark_running(worker_id)
        try:
            if self.mode == "process":
                payload, warning_list = self._execute_remote(job)
            else:
                pool_factory = None
                if self.distributed is not None and job.request.tool == "CoverMe":
                    pool_factory = self.distributed.pool_factory(case_key=job.request.case.key)
                program = None
                if self._worker_programs is not None:
                    programs = self._worker_programs[worker_id]
                    case = job.request.case
                    program = programs.get(case)
                    if program is None:
                        program = programs[case] = instrument_for_lookup(case).clone()
                executed = execute_job(
                    job.request, job.budget, progress=job.add_progress,
                    pool_factory=pool_factory, program=program,
                )
                payload, warning_list = executed.payload, executed.warnings
            job.warnings.extend(warning_list)
            for message in warning_list:
                job.add_event("warning", message=message)
            # The coordinating process is the store's single writer for
            # this service: workers hand payloads back, keeping the store's
            # in-memory index coherent (the fcntl lock protects against
            # *other* processes sharing the file).
            self.store.put(job.key, payload)
            with self._stats_lock:
                self._counters["executed"] += 1
            job.complete(payload)
        except BaseException as exc:  # noqa: BLE001 - resolved via job.fail
            with self._stats_lock:
                self._counters["failed"] += 1
            job.fail(exc)

    def _execute_remote(self, job: ServiceJob) -> tuple[dict, list[str]]:
        executor = self._ensure_executor()
        future = executor.submit(execute_job_remote, job.request, job.budget)
        return future.result()

    def _ensure_executor(self):
        with self._executor_lock:
            if self._executor is None:
                from concurrent.futures import ProcessPoolExecutor

                from repro.engine.pool import process_context

                self._executor = ProcessPoolExecutor(
                    max_workers=self.n_workers, mp_context=process_context()
                )
            return self._executor

    # -- registry ----------------------------------------------------------

    def _register(self, job: ServiceJob) -> None:
        """Index a job by fingerprint (caller holds the service lock).

        The registry is bounded: once past the limit, the oldest *finished*
        jobs are evicted (their records live on in the store); in-flight
        jobs are never evicted.
        """
        self._jobs[job.fingerprint] = job
        if len(self._jobs) > self._registry_limit:
            for fp, old in list(self._jobs.items()):
                if len(self._jobs) <= self._registry_limit:
                    break
                if old.finished:
                    del self._jobs[fp]

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Counters and queue state (the daemon's /stats body)."""
        with self._stats_lock:
            counters = dict(self._counters)
        with self._lock:
            in_flight = sum(1 for j in self._jobs.values() if j.state in (QUEUED, RUNNING))
        body = {
            "mode": self.mode,
            "workers": self.n_workers,
            "shards": self.n_shards,
            "counters": counters,
            "in_flight": in_flight,
            "unjoined_workers": list(self._unjoined),
            "queue_depths": self.queue.depths() if self.queue is not None else [],
            "queue_limit": self.queue.limit if self.queue is not None else None,
            "store": {
                "persistent": getattr(self.store, "persistent", False),
                "records": len(self.store),
            },
        }
        if self.distributed is not None:
            body["distributed"] = self.distributed.stats()
        return body

    # -- lifecycle ---------------------------------------------------------

    def close(self, close_store: Optional[bool] = None) -> None:
        """Stop accepting work, retire workers, fail any drained backlog."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self.queue is not None:
            for job in self.queue.close():
                job.fail(ServiceClosed("service closed before the job ran"))
            # Workers that outlive the shared join deadline are recorded,
            # not abandoned silently: stats() keeps reporting them so a
            # wedged shard stays visible after close().
            self._unjoined = self.pool.join()
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
        if close_store is None:
            close_store = self._owns_store
        if close_store:
            self.store.close()

    def __enter__(self) -> "CoverageService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
