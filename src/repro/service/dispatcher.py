"""The dispatcher: grid points sharded across a deduplicating worker pool.

This is the service's worker tier.  Every submitted job is expanded into
its grid points; each point becomes one task in a single service-wide
priority queue ordered longest-processing-time-first (the
:func:`~repro.runner.execution_cost` ranking the
:class:`~repro.runner.GridRunner` already uses), so an expensive TM
point never executes alone after the cheap points drain — across jobs,
not just within one.

Worker threads drain the queue.  Each point resolves through the shared
content-addressed :class:`~repro.runner.ResultCache` by the same
engine a direct :class:`~repro.runner.GridRunner` uses
(:func:`~repro.runner.resolve_point`): a **hit** is served as-is; a
won **claim** executes the point (inline or on a shared warm process
pool), publishes atomically and releases; otherwise the worker
**waits** for whoever holds the claim — another worker, job, service
process, or direct runner.  The dispatcher itself keeps only the
queue, the job store, and the lifecycle; its abort predicate turns
service stop, job cancellation and the job's timeout into engine
aborts.

Because simulations are deterministic and cache keys hash the full point
payload plus the code fingerprint, two clients submitting the same grid
concurrently cost one simulation, and a job's merged result is
byte-identical to a direct :class:`~repro.runner.GridRunner` run of the
same grid.

Per-job retry budgets, a wall-clock timeout, and cancellation all act at
point boundaries: in-flight points finish (their results stay useful in
the shared cache), pending points are dropped, and the job finalises
with the appropriate terminal status.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.obs.metrics import MetricsRegistry
from repro.runner import (
    DEFAULT_CLAIM_TTL,
    FailureRecord,
    GridPoint,
    ResultCache,
    canonical_json,
    default_jobs,
    execution_cost,
    load_failure_records,
    resolve_point,
)
from repro.runner import grid as grid_module
from repro.service.spec import JobSpec, parse_job_spec
from repro.service.store import JobStore

#: Executor kinds: ``thread`` runs points inline on the worker thread
#: (simple, test-friendly); ``process`` fans them out over a shared
#: warm ProcessPoolExecutor (true parallelism for production serving).
EXECUTOR_KINDS = ("thread", "process")

#: Queue poll granularity: how often idle workers re-check for stop.
_QUEUE_POLL_SECONDS = 0.1


@dataclass
class _Task:
    """One grid point of one job, as a unit of dispatch."""

    job_id: str
    point: GridPoint
    payload: Dict[str, Any]
    cache_key: str
    enqueued_at: float


class _JobRun:
    """In-memory execution state of one job (the store persists;
    this coordinates the worker threads)."""

    __slots__ = (
        "job_id", "seq", "spec", "cache_keys", "deadline", "cancel",
        "timed_out", "started", "remaining", "failed_keys", "lock",
    )

    def __init__(
        self,
        job_id: str,
        seq: int,
        spec: JobSpec,
        cache_keys: Dict[str, str],
    ) -> None:
        self.job_id = job_id
        self.seq = seq
        self.spec = spec
        self.cache_keys = cache_keys
        self.deadline: Optional[float] = (
            time.monotonic() + spec.timeout_seconds
            if spec.timeout_seconds is not None
            else None
        )
        self.cancel = threading.Event()
        self.timed_out = False
        self.started = False
        self.remaining = len(spec.points)
        self.failed_keys: List[str] = []
        self.lock = threading.Lock()

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


class Dispatcher:
    """Shards grid points across worker threads with shared-cache dedupe.

    Parameters
    ----------
    store:
        The :class:`~repro.service.store.JobStore` recording lifecycle,
        per-point progress, and events.
    cache:
        The shared :class:`~repro.runner.ResultCache` every worker (and
        any concurrent external runner) routes results through.
    workers:
        Worker threads.  ``None`` auto-detects via the affinity-aware
        :func:`~repro.runner.default_jobs`.
    executor:
        ``thread`` executes points inline; ``process`` executes them on
        a shared warm process pool of the same width.
    """

    def __init__(
        self,
        store: JobStore,
        cache: ResultCache,
        workers: Optional[int] = None,
        executor: str = "thread",
        metrics: Optional[MetricsRegistry] = None,
        poll_interval: float = 0.05,
        claim_ttl: float = DEFAULT_CLAIM_TTL,
    ) -> None:
        if executor not in EXECUTOR_KINDS:
            raise ServiceError(
                f"unknown executor {executor!r} "
                f"(kinds: {', '.join(EXECUTOR_KINDS)})"
            )
        if workers is not None and workers < 1:
            raise ServiceError("workers must be >= 1")
        if poll_interval <= 0:
            raise ServiceError("poll_interval must be > 0")
        self.store = store
        self.cache = cache
        self.workers = default_jobs() if workers is None else workers
        self.executor = executor
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.poll_interval = poll_interval
        self.claim_ttl = claim_ttl
        self._queue: "queue.PriorityQueue[Tuple[Tuple[float, int, str], int, _Task]]" = (
            queue.PriorityQueue()
        )
        self._tiebreak = itertools.count()
        self._runs: Dict[str, _JobRun] = {}
        self._runs_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spin up the worker pool and recover unfinished jobs."""
        if self._started:
            return
        self._started = True
        self._stop.clear()
        if self.executor == "process":
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=grid_module._warm_worker,
            )
            # Fork the workers before any worker thread exists (see
            # GridRunner: a fork taken while threads run is unsafe).
            self._pool.submit(int).result()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        for record in self.store.unfinished_jobs():
            self._enqueue_run(record.job_id, record.seq, record.spec,
                              requeued=True)

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful teardown: workers finish their in-flight point and
        exit; queued points stay in the store for the next start."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        self._started = False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Persist and enqueue one job; returns its id."""
        cache_keys = {
            point.key: self.cache.key_for(point.payload())
            for point in spec.points
        }
        job_id = self.store.create_job(spec, cache_keys)
        record = self.store.job(job_id)
        self.metrics.counter("service.jobs_accepted").inc()
        self.metrics.counter("service.points_total").inc(len(spec.points))
        self._enqueue_run(job_id, record.seq, spec)
        return job_id

    def cancel(self, job_id: str) -> str:
        """Request cancellation; in-flight points finish gracefully."""
        status = self.store.request_cancel(job_id)
        with self._runs_lock:
            run = self._runs.get(job_id)
        if run is not None:
            run.cancel.set()
        return status

    def _enqueue_run(
        self,
        job_id: str,
        seq: int,
        spec: JobSpec,
        requeued: bool = False,
    ) -> None:
        cache_keys = {
            point.key: self.cache.key_for(point.payload())
            for point in spec.points
        }
        run = _JobRun(job_id, seq, spec, cache_keys)
        if self.store.cancel_requested(job_id):
            run.cancel.set()
        with self._runs_lock:
            self._runs[job_id] = run
        if requeued:
            self.store.append_event(job_id, "job.requeued")
        now = time.monotonic()
        for point in spec.points:
            task = _Task(
                job_id=job_id,
                point=point,
                payload=point.payload(),
                cache_key=cache_keys[point.key],
                enqueued_at=now,
            )
            # Longest-processing-time-first across *all* jobs; job seq
            # then key break ties deterministically.
            priority = (-execution_cost(point), seq, point.key)
            self._queue.put((priority, next(self._tiebreak), task))
        self.metrics.histogram("service.queue_depth").observe(
            self._queue.qsize()
        )

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                _, _, task = self._queue.get(timeout=_QUEUE_POLL_SECONDS)
            except queue.Empty:
                continue
            try:
                self._process(task)
            except Exception:  # noqa: BLE001 - a worker must never die
                self.metrics.counter("service.worker_errors").inc()
                try:
                    self.store.append_event(
                        task.job_id, "point.internal_error",
                        key=task.point.key,
                        error=traceback.format_exc(limit=3),
                    )
                except Exception:  # noqa: BLE001 - store may be closing
                    pass
            finally:
                self._queue.task_done()

    def _process(self, task: _Task) -> None:
        with self._runs_lock:
            run = self._runs.get(task.job_id)
        if run is None:
            return  # job vanished (stop/cancel raced recovery)
        self._mark_started(run)
        self.metrics.histogram("service.dispatch_latency_ms").observe(
            int((time.monotonic() - task.enqueued_at) * 1000)
        )
        resolution = resolve_point(
            task.point.key,
            task.payload,
            grid_module.point_executor(self._pool),
            cache=self.cache,
            cache_key=task.cache_key,
            retries=run.spec.retries,
            abort=lambda: self._abort_reason(run),
            on_failure=lambda record: self._attempt_failed(run, record),
            poll_interval=self.poll_interval,
            claim_ttl=self.claim_ttl,
        )
        if resolution.aborted == "stopped":
            # Graceful teardown: leave the point pending; the job is
            # non-terminal in the store, so the next start re-enqueues
            # it and the shared cache makes the repeat cheap.
            self.store.update_point(run.job_id, task.point.key, "pending")
            return
        if resolution.status == "done":
            self.metrics.counter(
                f"service.points_{resolution.outcome}"
            ).inc()
        self._finish_point(
            run, task,
            "cancelled" if resolution.aborted else resolution.status,
            outcome=resolution.outcome,
            error=(
                "wall-clock timeout" if resolution.aborted == "timeout"
                else resolution.error
            ),
            attempts=resolution.attempts or None,
        )

    def _abort_reason(self, run: _JobRun) -> str:
        """Why a job's point must stop resolving, or ``""``: the
        service is stopping, the job was cancelled, or it timed out."""
        if self._stop.is_set():
            return "stopped"
        if run.cancel.is_set():
            return "cancelled"
        if run.expired():
            run.timed_out = True
            return "timeout"
        return ""

    def _attempt_failed(self, run: _JobRun, record: FailureRecord) -> None:
        self.store.append_event(
            run.job_id, "point.attempt_failed",
            key=record.key, attempt=record.attempt, error=record.error,
        )
        if record.attempt <= run.spec.retries:
            self.metrics.counter("service.point_retries").inc()

    def _mark_started(self, run: _JobRun) -> None:
        with run.lock:
            if run.started:
                return
            run.started = True
        record = self.store.job(run.job_id)
        if record.status == "queued":
            self.store.set_job_status(run.job_id, "running")
            self.store.append_event(run.job_id, "job.started")

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _finish_point(
        self,
        run: _JobRun,
        task: _Task,
        status: str,
        outcome: str = "",
        error: str = "",
        attempts: Optional[int] = None,
    ) -> None:
        if status == "failed":
            self.metrics.counter("service.points_failed").inc()
            with run.lock:
                run.failed_keys.append(task.point.key)
        elif status == "cancelled":
            self.metrics.counter("service.points_cancelled").inc()
        self.store.update_point(
            run.job_id, task.point.key, status, outcome=outcome,
            attempts=attempts, error=error,
        )
        event = {
            "done": "point.done",
            "failed": "point.failed",
            "cancelled": "point.cancelled",
        }[status]
        fields: Dict[str, Any] = {"key": task.point.key}
        if outcome:
            fields["outcome"] = outcome
        if error:
            fields["error"] = error
        self.store.append_event(run.job_id, event, **fields)
        with run.lock:
            run.remaining -= 1
            last = run.remaining == 0
        if last:
            self._finalize(run)

    def _finalize(self, run: _JobRun) -> None:
        job_id = run.job_id
        with self._runs_lock:
            self._runs.pop(job_id, None)
        if run.timed_out:
            self.store.set_job_status(
                job_id, "failed",
                error=f"wall-clock timeout "
                      f"({run.spec.timeout_seconds:g}s) exceeded",
            )
            self.store.append_event(job_id, "job.failed", reason="timeout")
            self.metrics.counter("service.jobs_failed").inc()
            return
        if run.cancel.is_set():
            self.store.set_job_status(job_id, "cancelled")
            self.store.append_event(job_id, "job.cancelled")
            self.metrics.counter("service.jobs_cancelled").inc()
            return
        if run.failed_keys and not run.spec.allow_failures:
            self.store.set_job_status(
                job_id, "failed",
                error=f"{len(run.failed_keys)} grid point(s) failed after "
                      f"{run.spec.retries + 1} attempt(s): "
                      + ", ".join(sorted(run.failed_keys)),
            )
            self.store.append_event(
                job_id, "job.failed",
                reason="points_failed", failed=len(run.failed_keys),
            )
            self.metrics.counter("service.jobs_failed").inc()
            return
        result_json = self._assemble_result(run)
        if result_json is None:
            return  # _assemble_result already failed the job
        self.store.set_job_status(job_id, "done", result_json=result_json)
        self.store.append_event(
            job_id, "job.done", points=len(run.spec.points),
        )
        self.metrics.counter("service.jobs_done").inc()

    def _assemble_result(self, run: _JobRun) -> Optional[str]:
        """The job's merged result, byte-identical to a direct
        ``GridRunner`` run: canonical JSON of ``{point key: result}`` in
        sorted key order (``allow_failures`` jobs omit failed points,
        exactly as :meth:`~repro.runner.GridResult.to_json` would)."""
        failed = set(run.failed_keys)
        results: Dict[str, Dict[str, Any]] = {}
        for point in sorted(run.spec.points, key=lambda p: p.key):
            if point.key in failed:
                continue
            value = self.cache.get(run.cache_keys[point.key])
            if value is None:
                # Should be unreachable: every done point published an
                # entry.  Treat as an internal fault, not a silent hole.
                self.store.set_job_status(
                    run.job_id, "failed",
                    error=f"result of point {point.key!r} is missing "
                          f"from the shared cache",
                )
                self.store.append_event(
                    run.job_id, "job.failed", reason="cache_miss",
                    key=point.key,
                )
                self.metrics.counter("service.jobs_failed").inc()
                return None
            results[point.key] = value
        return canonical_json(results)


class JobService:
    """The service facade: store + shared cache + dispatcher + metrics.

    This is what both the HTTP front end and in-process callers (tests,
    the CLI's ``serve`` command) drive::

        service = JobService(store_dir="service-store")
        service.start()
        job_id = service.submit({"points": [...]})
        service.wait(job_id)
        body = service.result_bytes(job_id)
        service.stop()
    """

    def __init__(
        self,
        store_dir: "str | Any",
        cache_dir: "Optional[str | Any]" = None,
        workers: Optional[int] = None,
        executor: str = "thread",
        poll_interval: float = 0.05,
        claim_ttl: float = DEFAULT_CLAIM_TTL,
    ) -> None:
        self.store = JobStore(store_dir)
        self.metrics = MetricsRegistry()
        if cache_dir is None:
            cache_dir = self.store.directory / "cache"
        # The cache's own hygiene/dedupe counters land in the same
        # registry, so GET /metrics shows cache.* next to service.*.
        self.cache = ResultCache(cache_dir, metrics=self.metrics)
        self.dispatcher = Dispatcher(
            self.store,
            self.cache,
            workers=workers,
            executor=executor,
            metrics=self.metrics,
            poll_interval=poll_interval,
            claim_ttl=claim_ttl,
        )

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        self.dispatcher.start()

    def stop(self) -> None:
        self.dispatcher.stop()
        self.store.close()

    # -- operations -----------------------------------------------------

    def submit(self, data: Any) -> Dict[str, Any]:
        """Validate and enqueue a job spec; returns the job view."""
        spec = parse_job_spec(data)
        job_id = self.dispatcher.submit(spec)
        return self.job_view(job_id)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        self.dispatcher.cancel(job_id)
        return self.job_view(job_id)

    def job_view(self, job_id: str) -> Dict[str, Any]:
        """The status document ``GET /jobs/{id}`` serves."""
        record = self.store.job(job_id)
        points = self.store.points(job_id)
        warnings_seen: List[str] = []
        failure_log = load_failure_records(
            self.cache.directory, warn=warnings_seen.append
        )
        point_keys = {point.key for point in points}
        return {
            "job_id": record.job_id,
            "label": record.label,
            "status": record.status,
            "error": record.error,
            "cancel_requested": record.cancel_requested,
            "progress": self.store.progress(job_id),
            "points": [
                {
                    "key": point.key,
                    "status": point.status,
                    "outcome": point.outcome,
                    "attempts": point.attempts,
                    "error": point.error,
                }
                for point in points
            ],
            "failure_log": [
                {
                    "key": record_.key,
                    "attempt": record_.attempt,
                    "error": record_.error,
                }
                for record_ in failure_log
                if record_.key in point_keys
            ],
            "failure_log_warnings": warnings_seen,
        }

    def jobs_view(self) -> List[Dict[str, Any]]:
        """The listing ``GET /jobs`` serves."""
        views = []
        for record in self.store.jobs():
            progress = self.store.progress(record.job_id)
            views.append(
                {
                    "job_id": record.job_id,
                    "label": record.label,
                    "status": record.status,
                    "points_total": progress["total"],
                    "points_done": progress["done"],
                    "spec_hash": record.spec.spec_hash(),
                }
            )
        return views

    def result_bytes(self, job_id: str) -> bytes:
        """The merged result, byte-exact (``GET /jobs/{id}/result``)."""
        return self.store.result_json(job_id).encode("utf-8")

    def events_lines(self, job_id: str, since: int = 0) -> List[str]:
        return self.store.events_after(job_id, since)

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.metrics.snapshot()

    def wait(
        self,
        job_id: str,
        poll_interval: float = 0.05,
        timeout: Optional[float] = None,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> str:
        """Block until a job reaches a terminal state; returns it.

        ``on_event`` receives each new event JSON line as it lands
        (in-process progress streaming; the HTTP client has its own).
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        seen = 0
        while True:
            if on_event is not None:
                for line in self.store.events_after(job_id, seen):
                    seen += 1
                    on_event(line)
            status = self.store.job(job_id).status
            if status in ("done", "failed", "cancelled"):
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out waiting for job {job_id} "
                    f"(still {status} after {timeout:g}s)"
                )
            time.sleep(poll_interval)
