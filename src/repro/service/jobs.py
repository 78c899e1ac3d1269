"""Job scheduling: supervised worker processes executing scenario runs.

:class:`JobService` owns a :class:`~repro.service.store.RunStore` and a
bounded pending set of run ids.  Submissions register the scenario in
the store (idempotent by content digest) and enqueue it; a dispatcher
thread hands runs to a :class:`repro.supervise.WorkerPool` of child
*processes* (a hung or crashed run cannot wedge the daemon), each
executing through :meth:`RunStore.execute` -- i.e. the supervised sharded
scheduler with block checkpoints, so a run killed mid-flight resumes
where it left off.

Robustness semantics (the service's policy over the pool's events):

* **worker death** (SIGKILL, OOM, crash): the pool respawns the worker;
  the orphaned run is requeued immediately (its shard checkpoints make
  the retry a cheap resume);
* **run deadline** (``run_timeout``): the pool terminate-then-kills a
  worker past its run's wall-clock budget; the run is requeued with
  backoff;
* **heartbeat stall**: busy workers beat every ``heartbeat_interval``; a
  worker whose beats go stale is presumed wedged, killed, and its run
  requeued;
* **bounded seeded retry**: each run gets at most ``retry.max_attempts``
  dispatches; transient failures back off deterministically
  (:class:`~repro.experiments.retry.RetryPolicy`), :class:`ReproError`
  failures are permanent and never retried;
* **quarantine**: a run that exhausts its budget flips to
  ``quarantined`` -- parked in the FAILURES view, never auto-retried;
* **degraded mode**: after ``degraded_after`` *consecutive* substrate
  failures (deaths/timeouts/stalls) the service stops accepting
  submissions (:class:`ServiceDegradedError`, HTTP 503) while still
  serving reads; one successful run restores it.

Durability and backpressure:

* the pending set is **bounded** -- when full, :meth:`submit` raises
  :class:`BackpressureError` (the HTTP layer maps it to 429 with a
  ``Retry-After`` hint) instead of buffering unbounded work;
* all job state lives in the store (``status.json`` per run, mirrored
  into the sqlite ledger), so a service restart -- even SIGKILL --
  recovers by :meth:`rescan`: the ledger is reconciled against the
  directory and runs left ``queued`` or ``running`` are re-enqueued;
* :meth:`stop` supports both a **drain** (finish everything already
  queued, the SIGTERM path) and an immediate stop (kill in-flight
  workers; their runs stay ``running`` in the store for the next
  rescan).

Telemetry: ``service_queue_depth`` / ``service_degraded`` gauges,
``service_submissions_total{outcome=}`` / ``service_jobs_total{state=}``
/ ``service_worker_deaths_total{cause=}`` / ``service_run_retries_total``
/ ``service_runs_quarantined_total{kind=}`` counters, and
``service_queue_wait_seconds`` / ``service_job_seconds`` histograms.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro import telemetry
from repro.errors import ConfigurationError, ReproError
from repro.experiments.retry import RetryPolicy
from repro.service.chaos import ServiceFaultPlan, tamper_stored_table
from repro.service.scenario import Scenario
from repro.service.store import RunStore
from repro.supervise import Backlog, WorkerPool

__all__ = [
    "BackpressureError",
    "ServiceDegradedError",
    "JobService",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_DEGRADED_AFTER",
]

DEFAULT_QUEUE_LIMIT = 64

#: Consecutive substrate failures (worker deaths / deadline kills /
#: stalls) before the service stops accepting submissions.
DEFAULT_DEGRADED_AFTER = 3

#: How often a busy worker's beat thread pings the dispatcher.
DEFAULT_HEARTBEAT_INTERVAL_S = 1.0

#: How long one dispatcher supervision wait lasts.
_POLL_S = 0.2


def _default_retry() -> RetryPolicy:
    # Service-level policy: quick deterministic backoff, and -- unlike
    # run_all -- timeouts ARE retried (a deadline kill resumes cheaply
    # from shard checkpoints, so the retry is worth it by default).
    return RetryPolicy(
        max_attempts=3, backoff_base=0.1, backoff_cap=5.0, retry_timeouts=True
    )


#: Pool event kind -> ``service_worker_deaths_total`` cause of a busy worker.
_DEATH_CAUSES = {"died": "busy", "timeout": "timeout", "stalled": "stalled"}


class BackpressureError(ReproError):
    """Raised when the job queue is full; resubmit after runs drain."""


class ServiceDegradedError(ReproError):
    """Raised while the service refuses submissions after repeated
    worker deaths (reads still work); mapped to HTTP 503."""


@dataclass
class _JobState:
    """Dispatcher-side bookkeeping for one pending or in-flight run."""

    run_id: str
    enqueued_at: float
    attempts: int = 0
    not_before: float = 0.0


class _ExecuteRun:
    """The service's pool task: execute one run inside a worker process.

    Plain picklable data; each worker builds its own store handle and
    fault plan on first use.  The job is ``(job_seq, run_id, jobs)``:
    chaos faults fire by *job_seq*, the service-wide dispatch number, so
    an injected kill/hang schedule replays deterministically whichever
    worker draws which job.
    """

    def __init__(self, store_root: str, fault_spec: str):
        self.store_root = store_root
        self.fault_spec = fault_spec
        self._store = self._plan = None

    def __call__(self, job) -> str:
        job_seq, run_id, jobs = job
        if self._store is None:
            self._store = RunStore(self.store_root)
            self._plan = ServiceFaultPlan.from_spec(self.fault_spec)
        self._plan.fire_worker(job_seq)  # kill/hang fire here, pre-execution
        record = self._store.get(run_id)
        with self._plan.disk_pressure(job_seq):
            state = self._store.execute(record, jobs=jobs)
        if state == "done" and self._plan.should_tamper(job_seq):
            tamper_stored_table(record.root)
        return state


class JobService:
    """Bounded job queue executing scenario runs against a store."""

    def __init__(
        self,
        store: RunStore,
        jobs_per_run: int = 1,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        workers: int = 1,
        run_timeout: float | None = None,
        retry: RetryPolicy | None = None,
        degraded_after: int = DEFAULT_DEGRADED_AFTER,
        fault_spec: str = "",
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    ):
        if queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if jobs_per_run < 1:
            raise ConfigurationError(
                f"jobs_per_run must be >= 1, got {jobs_per_run}"
            )
        if degraded_after < 1:
            raise ConfigurationError(
                f"degraded_after must be >= 1, got {degraded_after}"
            )
        self.store = store
        self.jobs_per_run = jobs_per_run
        self.queue_limit = queue_limit
        self.run_timeout = run_timeout
        self.retry = retry if retry is not None else _default_retry()
        self.degraded_after = degraded_after
        self.fault_spec = fault_spec
        self.heartbeat_interval = heartbeat_interval
        self._lock = threading.Lock()
        self._enqueued: set[str] = set()  # ids pending or in flight
        self._cancel_requested: set[str] = set()
        self._stopping = threading.Event()
        self._drain = True
        self._started = False
        self._degraded = False
        self._failure_streak = 0
        self._pending = Backlog()
        self._in_flight: dict[str, _JobState] = {}
        self._next_seq = 1  # service-wide dispatch number chaos plans key on
        self._fleet: WorkerPool | None = None
        self._dispatcher: threading.Thread | None = None
        self.num_workers = workers

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the workers and recover interrupted runs from the store.

        Idempotent: a second ``start()`` is a no-op (the restart-race
        tests pin this), and recovery itself is idempotent because the
        pending set coalesces duplicate enqueues.
        """
        if self._started:
            return
        self._started = True
        try:
            self.store.reconcile_ledger()
        except Exception:  # ledger is an index; never block startup on it
            pass
        self.rescan()
        # Stale = many missed beats; generous so a fork storm under load
        # (a run spawning its shard workers) is never misread as a wedge.
        self._fleet = WorkerPool(
            _ExecuteRun(str(self.store.root), self.fault_spec),
            self.num_workers,
            caller="JobService",
            heartbeat=self.heartbeat_interval,
            stall_after=max(15.0, 10.0 * self.heartbeat_interval),
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatch", daemon=True
        )
        self._dispatcher.start()

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service.

        With *drain* (the SIGTERM path) every queued run finishes first;
        without it in-flight workers are killed (their runs stay
        ``running`` in the store, resumed by the next :meth:`rescan`)
        and queued runs stay ``queued``.
        """
        self._drain = drain
        self._stopping.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout)
        if self._fleet is not None:
            self._fleet.close(kill=not drain)
            self._fleet = None

    def rescan(self) -> list[str]:
        """Re-enqueue runs the store says are ``queued`` or ``running``.

        A ``running`` run is one a previous service instance died inside
        (or one a current worker holds -- the coalescing pending set
        makes that a no-op); its shard checkpoints make re-execution a
        cheap resume.  Returns the newly recovered run ids.
        """
        recovered = []
        for summary in self.store.query():
            if summary.get("state") in ("queued", "running"):
                if self._try_enqueue(summary["run_id"]) == "added":
                    recovered.append(summary["run_id"])
        return recovered

    # -- submission --------------------------------------------------------

    def submit(self, scenario: Scenario, invocation: dict | None = None) -> dict:
        """Register and enqueue a scenario; returns a submission summary.

        Content addressing makes this idempotent: resubmitting a document
        whose run is already ``done`` returns immediately with the stored
        state and does not re-execute.
        """
        tel = telemetry.get_telemetry()
        if self._stopping.is_set():
            tel.counter("service_submissions_total", outcome="rejected").inc()
            raise BackpressureError("service is shutting down")
        if self._degraded:
            tel.counter("service_submissions_total", outcome="rejected").inc()
            raise ServiceDegradedError(
                f"service degraded after {self._failure_streak} consecutive "
                "worker failures; not accepting submissions (reads still "
                "served; recovers after one successful run)"
            )
        record, created = self.store.register(scenario, invocation=invocation)
        state = self.store.status(record.run_id).get("state")
        if state == "done":
            tel.counter("service_submissions_total", outcome="cached").inc()
            return {"run_id": record.run_id, "created": created, "state": state}
        if not self._try_enqueue(record.run_id):
            tel.counter("service_submissions_total", outcome="rejected").inc()
            raise BackpressureError(
                f"job queue full ({self.queue_limit} pending); retry later"
            )
        with self._lock:
            self._cancel_requested.discard(record.run_id)
        self.store.clear_cancel(record.run_id)
        tel.counter("service_submissions_total", outcome="accepted").inc()
        return {"run_id": record.run_id, "created": created, "state": "queued"}

    def retry_after_hint(self) -> int:
        """Suggested client backoff (seconds) for 429/503 responses."""
        with self._lock:
            backlog = len(self._enqueued)
        return max(1, min(30, backlog))

    def _try_enqueue(self, run_id: str) -> str:
        """Enqueue a run; returns ``"added"``, ``"coalesced"``, or ``""``.

        Both truthy outcomes mean the run is (now) pending or in flight;
        the empty string means the queue is full.
        """
        with self._lock:
            if run_id in self._enqueued:
                return "coalesced"  # already pending or in flight
            if len(self._enqueued) >= self.queue_limit:
                return ""
            self._pending.push(_JobState(run_id=run_id, enqueued_at=time.monotonic()))
            self._enqueued.add(run_id)
            self._gauge_depth()
            return "added"

    # -- cancellation ------------------------------------------------------

    def cancel(self, run_id: str) -> dict:
        """Request cooperative cancellation of a queued or running run."""
        record = self.store.get(run_id)  # raises on unknown id
        state = self.store.status(record.run_id).get("state")
        if state in ("done", "failed", "cancelled", "quarantined"):
            return {"run_id": record.run_id, "state": state}
        with self._lock:
            self._cancel_requested.add(record.run_id)
        # The on-disk marker reaches an executor in another process.
        self.store.request_cancel(record.run_id)
        return {"run_id": record.run_id, "state": "cancelling"}

    def _should_cancel(self, run_id: str) -> bool:
        with self._lock:
            return run_id in self._cancel_requested

    # -- dispatcher --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Own the pool: dispatch ready runs, supervise, retry, quarantine."""
        fleet = self._fleet
        while True:
            if self._stopping.is_set() and not self._drain:
                return  # stop() kills the fleet; runs resume on next start
            self._dispatch_ready(fleet)
            if self._stopping.is_set() and self._drain:
                with self._lock:
                    drained = not self._pending and not self._in_flight
                if drained:
                    return
            for event in fleet.poll(_POLL_S):
                self._handle_event(event)

    def _dispatch_ready(self, fleet: WorkerPool) -> None:
        tel = telemetry.get_telemetry()
        while fleet.idle:
            with self._lock:
                job = self._pending.pop_ready(time.monotonic())
            if job is None:
                return
            if self._should_cancel(job.run_id):
                self._finish_cancelled_queued(job)
                continue
            job.attempts += 1
            with self._lock:
                self._in_flight[job.run_id] = job
            if job.attempts == 1:
                tel.histogram(
                    "service_queue_wait_seconds",
                    buckets=telemetry.SECONDS_BUCKETS,
                ).observe(time.monotonic() - job.enqueued_at)
            else:
                tel.counter("service_run_retries_total").inc()
            self.store.record_attempt(job.run_id)
            seq, self._next_seq = self._next_seq, self._next_seq + 1
            fleet.dispatch(
                job.run_id, (seq, job.run_id, self.jobs_per_run), self.run_timeout
            )

    def _finish_cancelled_queued(self, job: _JobState) -> None:
        try:
            self.store.set_state(job.run_id, "cancelled")
            self.store.append_journal(
                job.run_id, {"event": "cancelled", "while": "queued"}
            )
            self.store.clear_cancel(job.run_id)
        except Exception:
            pass
        self._count_job("cancelled")
        self._forget(job.run_id)

    def _handle_event(self, event) -> None:
        if event.kind in _DEATH_CAUSES:
            cause = "idle" if event.task_id is None else _DEATH_CAUSES[event.kind]
            telemetry.get_telemetry().counter(
                "service_worker_deaths_total", cause=cause
            ).inc()
        with self._lock:
            job = self._in_flight.pop(event.task_id, None)
        if job is None:
            return  # an idle worker died, or a run we no longer track
        if event.kind == "ok":
            self._count_job(event.value, event.elapsed)
            if event.value == "done":
                self._note_success()
            self._forget(job.run_id)
            return
        if event.kind == "error":
            self.store.append_journal(
                job.run_id, {"event": "worker-error", "error": event.message}
            )
            if event.permanent:
                # Permanent failures (ReproError) are never retried.
                # store.execute marks the run failed itself, but an error
                # raised before it (e.g. an unreadable scenario.json in
                # store.get) would leave the run queued -- settle it here.
                if self.store.status(job.run_id).get("state") not in (
                    "failed", "cancelled", "quarantined",
                ):
                    try:
                        self.store.set_state(
                            job.run_id, "failed", error=event.message
                        )
                    except Exception:
                        pass
                self._count_job("failed", event.elapsed)
                self._forget(job.run_id)
                return
            self._retry_or_quarantine(job, event, delay=True)
            return
        # died / timeout / stalled: the substrate failed, not the run.
        self._note_substrate_failure()
        self.store.append_journal(
            job.run_id, {"event": f"worker-{event.kind}", "error": event.message}
        )
        if event.kind in ("timeout", "stalled") and not self.retry.retry_timeouts:
            self._quarantine(job, event)
            return
        self._retry_or_quarantine(job, event, delay=event.kind != "died")

    def _retry_or_quarantine(self, job: _JobState, event, delay: bool) -> None:
        if job.attempts >= self.retry.max_attempts:
            self._quarantine(job, event)
            return
        if delay:
            job.not_before = time.monotonic() + self.retry.delay(
                job.run_id, job.attempts
            )
        else:
            job.not_before = 0.0  # a worker death requeues immediately
        with self._lock:
            self._pending.push(job)

    def _quarantine(self, job: _JobState, event) -> None:
        reason = (
            f"{event.message} (attempt {job.attempts}/{self.retry.max_attempts})"
        )
        try:
            self.store.quarantine(job.run_id, reason, kind="poison")
        except Exception:
            pass
        self._count_job("quarantined", event.elapsed)
        self._forget(job.run_id)

    def _forget(self, run_id: str) -> None:
        with self._lock:
            self._enqueued.discard(run_id)
            self._cancel_requested.discard(run_id)
            self._gauge_depth()

    def _note_substrate_failure(self) -> None:
        self._failure_streak += 1
        if self._failure_streak >= self.degraded_after and not self._degraded:
            self._degraded = True
            telemetry.get_telemetry().gauge("service_degraded").set(1)

    def _note_success(self) -> None:
        self._failure_streak = 0
        if self._degraded:
            self._degraded = False
            telemetry.get_telemetry().gauge("service_degraded").set(0)

    @staticmethod
    def _count_job(state: str, seconds: float | None = None) -> None:
        # Parent-side accounting: the worker process's telemetry registry
        # is a fork-copy, so its increments never reach the daemon's
        # /metrics; the dispatcher counts terminal outcomes instead.
        tel = telemetry.get_telemetry()
        tel.counter("service_jobs_total", state=state).inc()
        if seconds is not None:
            tel.histogram(
                "service_job_seconds", buckets=telemetry.SECONDS_BUCKETS
            ).observe(seconds)

    def _gauge_depth(self) -> None:
        telemetry.get_telemetry().gauge("service_queue_depth").set(
            len(self._enqueued)
        )

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Service-level counters for the status endpoint."""
        with self._lock:
            return {
                "pending": len(self._enqueued),
                "in_flight": len(self._in_flight),
                "queue_limit": self.queue_limit,
                "workers": self.num_workers,
                "jobs_per_run": self.jobs_per_run,
                "run_timeout": self.run_timeout,
                "degraded": self._degraded,
                "failure_streak": self._failure_streak,
                "stopping": self._stopping.is_set(),
            }
