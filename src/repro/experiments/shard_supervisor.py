"""Block-level supervision for sharded sweeps: the shard layer's policy over
:mod:`repro.supervise`, keeping a ``(cell x rep-block)`` sweep alive
despite crashing, hanging, or poisoned workers.

``ShardedScheduler`` used to be a bare ``Pool.map`` -- one SIGKILL, hang,
or poison block lost the entire sweep.  Here each block is one dispatch on
a :class:`~repro.supervise.WorkerPool` (deadline kill, death detection and
respawn come from the pool), and this module adds the shard policy:

* **bounded retry** -- transient failures back off exponentially with
  seeded jitter (:class:`~repro.experiments.retry.RetryPolicy`); a block
  whose worker died is re-dispatched at once; timeouts are retried only
  with ``retry_timeouts``; :class:`~repro.errors.ReproError` failures are
  permanent and never retried;
* **quarantine** -- a block that exhausts its attempts is quarantined;
  with ``keep_going`` the sweep completes around it and reports a
  failure table, otherwise :class:`~repro.errors.ShardFailureError`;
* **speculative re-execution** -- block seeds derive from
  ``(root_seed, *path, SHARD_BLOCK_TAG, b)``, so every block is a pure
  deterministic function: duplicating a straggler is safe, the first
  result wins, and when both land they are verified identical;
* **block checkpoints** -- completed blocks snapshot atomically
  (SHA-256-checked, same discipline as the table checkpoints), so a
  killed sweep resumes mid-cell and bit-reproduces the remainder;
* **graceful shutdown** -- SIGINT/SIGTERM stop dispatch, drain in-flight
  blocks, checkpoint them, and then raise ``KeyboardInterrupt``; a second
  signal aborts immediately.

Every recovery event publishes a telemetry counter:
``shard_retries_total{kind=...}``, ``shard_redispatch_total``,
``shard_quarantined_total{kind=...}``, ``shard_speculative_wins_total``
(plus ``shard_speculative_mismatch_total`` and
``shard_blocks_restored_total``), so a chaotic sweep leaves a complete
audit trail in the metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro import telemetry as _telemetry
from repro.errors import ConfigurationError, ShardFailureError
from repro.experiments.retry import RetryPolicy
from repro.supervise import Backlog, InlinePool, WorkerPool
from repro.telemetry import get_telemetry

__all__ = [
    "ShardContext",
    "get_shard_context",
    "configure_shard_context",
    "shard_context",
    "active_shard_jobs",
    "SupervisionConfig",
    "BlockFailure",
    "ShardReport",
    "BlockCheckpointStore",
    "BlockSupervisor",
]

_log = logging.getLogger(__name__)

#: Schema version embedded in every block checkpoint.
BLOCK_CHECKPOINT_FORMAT = 1

#: Cap on the supervision loop's wait so drain requests (SIGINT/SIGTERM)
#: are noticed promptly even when no result or backoff is imminent.
_WAIT_CAP_S = 0.5


# -- ambient shard context --------------------------------------------------


@dataclass(frozen=True, slots=True)
class ShardContext:
    """Process-wide defaults for sharded cell execution.

    ``run_all --shard-jobs N`` configures this inside each experiment
    attempt (parent or isolated worker alike), so experiment modules keep
    their ``run(preset, seed)`` signature and still land on the supervised
    sharded path: :func:`repro.experiments.cells.run_cells` consults the
    context when the caller passes no explicit jobs.  ``jobs=None`` means
    sharding is not forced -- the inert default.
    """

    jobs: int | None = None
    block_size: int | None = None
    block_timeout: float | None = None
    checkpoint_dir: str | None = None
    fault_plan: object | None = None  # experiments.faults.FaultPlan


_INERT_CONTEXT = ShardContext()
_active_context: ShardContext = _INERT_CONTEXT


def get_shard_context() -> ShardContext:
    """The ambient shard context (the inert default when unconfigured)."""
    return _active_context


def configure_shard_context(ctx: ShardContext | None) -> ShardContext:
    """Install *ctx* (None resets to inert); returns the previous context."""
    global _active_context
    previous = _active_context
    _active_context = ctx if ctx is not None else _INERT_CONTEXT
    return previous


@contextmanager
def shard_context(**kwargs):
    """Scoped :func:`configure_shard_context` for tests and library callers."""
    previous = configure_shard_context(ShardContext(**kwargs))
    try:
        yield get_shard_context()
    finally:
        configure_shard_context(previous)


def active_shard_jobs() -> int | None:
    """The ambient shard job count, or None when sharding is not forced."""
    return _active_context.jobs


# -- report -----------------------------------------------------------------


@dataclass(slots=True)
class BlockFailure:
    """One quarantined block: which block, why, after how many attempts."""

    spec_index: int
    block_index: int
    kind: str  # "error" | "crash" | "timeout"
    message: str
    attempts: int


@dataclass(slots=True)
class ShardReport:
    """What the supervisor did to finish (or give up on) a sweep."""

    blocks: int = 0
    completed: int = 0
    restored: int = 0
    retries: int = 0
    redispatches: int = 0
    speculative_launches: int = 0
    speculative_wins: int = 0
    speculative_mismatches: int = 0
    quarantined: list[BlockFailure] = field(default_factory=list)
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        """Every block produced a result and the sweep was not interrupted."""
        return not self.quarantined and not self.interrupted

    def quarantine_table(self):
        """The FAILURES-style summary table of quarantined blocks."""
        from repro.experiments.harness import Column, Table

        table = Table(
            name="SHARD-FAILURES",
            title="rep-blocks that did not complete",
            claim=(
                "block-level graceful degradation: keep_going quarantines "
                "poison blocks instead of aborting the sweep"
            ),
            columns=[
                Column("spec", "spec"),
                Column("block", "block"),
                Column("kind", "kind"),
                Column("attempts", "attempts"),
                Column("error", "error"),
            ],
        )
        for failure in self.quarantined:
            table.add_row(
                spec=failure.spec_index,
                block=failure.block_index,
                kind=failure.kind,
                attempts=failure.attempts,
                error=failure.message[:160],
            )
        return table

    def summary(self) -> str:
        """One human-readable line for logs and CLI footers."""
        return (
            f"blocks={self.blocks} completed={self.completed} "
            f"restored={self.restored} retries={self.retries} "
            f"redispatched={self.redispatches} "
            f"speculative={self.speculative_launches}"
            f"(wins={self.speculative_wins}) "
            f"quarantined={len(self.quarantined)}"
        )


# -- block checkpoints ------------------------------------------------------


class BlockCheckpointStore:
    """Atomic, checksummed snapshots of completed rep-blocks.

    One JSON file per block, keyed by a fingerprint of the *spec content*
    plus the block partition -- never by position -- so a resume restores
    a block only when its parameters (and therefore its derived seeds)
    match exactly, and differently-parameterized sweeps can never collide
    in one directory.  Files follow the same discipline as the table
    checkpoints: same-directory tmp + rename, embedded SHA-256 verified on
    load, damaged files treated as absent.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)

    @staticmethod
    def block_key(spec, block_size: int, block_index: int) -> str:
        """Content-addressed key of one (spec, partition, block) unit."""
        if dataclasses.is_dataclass(spec) and not isinstance(spec, type):
            fingerprint = dataclasses.asdict(spec)
        else:
            fingerprint = repr(spec)
        payload = json.dumps(
            {
                "format": BLOCK_CHECKPOINT_FORMAT,
                "spec": fingerprint,
                "block_size": block_size,
                "block": block_index,
            },
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    def _path(self, key: str) -> Path:
        return self.root / f"block-{key}.json"

    def load(self, key: str) -> list | None:
        """Restore one block's results, or None to recompute.

        A missing file, unparseable JSON, a checksum mismatch, or an
        undecodable payload all mean "recompute" -- the store never trusts
        a damaged checkpoint.
        """
        from repro.sim.metrics import RunResult

        try:
            data = json.loads(self._path(key).read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            return None
        results = data.get("results")
        if results is None or data.get("checksum") != _results_checksum(results):
            return None
        try:
            return [RunResult.from_jsonable(r) for r in results]
        except (KeyError, TypeError):
            return None

    def save(self, key: str, results: Sequence) -> str:
        """Atomically snapshot one block's results; returns the checksum.

        Raises :class:`~repro.errors.ConfigurationError` when the results
        are not JSON-serializable run results (the supervisor then runs
        uncheckpointed for the rest of the sweep).
        """
        from repro.experiments.checkpoint import atomic_write_text

        jsonable = [r.to_jsonable() for r in results]
        digest = _results_checksum(jsonable)
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self._path(key),
            json.dumps(
                {
                    "format": BLOCK_CHECKPOINT_FORMAT,
                    "checksum": digest,
                    "results": jsonable,
                },
                sort_keys=True,
                separators=(",", ":"),
            ),
        )
        return digest


def _results_checksum(results_jsonable) -> str:
    payload = json.dumps(results_jsonable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- supervision configuration ---------------------------------------------

#: A running block is a straggler once it has run this many times the
#: median completed-block time ...
STRAGGLER_FACTOR = 4.0
#: ... and only once this many blocks have completed to take a median of.
STRAGGLER_MIN_DONE = 3


@dataclass(frozen=True, slots=True)
class SupervisionConfig:
    """Knobs of one supervised sweep (see the module docstring)."""

    jobs: int = 1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    block_timeout: float | None = None
    keep_going: bool = False
    speculate: bool = True
    fault_plan: object | None = None  # experiments.faults.FaultPlan

    def __post_init__(self):
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.block_timeout is not None and self.block_timeout <= 0:
            raise ConfigurationError(
                f"block_timeout must be > 0, got {self.block_timeout}"
            )


def _run_block(worker_fn, fault_plan, in_process: bool, job):
    """Pool task: one execution ``(task_id, execution, item)`` of a block.

    Fires the fault plan's block faults around *worker_fn*.  In process
    (the ``jobs=1`` path) the block runs under a null telemetry sink: its
    shard is merged only when the block completes, as for a worker.
    """
    task_id, execution, item = job
    previous = _telemetry.install(_telemetry.NULL_TELEMETRY) if in_process else None
    try:
        if fault_plan is not None:
            fault_plan.fire_block(task_id, execution, in_process=in_process)
        payload = worker_fn(item)
        if fault_plan is not None and fault_plan.should_corrupt_block(
            task_id, execution
        ):
            payload = fault_plan.corrupt_block_payload(payload)
        return payload
    finally:
        if in_process:
            _telemetry.install(previous)


# -- task state -------------------------------------------------------------

_PENDING, _RUNNING, _DONE, _QUARANTINED = "pending", "running", "done", "quarantined"


@dataclass(slots=True)
class _Task:
    """Supervision state of one ``(spec, block)`` work item."""

    task_id: int
    spec_index: int
    block_index: int
    item: object
    key: str | None  # checkpoint key (None when checkpointing is off)
    status: str = _PENDING
    attempts: int = 0  # executions dispatched (incl. speculative)
    failures: int = 0
    running: int = 0  # live executions right now
    not_before: float = 0.0
    payload: object = None
    speculated: bool = False


class BlockSupervisor:
    """Drive a list of block tasks to completion under supervision.

    One-shot: construct, :meth:`run`, discard.  With ``jobs > 1`` blocks
    run on a :class:`~repro.supervise.WorkerPool` spawned per run;
    ``jobs=1`` runs them inline through :class:`~repro.supervise
    .InlinePool` with the same retry/quarantine/checkpoint semantics
    (timeouts, kills and speculation need real workers and are
    unavailable inline).
    """

    def __init__(
        self,
        worker_fn: Callable,
        config: SupervisionConfig,
        checkpoint: BlockCheckpointStore | None = None,
    ):
        self.worker_fn = worker_fn
        self.config = config
        self.checkpoint = checkpoint
        self.report = ShardReport()
        self._drain = False
        self._abort = False
        self._checkpointing = checkpoint is not None
        self._backlog = Backlog()
        self._done_elapsed: list[float] = []

    # -- shared helpers ----------------------------------------------------

    def _tel(self):
        return get_telemetry()

    def _restore(self, task: _Task) -> bool:
        """Restore a completed block from its checkpoint, if valid."""
        if self.checkpoint is None or task.key is None:
            return False
        results = self.checkpoint.load(task.key)
        if results is None:
            return False
        task.status = _DONE
        task.payload = (results, None)  # checkpointed telemetry is not replayed
        self.report.restored += 1
        self._tel().counter("shard_blocks_restored_total").inc()
        return True

    def _save(self, task: _Task, results) -> None:
        """Checkpoint one completed block (disabling on unserializable data)."""
        if not self._checkpointing or self.checkpoint is None or task.key is None:
            return
        try:
            self.checkpoint.save(task.key, results)
        except ConfigurationError as exc:
            self._checkpointing = False
            _log.warning(
                "disabling block checkpoints for this sweep: %s", exc
            )

    def _complete(self, task: _Task, payload, speculative_win: bool) -> None:
        task.status = _DONE
        task.payload = payload
        self.report.completed += 1
        if speculative_win:
            self.report.speculative_wins += 1
            self._tel().counter("shard_speculative_wins_total").inc()
        results, tel_json = _split_payload(payload)
        if results is not None:
            self._save(task, results)
        if tel_json:
            live = self._tel()
            if live.enabled:
                live.merge(_telemetry.Telemetry.from_jsonable(tel_json))

    def _verify_duplicate(self, task: _Task, payload) -> None:
        """Check a second (speculative) result against the accepted one."""
        a, _ = _split_payload(task.payload)
        b, _ = _split_payload(payload)
        try:
            identical = a == b
        except Exception:  # exotic result types: treat as mismatch
            identical = False
        if not identical:
            self.report.speculative_mismatches += 1
            self._tel().counter("shard_speculative_mismatch_total").inc()
            _log.warning(
                "speculative duplicate of block (spec %d, block %d) produced "
                "a different result; kept the first-arriving one (block "
                "execution is expected to be deterministic -- investigate)",
                task.spec_index,
                task.block_index,
            )

    def _failed(self, task: _Task, kind: str, message: str, permanent: bool,
                now: float, redispatch: bool = False) -> None:
        """Account one failed execution; schedule a retry or quarantine."""
        if task.status == _DONE:
            return  # a speculative copy failed after the block completed
        task.failures += 1
        if redispatch:
            self.report.redispatches += 1
            self._tel().counter("shard_redispatch_total").inc()
        if task.running > 0:
            return  # another execution of this block is still in flight
        no_retry = (
            permanent
            or (kind == "timeout" and not self.config.retry.retry_timeouts)
            or task.attempts >= self.config.retry.max_attempts
        )
        if no_retry:
            task.status = _QUARANTINED
            self.report.quarantined.append(
                BlockFailure(
                    spec_index=task.spec_index,
                    block_index=task.block_index,
                    kind=kind,
                    message=message,
                    attempts=task.attempts,
                )
            )
            self._tel().counter("shard_quarantined_total", kind=kind).inc()
            return
        task.status = _PENDING
        delay = 0.0 if redispatch else self.config.retry.delay(
            f"{task.spec_index}/{task.block_index}", task.failures
        )
        task.not_before = now + delay
        self.report.retries += 1
        self._tel().counter("shard_retries_total", kind=kind).inc()
        self._backlog.push(task)

    # -- public entry ------------------------------------------------------

    def run(self, items: Sequence[tuple[int, int, object]], block_size: int):
        """Supervise every ``(spec_index, block_index, item)`` work unit.

        Returns ``(payloads, report)`` where ``payloads[i]`` is the i-th
        item's worker payload (``None`` for quarantined blocks).  Raises
        :class:`~repro.errors.ShardFailureError` when blocks were
        quarantined and ``keep_going`` is off, and ``KeyboardInterrupt``
        after a signal-requested drain.
        """
        tasks = []
        for task_id, (spec_index, block_index, item) in enumerate(items):
            key = None
            if self.checkpoint is not None:
                spec = item[0] if isinstance(item, tuple) and item else item
                key = self.checkpoint.block_key(spec, block_size, block_index)
            tasks.append(
                _Task(
                    task_id=task_id,
                    spec_index=spec_index,
                    block_index=block_index,
                    item=item,
                    key=key,
                )
            )
        self.report.blocks = len(tasks)
        for task in tasks:
            self._restore(task)

        pending = [t for t in tasks if t.status == _PENDING]
        if pending:
            self._supervise(tasks, pending)

        if self.report.interrupted:
            done = self.report.completed + self.report.restored
            raise KeyboardInterrupt(
                f"sharded sweep interrupted: {done}/{self.report.blocks} "
                "blocks finished"
                + (
                    " and checkpointed"
                    if self._checkpointing and self.checkpoint is not None
                    else ""
                )
            )
        if self.report.quarantined and not self.config.keep_going:
            worst = self.report.quarantined[0]
            raise ShardFailureError(
                f"{len(self.report.quarantined)} rep-block(s) quarantined "
                f"after bounded retries (first: spec {worst.spec_index} "
                f"block {worst.block_index}, {worst.kind}: {worst.message}); "
                "pass keep_going=True to collect partial results",
                report=self.report,
            )
        return [t.payload for t in tasks], self.report

    # -- supervision loop ---------------------------------------------------

    def _supervise(self, tasks: list[_Task], pending: list[_Task]) -> None:
        inline = self.config.jobs == 1
        task_fn = functools.partial(
            _run_block, self.worker_fn, self.config.fault_plan, inline
        )
        self._backlog = Backlog(pending)
        if inline:
            pool, handlers = InlinePool(task_fn), None
        else:
            pool = WorkerPool(
                task_fn, min(self.config.jobs, len(pending)),
                caller="ShardedScheduler.run",
            )
            handlers = self._install_signal_handlers()
        try:
            self._loop(tasks, pool)
        except KeyboardInterrupt:  # inline: no drain handlers, stop at once
            self.report.interrupted = self._abort = True
        finally:
            self._restore_signal_handlers(handlers)
            pool.close(kill=self._abort)

    def _loop(self, tasks: list[_Task], pool) -> None:
        # A block is pending exactly while it sits in the backlog, and each
        # dispatched execution is running until its one event arrives.
        while not self._abort:
            in_flight = len(pool.running())
            if not self._backlog and not in_flight:
                return
            if self._drain and not in_flight:
                break
            now = time.monotonic()
            if not self._drain:
                self._dispatch_ready(tasks, pool, now)
            # Busy workers end the wait with their events; only idle ones
            # wait for a backoff to run out.
            wait = _WAIT_CAP_S
            if pool.idle:
                wait = min(wait, self._backlog.wakeup(now))
            for event in pool.poll(wait):
                self._handle(tasks, event, time.monotonic())
        self.report.interrupted = True

    def _dispatch_ready(self, tasks: list[_Task], pool, now: float) -> None:
        while pool.idle:
            task = self._backlog.pop_ready(now)
            if task is None:
                break
            self._dispatch(pool, task)
        # Any still-idle workers may speculate on stragglers, once no real
        # work is queued or backing off.
        if not self.config.speculate or self._backlog:
            return
        while pool.idle:
            task = self._straggler_candidate(tasks, pool)
            if task is None:
                return
            task.speculated = True
            self.report.speculative_launches += 1
            self._dispatch(pool, task)

    def _dispatch(self, pool, task: _Task) -> None:
        task.status = _RUNNING
        task.attempts += 1
        task.running += 1
        pool.dispatch(
            (task.task_id, task.attempts),
            (task.task_id, task.attempts, task.item),
            self.config.block_timeout,
        )

    def _straggler_candidate(self, tasks: list[_Task], pool):
        """The longest-running non-duplicated block, if it qualifies."""
        if len(self._done_elapsed) < STRAGGLER_MIN_DONE:
            return None
        sorted_elapsed = sorted(self._done_elapsed)
        median = sorted_elapsed[len(sorted_elapsed) // 2]
        threshold = max(STRAGGLER_FACTOR * median, 0.05)
        candidates = [
            (age, task_id)
            for (task_id, _execution), age in pool.running().items()
            if age > threshold and tasks[task_id].status == _RUNNING
            and not tasks[task_id].speculated and tasks[task_id].running == 1
        ]
        return tasks[max(candidates)[1]] if candidates else None

    def _handle(self, tasks: list[_Task], event, now: float) -> None:
        """Apply one pool event to its block."""
        if event.task_id is None:
            return  # an idle worker died; the pool replaced it
        task_id, execution = event.task_id
        task = tasks[task_id]
        task.running -= 1
        if event.kind == "ok":
            if task.status == _DONE:
                self._verify_duplicate(task, event.value)
                return
            self._done_elapsed.append(event.elapsed)
            win = task.speculated and execution == task.attempts
            self._complete(task, event.value, speculative_win=win)
        elif event.kind == "error":
            self._failed(task, "error", event.message, event.permanent, now)
        else:  # died or timeout: the worker is gone, say which block it ran
            message = (
                f"block (spec {task.spec_index}, block {task.block_index}): "
                f"{event.message}"
            )
            crash = event.kind == "died"
            self._failed(
                task, "crash" if crash else "timeout", message, False, now,
                redispatch=crash,
            )

    # -- signal handling ----------------------------------------------------

    def _install_signal_handlers(self):
        if threading.current_thread() is not threading.main_thread():
            return None
        handlers = {}

        def on_signal(signum, frame):
            if self._drain:
                self._abort = True
            else:
                self._drain = True
                _log.warning(
                    "shard supervisor: received signal %d -- draining "
                    "in-flight blocks (signal again to abort immediately)",
                    signum,
                )

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                handlers[sig] = signal.signal(sig, on_signal)
            except (ValueError, OSError):
                pass
        return handlers

    def _restore_signal_handlers(self, handlers) -> None:
        if not handlers:
            return
        for sig, previous in handlers.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):
                pass


def _split_payload(payload):
    """Unpack a worker payload into ``(results, telemetry_jsonable)``."""
    if isinstance(payload, tuple) and len(payload) == 2:
        return payload
    return payload, None
