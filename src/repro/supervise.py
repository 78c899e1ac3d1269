"""One supervised worker pool under every layer that runs work in processes.

The experiment runner, the shard-block supervisor and the job service are
policies over this module (the contract and a table of the three policies
are in ``docs/runner.md``, "Process supervision").

:class:`WorkerPool` runs N worker processes that each loop over a duplex
pipe, calling a picklable task function per dispatched item.
:meth:`WorkerPool.poll` waits on the pipes and process sentinels at once
and returns plain :class:`Event` records -- ``ok``, ``error`` (a
:class:`~repro.errors.ReproError` is *permanent*), ``died``, ``timeout``,
``stalled`` -- killing (terminate, grace join, kill) and respawning
workers as needed.  A worker exits when its parent dies, idle or mid-task:
it watches the parent's process sentinel, because pipe EOF never comes
under ``fork`` (the worker inherits the parent's end of its own pipe).
:class:`InlinePool` is the same contract in-process for ``jobs=1`` paths,
and :class:`Backlog` is the pending FIFO where entries wait out backoff.
"""

from __future__ import annotations

import functools
import math
import multiprocessing as mp
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Hashable, Iterable

from repro.errors import ConfigurationError, ReproError

__all__ = [
    "Backlog",
    "Event",
    "InlinePool",
    "WorkerPool",
    "check_picklable",
    "subprocess_context",
]

#: Grace period between SIGTERM and SIGKILL.
TERM_GRACE_S = 2.0

#: Cap on one :meth:`WorkerPool.map` wait.
_MAP_WAIT_S = 0.5


def subprocess_context() -> mp.context.BaseContext:
    """The multiprocessing context workers start under.

    ``fork`` where available (it keeps the warm imported state), else the
    platform default.  Every pool is driven from a single thread, which is
    what makes forking safe.
    """
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def check_picklable(fn: Callable, caller: str) -> None:
    """Reject lambdas and closures before they reach a worker process.

    Workers get the task function pickled by *reference* (module +
    qualified name), so a lambda or a nested function cannot cross the
    process boundary; without this check the failure is an opaque
    ``PicklingError``.  A ``functools.partial`` is checked through to its
    function and callable arguments.  *caller* names the API the user
    called, for the error message.
    """
    if isinstance(fn, functools.partial):
        for part in (fn.func, *fn.args):
            if callable(part):
                check_picklable(part, caller)
        return
    name = getattr(fn, "__name__", "")
    qualname = getattr(fn, "__qualname__", name)
    if name == "<lambda>" or "<locals>" in qualname:
        kind = (
            "a lambda" if name == "<lambda>"
            else f"defined inside {qualname.split('.<locals>')[0]}()"
        )
        raise ConfigurationError(
            f"{caller} needs a picklable work function, but {fn!r} is {kind} "
            "and cannot be sent to worker processes. Move it to module level "
            "(bind parameters with functools.partial), or use jobs=1 instead."
        )


@dataclass(frozen=True, slots=True)
class Event:
    """One thing that happened to a dispatched task, or to an idle worker.

    *kind* is ``ok`` (*value* holds the return value), ``error`` (the task
    raised; *permanent* marks a ReproError, *traceback* is the worker-side
    trace), ``died`` (the worker exited without replying; *task_id* is
    None when it was idle), ``timeout`` or ``stalled`` (the worker was
    killed).  *elapsed* is seconds since dispatch.
    """

    kind: str
    task_id: Hashable = None
    value: object = None
    message: str = ""
    permanent: bool = False
    traceback: str | None = None
    elapsed: float = 0.0


def _failure(exc: BaseException) -> dict:
    """The :class:`Event` fields describing a task's exception."""
    return {
        "message": f"{type(exc).__name__}: {exc}",
        "permanent": isinstance(exc, ReproError),
        "traceback": traceback.format_exc(),
    }


# -- worker process ----------------------------------------------------------


def _exit_with_parent() -> None:
    """Exit this worker as soon as its parent process is gone."""
    parent = mp.parent_process()
    if parent is None:
        return

    def watch():
        connection_wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True, name="repro-parent-watch").start()


def _worker_main(conn, fn, heartbeat, one_task) -> None:
    """Worker loop: receive ``(task_id, item)``, reply with the outcome.

    ``None`` (or EOF) stops it.  With *heartbeat* a beat thread pings the
    parent that often while a task runs; with *one_task* the worker exits
    after its first reply, so every task gets a fresh process.
    """
    # An inherited drain handler must not stop terminate() from working,
    # and a terminal Ctrl+C is the parent's to handle.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _exit_with_parent()
    lock = threading.Lock()  # beats and replies share the pipe

    def send(msg):
        with lock:
            conn.send(msg)

    def beat(stop):
        while not stop.wait(heartbeat):
            try:
                send(("hb", None, None))
            except (OSError, ValueError):
                return

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        task_id, item = msg
        stop = threading.Event()
        if heartbeat:
            threading.Thread(target=beat, args=(stop,), daemon=True).start()
        try:
            reply = ("ok", task_id, fn(item))
        except BaseException as exc:  # noqa: BLE001 -- ship everything home
            reply = ("error", task_id, _failure(exc))
        finally:
            stop.set()
        try:
            send(reply)
        except (OSError, ValueError):
            return
        if one_task:
            return


def _terminate(proc) -> None:
    """Terminate-then-kill: SIGTERM, a grace join, then SIGKILL."""
    proc.terminate()
    proc.join(TERM_GRACE_S)
    if proc.exitcode is None:
        proc.kill()
        proc.join(TERM_GRACE_S)


# -- pools --------------------------------------------------------------------


class _Slot:
    """One worker process, its pipe, and the task it is running (if any)."""

    __slots__ = ("proc", "conn", "task_id", "started", "deadline", "last_beat")


class WorkerPool:
    """N supervised worker processes running one task function.

    The caller owns the pool from one thread: :meth:`dispatch` items to
    idle workers, :meth:`poll` for :class:`Event` records, :meth:`close`
    (or leave the ``with`` block).  Task ids are any hashable but None.

    *heartbeat* makes busy workers beat that often; *stall_after* kills a
    busy worker whose last beat is older.  *one_task* gives every task a
    fresh process.  Workers are not daemonic, so a task may start worker
    processes of its own.
    """

    def __init__(
        self,
        fn: Callable,
        size: int,
        *,
        caller: str,
        heartbeat: float | None = None,
        stall_after: float | None = None,
        one_task: bool = False,
    ):
        if size < 1:
            raise ConfigurationError(f"pool size must be >= 1, got {size}")
        check_picklable(fn, caller)
        self._ctx = subprocess_context()
        self._args = (fn, heartbeat, one_task)
        self._one_task = one_task
        self._stall_after = stall_after
        self._slots = [_Slot() for _ in range(size)]
        for slot in self._slots:
            self._spawn(slot)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(kill=exc_type is not None)

    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        slot.proc = self._ctx.Process(
            target=_worker_main, args=(child_conn, *self._args), daemon=False
        )
        slot.proc.start()
        child_conn.close()  # the parent keeps only its own end
        slot.conn = parent_conn
        slot.task_id = slot.deadline = None

    def _replace(self, slot: _Slot) -> None:
        _terminate(slot.proc)
        slot.conn.close()
        self._spawn(slot)

    @property
    def idle(self) -> int:
        """How many workers can take a dispatch right now."""
        return sum(slot.task_id is None for slot in self._slots)

    def running(self) -> dict:
        """``task_id -> seconds since dispatch`` for every busy worker."""
        now = time.monotonic()
        return {
            s.task_id: now - s.started for s in self._slots if s.task_id is not None
        }

    def dispatch(self, task_id: Hashable, item, timeout: float | None = None) -> None:
        """Hand *item* to an idle worker; *timeout* is its wall-clock budget."""
        slot = next((s for s in self._slots if s.task_id is None), None)
        if slot is None:
            raise RuntimeError("dispatch with no idle worker (caller bug)")
        try:
            slot.conn.send((task_id, item))
        except (OSError, ValueError):  # died while idle: replace and resend
            self._replace(slot)
            slot.conn.send((task_id, item))
        slot.task_id = task_id
        slot.started = slot.last_beat = time.monotonic()
        slot.deadline = None if timeout is None else slot.started + timeout

    def poll(self, timeout: float) -> list[Event]:
        """Wait up to *timeout* seconds for events; return as soon as any occur."""
        end = time.monotonic() + timeout
        while True:
            wait = max(0.0, self._next_expiry(end) - time.monotonic())
            waitables = [s.conn for s in self._slots] + [
                s.proc.sentinel for s in self._slots
            ]
            ready = connection_wait(waitables, wait)
            events = []
            for slot in self._slots:
                if slot.conn in ready or slot.proc.sentinel in ready:
                    events.extend(self._collect(slot))
            events.extend(self._expire())
            if events or time.monotonic() >= end:
                return events

    def _next_expiry(self, end: float) -> float:
        """The earliest deadline or stall instant of a busy worker (or *end*)."""
        times = [end]
        for slot in self._slots:
            if slot.task_id is None:
                continue
            if slot.deadline is not None:
                times.append(slot.deadline)
            if self._stall_after is not None:
                times.append(slot.last_beat + self._stall_after)
        return min(times)

    def _collect(self, slot: _Slot) -> list[Event]:
        """Read everything a worker sent, then handle its exit if it exited."""
        events = []
        try:
            while slot.conn.poll():
                kind, task_id, value = slot.conn.recv()
                now = time.monotonic()
                slot.last_beat = now
                if kind == "hb":
                    continue
                elapsed = now - slot.started
                slot.task_id = slot.deadline = None
                if kind == "ok":
                    events.append(Event("ok", task_id, value=value, elapsed=elapsed))
                else:
                    events.append(Event("error", task_id, elapsed=elapsed, **value))
        except (EOFError, OSError):
            pass  # the sentinel reports the exit
        if events and self._one_task:  # the worker exits after its reply
            slot.proc.join(TERM_GRACE_S)
            self._replace(slot)
        elif not slot.proc.is_alive():
            task_id = slot.task_id
            elapsed = 0.0 if task_id is None else time.monotonic() - slot.started
            message = f"worker died without a result (exit code {slot.proc.exitcode})"
            self._replace(slot)
            events.append(Event("died", task_id, message=message, elapsed=elapsed))
        return events

    def _expire(self) -> list[Event]:
        """Kill and replace busy workers past their deadline or heartbeat."""
        events = []
        now = time.monotonic()
        for slot in self._slots:
            if slot.task_id is None:
                continue
            if slot.deadline is not None and now >= slot.deadline:
                kind = "timeout"
                why = f"exceeded its {slot.deadline - slot.started:.1f}s deadline"
            elif (
                self._stall_after is not None
                and now - slot.last_beat >= self._stall_after
            ):
                kind = "stalled"
                why = f"sent no heartbeat for {self._stall_after:.1f}s"
            else:
                continue
            task_id, elapsed = slot.task_id, now - slot.started
            self._replace(slot)
            events.append(
                Event(kind, task_id, message=f"task {why}; worker killed",
                      elapsed=elapsed)
            )
        return events

    def map(self, items: Iterable) -> list:
        """Run every item, ``size`` at a time; return the values in order.

        Raises :class:`RuntimeError` naming the first item that failed.
        """
        items = list(items)
        values: list = [None] * len(items)
        sent = done = 0
        while done < len(items):
            while self.idle and sent < len(items):
                self.dispatch(sent, items[sent])
                sent += 1
            for event in self.poll(_MAP_WAIT_S):
                if event.task_id is None:
                    continue  # an idle worker died and was replaced
                if event.kind != "ok":
                    raise RuntimeError(
                        f"task {event.task_id} failed: {event.message}"
                    )
                values[event.task_id] = event.value
                done += 1
        return values

    def close(self, kill: bool = False) -> None:
        """Stop every worker: idle ones politely unless *kill*, busy ones by force."""
        polite = [] if kill else [s for s in self._slots if s.task_id is None]
        for slot in polite:
            try:
                slot.conn.send(None)
            except (OSError, ValueError):
                pass
        for slot in self._slots:
            if slot in polite:
                slot.proc.join(TERM_GRACE_S)
            _terminate(slot.proc)
            slot.conn.close()
        self._slots = []


class InlinePool:
    """The :class:`WorkerPool` contract run in the calling process.

    For ``jobs=1`` paths: a dispatch runs the task at once and its event
    waits for the next :meth:`poll`.  Nothing is isolated, so there are no
    ``died``, ``timeout`` or ``stalled`` events, and a
    ``KeyboardInterrupt`` reaches the caller.
    """

    def __init__(self, fn: Callable):
        self._fn = fn
        self._events: list[Event] = []

    def __enter__(self) -> "InlinePool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def idle(self) -> int:
        """1 until the last dispatch's event has been polled, then 0."""
        return 0 if self._events else 1

    def running(self) -> dict:
        """Always empty: a dispatch has finished by the time it returns."""
        return {}

    def dispatch(self, task_id: Hashable, item, timeout: float | None = None) -> None:
        """Run the task now (*timeout* is ignored: nothing could kill it)."""
        started = time.monotonic()
        try:
            fields = {"value": self._fn(item)}
            kind = "ok"
        except Exception as exc:  # noqa: BLE001 -- mirrors the worker loop
            fields, kind = _failure(exc), "error"
        self._events.append(
            Event(kind, task_id, elapsed=time.monotonic() - started, **fields)
        )

    def poll(self, timeout: float) -> list[Event]:
        """The pending event, or an empty list after sleeping *timeout*."""
        if not self._events:
            time.sleep(timeout)
        events, self._events = self._events, []
        return events

    def close(self, kill: bool = False) -> None:
        """Nothing to stop."""


class Backlog:
    """Pending entries in FIFO order, each held back until its ``not_before``.

    Entries are any objects with a ``not_before`` attribute (a
    :func:`time.monotonic` instant; 0 means ready).  Not thread-safe.
    """

    def __init__(self, entries: Iterable = ()):
        self._queue = deque(entries)

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, entry) -> None:
        """Append *entry* at the back."""
        self._queue.append(entry)

    def pop_ready(self, now: float):
        """Pop the first ready entry, rotating held-back ones; None if none."""
        for _ in range(len(self._queue)):
            entry = self._queue.popleft()
            if entry.not_before <= now:
                return entry
            self._queue.append(entry)
        return None

    def wakeup(self, now: float) -> float:
        """Seconds until the next held-back entry is ready (inf if none is)."""
        return min(
            (e.not_before - now for e in self._queue if e.not_before > now),
            default=math.inf,
        )
