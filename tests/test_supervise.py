"""Contract tests for the worker-pool primitive under every supervised layer.

One table-driven test pins what :meth:`WorkerPool.poll` reports for each
way a task can end, and whether the worker behind it was replaced; the
rest pin idle-death respawn, the parent-death reaping of workers, the
inline pool, and the backlog.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.supervise import Backlog, InlinePool, WorkerPool


def _task(item):
    """Module-level (picklable) task: ``(op, arg)``."""
    op, arg = item
    if op == "pid":
        return os.getpid()
    if op == "raise":
        raise arg
    if op == "sleep":
        time.sleep(arg)
    if op == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if op == "stop":  # a wedged process: no more heartbeats either
        os.kill(os.getpid(), signal.SIGSTOP)
    return arg


def _next_event(pool, limit=10.0):
    deadline = time.monotonic() + limit
    while time.monotonic() < deadline:
        events = pool.poll(0.5)
        if events:
            (event,) = events
            return event
    raise AssertionError("no event from the pool")


def _worker_pid(pool):
    pool.dispatch("pid", ("pid", None))
    event = _next_event(pool)
    assert (event.kind, event.task_id) == ("ok", "pid")
    return event.value


# item, dispatch timeout, event kind, permanent, worker replaced
CASES = {
    "ok": (("echo", 7), None, "ok", False, False),
    "error-permanent": (("raise", ConfigurationError("bad")), None, "error", True, False),
    "error-transient": (("raise", ValueError("flaky")), None, "error", False, False),
    "sigkill-died": (("kill", None), None, "died", False, True),
    "deadline-timeout": (("sleep", 30.0), 0.3, "timeout", False, True),
    "stale-heartbeat-stalled": (("stop", None), None, "stalled", False, True),
}


@pytest.mark.parametrize("case", list(CASES))
def test_pool_event_contract(case):
    item, timeout, kind, permanent, replaced = CASES[case]
    with WorkerPool(
        _task, 1, caller="test", heartbeat=0.05, stall_after=1.0
    ) as pool:
        before = _worker_pid(pool)
        started = time.monotonic()
        pool.dispatch(case, item, timeout)
        event = _next_event(pool)
        assert (event.kind, event.task_id) == (kind, case)
        assert event.permanent is permanent
        assert time.monotonic() - started < 8.0  # killed, not waited on
        if kind == "ok":
            assert event.value == 7
        elif kind == "error":
            assert type(item[1]).__name__ in event.message
            assert "Traceback" in event.traceback
        else:
            assert "worker" in event.message
        assert pool.idle == 1
        assert (_worker_pid(pool) != before) is replaced


def test_idle_worker_death_is_reported_and_replaced():
    with WorkerPool(_task, 1, caller="test") as pool:
        pid = _worker_pid(pool)
        os.kill(pid, signal.SIGKILL)
        event = _next_event(pool)
        assert (event.kind, event.task_id) == ("died", None)
        assert _worker_pid(pool) != pid


def test_one_task_gives_every_task_a_fresh_process():
    with WorkerPool(_task, 1, caller="test", one_task=True) as pool:
        assert _worker_pid(pool) != _worker_pid(pool)


def test_map_returns_values_in_order():
    with WorkerPool(_task, 2, caller="test") as pool:
        assert pool.map([("echo", i) for i in range(7)]) == list(range(7))


def test_closure_rejected_naming_the_caller():
    def local(item):
        return item

    with pytest.raises(ConfigurationError, match="my_api needs a picklable"):
        WorkerPool(local, 1, caller="my_api")


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


ORPHAN_DRILL = textwrap.dedent(
    """
    import os, time
    from repro.supervise import WorkerPool

    def task(item):
        while item == "hang":
            time.sleep(0.05)
        return os.getpid()

    if __name__ == "__main__":
        with WorkerPool(task, 2, caller="orphan drill") as pool:
            pool.dispatch(1, "pid")
            pool.dispatch(2, "pid")
            pids = []
            while len(pids) < 2:
                pids += [event.value for event in pool.poll(1.0)]
            pool.dispatch(3, "hang")  # one worker hangs, the other idles
            print(*pids, flush=True)
            time.sleep(600)
    """
)


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
def test_workers_die_with_a_sigkilled_parent():
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[1] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", ORPHAN_DRILL], stdout=subprocess.PIPE, env=env,
        text=True,
    )
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
        assert len(pids) == 2 and all(_alive(p) for p in pids)
        time.sleep(0.2)  # let the hang start
        proc.send_signal(signal.SIGKILL)
        proc.wait(10)
        deadline = time.monotonic() + 5.0
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [p for p in pids if _alive(p)]
    finally:
        proc.kill()
        proc.wait(10)
        proc.stdout.close()
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"workers {survivors} outlived their parent"


def test_inline_pool_runs_at_dispatch():
    pool = InlinePool(_task)
    pool.dispatch("a", ("echo", 3))
    assert pool.idle == 0
    (event,) = pool.poll(10.0)
    assert (event.kind, event.value, pool.idle) == ("ok", 3, 1)
    pool.dispatch("b", ("raise", ConfigurationError("bad")))
    (event,) = pool.poll(10.0)
    assert (event.kind, event.permanent) == ("error", True)
    assert pool.poll(0.01) == []


class _Entry:
    def __init__(self, name, not_before=0.0):
        self.name, self.not_before = name, not_before


def test_backlog_rotates_held_back_entries():
    backlog = Backlog([_Entry("late", 10.0), _Entry("a"), _Entry("b")])
    assert backlog.pop_ready(5.0).name == "a"
    assert backlog.pop_ready(5.0).name == "b"
    assert backlog.pop_ready(5.0) is None
    assert backlog.wakeup(5.0) == 5.0
    assert backlog.pop_ready(10.0).name == "late"
    assert len(backlog) == 0 and backlog.wakeup(10.0) == float("inf")
