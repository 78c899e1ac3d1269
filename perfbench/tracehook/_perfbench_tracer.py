"""Span wrappers around the public layer boundaries of ``repro``, from outside.

Installed by this directory's ``sitecustomize.py`` when the environment
variable ``PERFBENCH_TRACE_DIR`` names a directory; otherwise nothing here
runs.  A ``sys.meta_path`` finder patches each target module right after
it executes, before any other module can bind its functions with
``from ... import``, so ``e06_notification``'s ``elect_leader`` and the
runner's ``atomic_write_text`` are the wrapped ones.  The hook rides along
into every interpreter the workload starts (runner, shard and fleet
workers, whether forked, forkserver-started or spawned) because they all
inherit the environment.

Each process keeps its spans in memory and appends them, one JSON object a
line, to ``PERFBENCH_TRACE_DIR/spans-<pid>.jsonl`` whenever a thread's
outermost span closes, so workers that leave through ``os._exit`` lose
nothing that finished.  A record is ``{"id", "parent", "name", "start",
"end", "pid"}`` plus optional counts (``reps``, ``bytes``, ``blocks``,
``retries``, ``dispatched``).
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import itertools
import json
import numbers
import os
import sys
import threading
import time

_DIR = os.environ.get("PERFBENCH_TRACE_DIR", "")

# module -> {attribute or "Class.method": span name}
TARGETS: dict[str, dict[str, str]] = {
    "repro.core.election": {"elect_leader": "election"},
    "repro.sim.engine": {"simulate_stations": "engine.scalar"},
    "repro.sim.fast": {"simulate_uniform_fast": "engine.fast"},
    "repro.sim.fast_notification": {"simulate_notification_fast": "engine.fast"},
    "repro.sim.vectorized": {"simulate_stations_vectorized": "engine.vectorized"},
    "repro.sim.batched": {"simulate_uniform_batched": "engine.batched"},
    "repro.sim.megakernel": {
        "simulate_uniform_megakernel": "engine.megakernel",
        "_record_fallback": "engine.megakernel.fallback",
    },
    "repro.experiments.harness": {
        "replicate": "harness",
        "replicate_batched": "harness",
        "replicate_megakernel": "harness",
        "replicate_vectorized": "harness",
        "ShardedScheduler.run_report": "shard",
    },
    "repro.experiments.checkpoint": {"atomic_write_text": "io.checkpoint"},
    "repro.service.scenario": {
        "parse_scenario": "scenario.compile",
        "load_scenario": "scenario.compile",
        "expand": "scenario.compile",
    },
    "repro.service.store": {
        "RunStore.register": "store.write",
        "RunStore.set_state": "store.write",
        "RunStore.append_journal": "store.write",
        "RunStore.save_table": "store.write",
        "RunStore.serve_table": "store.read",
        "RunStore.progress": "store.read",
        "RunStore.query": "store.read",
        "RunStore.execute": "service.exec",
    },
    "repro.service.ledger": {
        f"RunLedger.{m}": "ledger"
        for m in (
            "record", "annotate", "record_attempt", "forget", "query",
            "count", "states", "failures", "transitions", "reconcile",
        )
    },
}
BASELINES_PREFIX = "repro.protocols.baselines."
EXPERIMENT_PREFIX = "repro.experiments.e"

_ids = itertools.count()
_local = threading.local()
_lock = threading.Lock()
_buffer: list[dict] = []
_pid = os.getpid()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _flush() -> None:
    global _buffer
    with _lock:
        if not _buffer:
            return
        lines, _buffer = _buffer, []
        with open(os.path.join(_DIR, f"spans-{_pid}.jsonl"), "a") as fh:
            fh.write("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in lines))


def _after_fork_in_child() -> None:
    # The parent's spans are the parent's to flush; a lock another thread
    # held at fork time would never be released in the child.
    global _buffer, _local, _lock, _pid
    _buffer, _local, _lock, _pid = [], threading.local(), threading.Lock(), os.getpid()


def _argument(fn, args: tuple, kwargs: dict, param: str):
    """The value *fn* received for *param*, passed by position or keyword."""
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(param)
    except (TypeError, ValueError):
        return None


def _counts(name: str, fn, args: tuple, kwargs: dict, result) -> dict:
    """Work counts read off a call's arguments or result (never its timing)."""
    if name == "engine.batched":
        reps = _argument(fn, args, kwargs, "reps")
        return {"reps": int(reps)} if isinstance(reps, numbers.Integral) else {}
    if name == "io.checkpoint":
        text = _argument(fn, args, kwargs, "text")
        return {"bytes": len(text.encode())} if isinstance(text, str) else {}
    if name == "shard" and isinstance(result, tuple) and len(result) == 3:
        report = result[2]
        dispatched = (
            report.completed + report.retries + report.redispatches
            + report.speculative_launches
        )
        return {"blocks": report.completed, "retries": report.retries,
                "dispatched": dispatched}
    return {}


def span(name: str, fn):
    """Wrap *fn* so each call records one span named *name*."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        record = {"id": f"{_pid}:{next(_ids)}", "parent": stack[-1] if stack else None,
                  "name": name, "pid": _pid}
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            record.update(_counts(name, fn, args, kwargs, result))
            with _lock:
                _buffer.append(record)
            if not stack:
                _flush()

    return wrapper


def _patch(module) -> None:
    name = module.__name__
    targets = dict(TARGETS.get(name, {}))
    if name.startswith(BASELINES_PREFIX):
        for attr, obj in vars(module).items():
            if attr.endswith("_fast") and not attr.startswith("_") and callable(obj) \
                    and getattr(obj, "__module__", None) == name:
                targets[attr] = "engine.fast"
    if name.startswith(EXPERIMENT_PREFIX) and callable(getattr(module, "run", None)):
        targets["run"] = "table." + name.rsplit(".", 1)[1]
    for attr, span_name in targets.items():
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, method, None)
        if fn is not None:  # a renamed boundary reports zero calls, not a crash
            setattr(owner, method, span(span_name, fn))


def _wanted(name: str) -> bool:
    return (
        name in TARGETS
        or name.startswith(BASELINES_PREFIX)
        or (name.startswith(EXPERIMENT_PREFIX) and name[len(EXPERIMENT_PREFIX):][:2].isdigit())
    )


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, inner):
        self.inner = inner

    def create_module(self, spec):
        return self.inner.create_module(spec)

    def exec_module(self, module):
        self.inner.exec_module(module)
        _patch(module)


class _Finder(importlib.abc.MetaPathFinder):
    def find_spec(self, fullname, path, target=None):
        if not _wanted(fullname):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _PatchingLoader(spec.loader)
        return spec


def install() -> None:
    """Put the patching finder first on ``sys.meta_path`` (idempotent)."""
    if any(isinstance(f, _Finder) for f in sys.meta_path):
        return
    sys.meta_path.insert(0, _Finder())
    os.register_at_fork(after_in_child=_after_fork_in_child)
    import atexit

    atexit.register(_flush)
