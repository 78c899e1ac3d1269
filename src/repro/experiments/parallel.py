"""Parallel replication: fan experiment repetitions across processes.

The experiment harness is embarrassingly parallel: every repetition is an
independent simulation with a pre-derived seed.  This module provides a
drop-in parallel variant of :func:`repro.experiments.harness.replicate`
that maps chunks of repetitions over a :class:`repro.supervise.WorkerPool`
(simulations are pure CPU and hold the GIL, so threads would not help).

Determinism is preserved by construction: seeds are derived *before*
dispatch from ``(root_seed, path, rep)``, so results are identical to the
serial runner regardless of scheduling -- verified by
``tests/experiments/test_parallel.py``.

Work functions must be picklable (module-level functions plus plain-data
arguments); the experiment modules' ``_one``-style helpers qualify.  For
closures, fall back to the serial :func:`replicate`.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.rng import derive_seed
from repro.supervise import WorkerPool

__all__ = ["replicate_parallel", "default_jobs"]


def default_jobs() -> int:
    """A sensible process count: physical-ish core count, at least 1."""
    return max(1, (os.cpu_count() or 2) - 1)


def _run_chunk(fn: Callable, extra: tuple, seeds: list) -> list:
    """Pool task: ``fn(seed, *extra)`` for every seed of one chunk."""
    return [fn(seed, *extra) for seed in seeds]


def replicate_parallel(
    fn: Callable,
    reps: int,
    root_seed: int,
    *path: int,
    jobs: int | None = None,
    extra_args: Sequence = (),
) -> list:
    """Parallel version of :func:`repro.experiments.harness.replicate`.

    Parameters
    ----------
    fn:
        Picklable callable ``fn(seed, *extra_args)``.
    reps, root_seed, path:
        Replication count and stable seed-derivation path, exactly as for
        the serial ``replicate``.
    jobs:
        Process count (``None`` -> :func:`default_jobs`; ``1`` runs
        serially in-process, with identical results).
    extra_args:
        Additional positional arguments forwarded to every call.
    """
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    seeds = [derive_seed(root_seed, *path, r) for r in range(reps)]
    extra = tuple(extra_args)
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or reps == 1:
        return [fn(seed, *extra) for seed in seeds]
    chunk = max(1, reps // (jobs * 4))  # a few chunks per worker cuts IPC
    chunks = [seeds[i:i + chunk] for i in range(0, reps, chunk)]
    task = functools.partial(_run_chunk, fn, extra)
    with WorkerPool(task, min(jobs, len(chunks)), caller="replicate_parallel") as pool:
        return [value for values in pool.map(chunks) for value in values]
