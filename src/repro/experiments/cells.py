"""Shared experiment cells: replicated runs of one uniform protocol.

The experiment tables all fill cells with "reps replications of
protocol(n, eps, T) against a named adversary".  Every cell kind in
:data:`CELL_KINDS` is a vector policy plus a slot-budget rule, and
:func:`run_cell` runs any of them through one engine entry,
:func:`repro.experiments.harness.replicate_batched`: the slot-blocked
megakernel where the configuration allows it, the batched compaction loop
otherwise -- bit-identical either way (both consume the packed stream), so
no cell chooses an engine.

Cell kinds: ``lesk`` (Algorithm 1), ``lesu`` (Algorithm 2, unknown
eps/T), ``estimation`` (Function 2), ``sweep`` (Nakano--Olariu CD
baseline) and ``nocd`` (no-CD repeated sweep).  All derive their seeds
from ``(root_seed, *path)`` with :func:`repro.rng.derive_seed` and return
plain ``RunResult`` lists, so the downstream ``summarize_times``
summaries are engine-agnostic.

For multi-cell sweeps, :class:`CellSpec` + :func:`run_cells_sharded` chunk
``(cell x rep-block)`` work units across a worker-process pool
(:class:`~repro.experiments.harness.ShardedScheduler`): each block runs
the cell with the path extended by ``(SHARD_BLOCK_TAG, block_index)``, so
block seeds are stable under any job count, and each worker ships its
telemetry shard home for merging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, NamedTuple

from repro import telemetry
from repro.adversary.vector import make_batched_adversary
from repro.core.config import default_slot_budget
from repro.errors import ConfigurationError
from repro.experiments.harness import (
    SHARD_BLOCK_TAG,
    ShardedScheduler,
    replicate_batched,
)
from repro.protocols.vector import (
    VectorEstimationPolicy,
    VectorLESKPolicy,
    VectorLESUPolicy,
    VectorNoCDSweepPolicy,
    VectorSweepPolicy,
)

__all__ = [
    "run_cell",
    "cell_slot_budget",
    "CellKind",
    "CellSpec",
    "CELL_KINDS",
    "run_shard",
    "run_cell_direct",
    "run_cells",
    "run_cells_sharded",
    "run_cells_sharded_report",
]


@lru_cache(maxsize=4096)
def cell_slot_budget(n: int, eps: float, T: int, protocol: str) -> int:
    """Memoised :func:`~repro.core.config.default_slot_budget`.

    Every cell of a sweep (and every rep-block of a sharded cell) with the
    same ``(n, eps, T)`` shares one computed budget instead of re-deriving
    it; the value is pure in its arguments, so caching is invisible to the
    fixed-seed pins that guard it (``tests/experiments/test_sharded.py``).
    """
    return default_slot_budget(n, eps, T, protocol)


def estimation_slot_budget(n: int, T: int) -> int:
    """The generous Estimation(2) slot cap used by experiment T4."""
    return int(1024 * max(T, math.log2(max(n, 2))) + 4096)


class CellKind(NamedTuple):
    """How one cell kind runs: its vector policy and default slot budget."""

    policy: Callable  # (eps, width) -> VectorUniformPolicy
    budget: Callable  # (n, eps, T) -> max_slots


def _default_budget(protocol: str) -> Callable:
    return lambda n, eps, T: cell_slot_budget(n, eps, T, protocol)


#: Cell-kind registry (names are :attr:`CellSpec.kind`).  The baselines
#: share LESK's slot budget; Estimation gets the generous T4 cap.
CELL_KINDS: dict[str, CellKind] = {
    "lesk": CellKind(
        lambda eps, w: VectorLESKPolicy(eps, w), _default_budget("lesk")
    ),
    "lesu": CellKind(lambda eps, w: VectorLESUPolicy(w), _default_budget("lesu")),
    "estimation": CellKind(
        lambda eps, w: VectorEstimationPolicy(w, L=2),
        lambda n, eps, T: estimation_slot_budget(n, T),
    ),
    "sweep": CellKind(lambda eps, w: VectorSweepPolicy(w), _default_budget("lesk")),
    "nocd": CellKind(
        lambda eps, w: VectorNoCDSweepPolicy(w), _default_budget("lesk")
    ),
}


def run_cell(
    kind: str,
    n: int,
    eps: float,
    T: int,
    adversary: str,
    reps: int,
    root_seed: int,
    *path: int,
    max_slots: int | None = None,
    faults=None,
) -> list:
    """Replicated runs of cell *kind* for one table cell.

    All *reps* replications advance together through
    :func:`~repro.experiments.harness.replicate_batched`.  ``max_slots=None``
    selects the kind's budget rule.  *faults* (a
    :class:`~repro.resilience.faults.FaultModel`) composes into the run;
    estimation results carry ``policy_result`` (the returned round index).
    """
    cell = CELL_KINDS[kind]
    return replicate_batched(
        lambda width: cell.policy(eps, width),
        n,
        lambda width: make_batched_adversary(adversary, T=T, eps=eps, reps=width),
        reps,
        root_seed,
        *path,
        max_slots=max_slots if max_slots is not None else cell.budget(n, eps, T),
        faults=faults,
    )


@dataclass(frozen=True, slots=True)
class CellSpec:
    """One shardable table cell: a cell kind plus its full configuration.

    Plain frozen data so it pickles across the worker-pool boundary; the
    ``path`` is the cell's seed-derivation path exactly as passed to the
    unsharded cell functions.  ``faults`` composes a model-level
    :class:`~repro.resilience.faults.FaultModel` into the cell.
    """

    kind: str
    n: int
    eps: float
    T: int
    adversary: str
    reps: int
    root_seed: int
    path: tuple[int, ...]
    max_slots: int | None = None
    faults: object | None = None  # resilience.faults.FaultModel

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            known = ", ".join(sorted(CELL_KINDS))
            raise ConfigurationError(
                f"unknown cell kind {self.kind!r}; known: {known}"
            )
        if self.reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {self.reps}")

    def to_jsonable(self) -> dict:
        """Plain-data form that round-trips exactly through JSON.

        Optional fields at their defaults are omitted, so
        ``from_jsonable(spec.to_jsonable())`` reproduces the spec and
        ``to_jsonable(from_jsonable(data))`` reproduces the dict.
        """
        data = {
            "kind": self.kind,
            "n": self.n,
            "eps": self.eps,
            "T": self.T,
            "adversary": self.adversary,
            "reps": self.reps,
            "root_seed": self.root_seed,
            "path": list(self.path),
        }
        if self.max_slots is not None:
            data["max_slots"] = self.max_slots
        if self.faults is not None:
            data["faults"] = self.faults.to_jsonable()
        return data

    @classmethod
    def from_jsonable(cls, data: dict) -> "CellSpec":
        """Inverse of :meth:`to_jsonable`; rejects unknown keys."""
        from repro.resilience.faults import FaultModel

        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown CellSpec fields: {unknown}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        kwargs["path"] = tuple(kwargs.get("path", ()))
        if kwargs.get("faults") is not None:
            kwargs["faults"] = FaultModel.from_jsonable(kwargs["faults"])
        return cls(**kwargs)


def run_shard(item: tuple) -> tuple[list, dict]:
    """Pool work item: one ``(spec, block_index, block_reps)`` rep-block.

    Runs the cell with the seed path extended by ``(SHARD_BLOCK_TAG,
    block_index)`` -- stable under any job count -- inside a scoped
    telemetry collection, and returns ``(results, telemetry_jsonable)``
    so the scheduler can merge worker shards into the parent sink.
    Module-level so pool dispatch can pickle it by reference.
    """
    spec, block_index, block_reps = item
    with telemetry.collecting() as shard:
        results = run_cell(
            spec.kind,
            spec.n,
            spec.eps,
            spec.T,
            spec.adversary,
            block_reps,
            spec.root_seed,
            *spec.path,
            SHARD_BLOCK_TAG,
            block_index,
            max_slots=spec.max_slots,
            faults=spec.faults,
        )
    return results, shard.to_jsonable()


def run_cell_direct(spec: CellSpec) -> list:
    """Run one cell unsharded, exactly as the direct cell call would.

    Bit-identical to calling the cell function with the spec's parameters
    (one batch seed from ``(root_seed, *path)``; no ``SHARD_BLOCK_TAG``
    in the derivation), so experiments that route through
    :func:`run_cells` preserve their fixed-seed pins when sharding is not
    requested.
    """
    return run_cell(
        spec.kind,
        spec.n,
        spec.eps,
        spec.T,
        spec.adversary,
        spec.reps,
        spec.root_seed,
        *spec.path,
        max_slots=spec.max_slots,
        faults=spec.faults,
    )


def run_cells(
    specs,
    jobs: int | None = None,
    block_size: int | None = None,
) -> list[list]:
    """Run several cells, sharding when sharding is configured.

    The single entry point for the sharded experiments (E04/E05/E07/E08/
    E15/E20): with an explicit *jobs* -- or an ambient
    :class:`~repro.experiments.shard_supervisor.ShardContext` installed by
    ``run_all --shard-jobs`` -- the cells run on the supervised sharded
    path (block seeds include ``SHARD_BLOCK_TAG``); otherwise each spec
    runs unsharded via :func:`run_cell_direct`, bit-identical to the
    direct cell calls the experiments used to make.
    """
    from repro.experiments.shard_supervisor import get_shard_context

    context = get_shard_context()
    if jobs is None:
        jobs = context.jobs
    if jobs is None:
        return [run_cell_direct(spec) for spec in specs]
    if block_size is None:
        block_size = context.block_size or 64
    return run_cells_sharded(
        specs,
        jobs=jobs,
        block_size=block_size,
        block_timeout=context.block_timeout,
        checkpoint_dir=context.checkpoint_dir,
        fault_plan=context.fault_plan,
    )


def run_cells_sharded(
    specs,
    jobs: int | None = None,
    block_size: int = 64,
    **supervision,
) -> list[list]:
    """Run several :class:`CellSpec` cells sharded across worker processes.

    Returns one ``RunResult`` list per spec, in spec order; results are
    identical for any ``jobs`` (the rep-block partition and per-block
    seeds depend only on the specs and ``block_size``).  Note the sharded
    law matches the unsharded cell's (same engines, same per-column
    update rules) but the bitstreams differ: block ``b`` seeds from
    ``(root_seed, *path, SHARD_BLOCK_TAG, b)`` rather than one batch seed
    from ``(root_seed, *path)``.

    Extra keyword arguments (``retry``, ``block_timeout``, ``keep_going``,
    ``checkpoint_dir``, ``fault_plan``, ``speculate``, ``supervised``)
    pass through to :class:`~repro.experiments.harness.ShardedScheduler`.
    """
    with ShardedScheduler(jobs=jobs, block_size=block_size, **supervision) as sched:
        return sched.run(run_shard, specs)


def run_cells_sharded_report(
    specs,
    jobs: int | None = None,
    block_size: int = 64,
    **supervision,
):
    """Supervised sharded run returning ``(results, spec_shards, report)``.

    ``spec_shards[i]`` is a per-spec :class:`~repro.telemetry.Telemetry`
    merged from spec *i*'s block shards (None when no telemetry was
    collected, e.g. blocks restored from checkpoint), so callers like the
    E08 jam-efficiency columns can read per-spec counters; ``report`` is
    the supervisor's :class:`~repro.experiments.shard_supervisor
    .ShardReport` (quarantined blocks, retries, speculation).
    """
    with ShardedScheduler(jobs=jobs, block_size=block_size, **supervision) as sched:
        return sched.run_report(run_shard, specs)
