"""Tests for the sharded sweep scheduler (ShardedScheduler + CellSpec).

The determinism law: the rep-block partition and per-block seeds depend
only on ``(reps, block_size)`` and the spec's seed path -- never on the
job count -- so any ``jobs`` produces bit-identical results.  Telemetry
shards produced inside worker processes must come home to the parent sink,
an engine fallback is counted and logged, and an unbatchable adversary
fails loudly instead of silently running elsewhere.
"""

from __future__ import annotations

import logging

import pytest

from repro import telemetry
from repro.core.config import default_slot_budget
from repro.errors import ConfigurationError
from repro.experiments.cells import (
    CellSpec,
    cell_slot_budget,
    run_cell,
    run_cells_sharded,
)
from repro.experiments.harness import ShardedScheduler
from repro.sim import instrumentation
from repro.sim.instrumentation import record_engine_fallback

SPECS = [
    CellSpec(
        kind="lesk", n=64, eps=0.5, T=8, adversary="single-suppressor",
        reps=40, root_seed=11, path=(1, 0),
    ),
    CellSpec(
        kind="lesu", n=64, eps=0.5, T=8, adversary="saturating",
        reps=40, root_seed=11, path=(1, 1),
    ),
]


def _key(results):
    return [(r.slots, r.elected, r.jams) for r in results]


class TestDeterminism:
    def test_jobs_do_not_change_results(self):
        serial = run_cells_sharded(SPECS, jobs=1, block_size=16)
        pooled = run_cells_sharded(SPECS, jobs=3, block_size=16)
        assert [_key(c) for c in serial] == [_key(c) for c in pooled]

    def test_results_grouped_per_spec_in_order(self):
        cells = run_cells_sharded(SPECS, jobs=1, block_size=16)
        assert len(cells) == len(SPECS)
        for spec, results in zip(SPECS, cells):
            assert len(results) == spec.reps
            assert all(r.n == spec.n for r in results)

    def test_block_partition(self):
        with ShardedScheduler(jobs=1, block_size=16) as sched:
            assert sched.blocks_for(40) == [16, 16, 8]
            assert sched.blocks_for(16) == [16]
            assert sched.blocks_for(3) == [3]

    def test_block_partition_edge_cases(self):
        with ShardedScheduler(jobs=1, block_size=1) as unit:
            assert unit.blocks_for(1) == [1]
            assert unit.blocks_for(5) == [1] * 5
        with ShardedScheduler(jobs=1, block_size=16) as sched:
            assert sched.blocks_for(1) == [1]
            assert sched.blocks_for(17) == [16, 1]  # remainder of one
            assert sched.blocks_for(15) == [15]  # single short block
            assert sched.blocks_for(48) == [16, 16, 16]  # exact multiple
        with ShardedScheduler(jobs=1, block_size=10**6) as huge:
            assert huge.blocks_for(7) == [7]  # block_size >> reps

    def test_block_partition_covers_reps_exactly(self):
        with ShardedScheduler(jobs=1, block_size=7) as sched:
            for reps in range(1, 60):
                blocks = sched.blocks_for(reps)
                assert sum(blocks) == reps
                assert all(b == 7 for b in blocks[:-1])
                assert 1 <= blocks[-1] <= 7


class TestBlockSeedCollisionFreedom:
    """Property test: block seeds ``(root_seed, *path, SHARD_BLOCK_TAG, b)``
    depend only on the spec and the partition -- so for any job count and
    any kill schedule the per-spec results are bit-identical, and no two
    (spec, block) units can share a seed path."""

    SPECS = [
        CellSpec(
            kind="lesk", n=32, eps=0.5, T=8, adversary="saturating",
            reps=24, root_seed=5, path=(6, i),
        )
        for i in range(3)
    ]

    @pytest.mark.parametrize(
        "jobs,kill_schedule",
        [
            (1, None),
            (2, None),
            (3, None),
            (2, "block0:kill@1"),
            (2, "block2:kill@1,block5:kill@1"),
            (3, "block1:kill@1,block1:kill@2,block4:kill@1"),
        ],
    )
    def test_any_jobs_and_kill_schedule_bit_identical(self, jobs, kill_schedule):
        from repro.experiments.faults import FaultPlan
        from repro.experiments.retry import RetryPolicy

        reference = run_cells_sharded(self.SPECS, jobs=1, block_size=8)
        plan = (
            FaultPlan.from_spec(kill_schedule) if kill_schedule else None
        )
        chaotic = run_cells_sharded(
            self.SPECS, jobs=jobs, block_size=8, fault_plan=plan,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.001),
        )
        assert [_key(c) for c in chaotic] == [_key(c) for c in reference]

    def test_seed_paths_are_unique_across_blocks_and_specs(self):
        from repro.experiments.cells import SHARD_BLOCK_TAG

        paths = set()
        with ShardedScheduler(jobs=1, block_size=8) as sched:
            for spec in self.SPECS:
                for b, _ in enumerate(sched.blocks_for(spec.reps)):
                    path = (spec.root_seed, *spec.path, SHARD_BLOCK_TAG, b)
                    assert path not in paths
                    paths.add(path)
        assert len(paths) == 9  # 3 specs x 3 blocks

    def test_blocks_of_one_spec_produce_distinct_streams(self):
        """Adjacent blocks must not reuse seeds: identical parameters,
        different block index, different replicate outcomes."""
        cells = run_cells_sharded(
            [self.SPECS[0]], jobs=1, block_size=8
        )
        blocks = [_key(cells[0][i * 8:(i + 1) * 8]) for i in range(3)]
        assert blocks[0] != blocks[1] != blocks[2]


class TestTelemetryMerge:
    def test_worker_shards_merge_into_parent_sink(self):
        spec = CellSpec(
            kind="lesk", n=64, eps=0.5, T=8, adversary="saturating",
            reps=32, root_seed=7, path=(2,),
        )
        with telemetry.collecting() as sink:
            run_cells_sharded([spec], jobs=3, block_size=8)
        assert sink.metrics.counter_total("jam_slots_total") > 0

    def test_in_process_path_merges_once_not_twice(self):
        """jobs=1 runs shards in-process, where ``collecting()`` already
        merges outward; the scheduler must not merge the same shard again."""
        spec = CellSpec(
            kind="lesk", n=64, eps=0.5, T=8, adversary="saturating",
            reps=16, root_seed=7, path=(2,),
        )
        with telemetry.collecting() as once:
            run_cells_sharded([spec], jobs=1, block_size=16)
        with telemetry.collecting() as pooled:
            run_cells_sharded([spec], jobs=2, block_size=16)
        assert (
            once.metrics.counter_total("jam_slots_total")
            == pooled.metrics.counter_total("jam_slots_total")
            > 0
        )


class TestLoudFallback:
    def test_counter_and_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(instrumentation, "_FALLBACK_LOGGED", set())
        with telemetry.collecting() as sink:
            with caplog.at_level(logging.INFO, logger="repro.sim.instrumentation"):
                record_engine_fallback("megakernel", "test", "the batched loop")
                record_engine_fallback("megakernel", "test", "the batched loop")
        assert (
            sink.metrics.counter_value(
                "engine_fallback_total", engine="megakernel", reason="test"
            )
            == 2
        )
        logged = [
            r for r in caplog.records
            if "megakernel engine does not serve" in r.getMessage()
            and "running the batched loop instead" in r.getMessage()
        ]
        assert len(logged) == 1  # logged once, counted twice

    def test_unbatchable_adversary_fails_loudly(self, monkeypatch):
        """A strategy without a batched implementation never runs on some
        other engine in silence: the cell refuses it by name."""
        from repro.adversary import suite
        from repro.adversary.oblivious import NoJamming

        monkeypatch.setitem(
            suite.STRATEGY_REGISTRY, "scalar-only", lambda T, eps: NoJamming()
        )
        with pytest.raises(ConfigurationError, match="'scalar-only' has no batched"):
            run_cell("lesk", 64, 0.5, 8, "scalar-only", 4, 13, 0)


class TestScheduleCache:
    def test_budget_cache_transparent(self):
        cell_slot_budget.cache_clear()
        a = cell_slot_budget(64, 0.5, 8, "lesu")
        b = cell_slot_budget(64, 0.5, 8, "lesu")
        assert a == b == default_slot_budget(64, 0.5, 8, "lesu")
        assert cell_slot_budget.cache_info().hits >= 1

    def test_lesu_schedule_cache_matches_fresh_iterator(self):
        """The memoised diagonal schedule table is lazily extended but must
        reproduce :func:`repro.protocols.lesu.lesu_schedule` exactly."""
        from repro.protocols.lesu import DEFAULT_C, lesu_schedule
        from repro.protocols.vector import _lesu_table

        _lesu_table.cache_clear()
        table = _lesu_table(DEFAULT_C, 3)
        assert _lesu_table(DEFAULT_C, 3) is table
        assert _lesu_table.cache_info().hits == 1
        fresh = lesu_schedule(DEFAULT_C * 2.0 ** (1 + 3))
        for i, sub in zip(range(8), fresh):
            got = table.get(i)
            assert (got.eps, got.duration) == (sub.eps, sub.duration)

    def test_lesu_schedule_cache_fixed_seed_pin(self):
        """Cached schedules must not perturb results: the estimator
        attacker forces real election-phase sub-runs (so the cache is
        actually consumed), repeated cells stay bit-identical, and a
        fixed-seed pin freezes the values."""
        from repro.protocols.vector import _lesu_table

        _lesu_table.cache_clear()
        first = run_cell("lesu", 256, 0.5, 8, "single-suppressor", 6, 77, 5)
        assert _lesu_table.cache_info().currsize >= 1
        second = run_cell("lesu", 256, 0.5, 8, "single-suppressor", 6, 77, 5)
        assert _lesu_table.cache_info().hits >= 1
        assert _key(first) == _key(second)
        # Fixed-seed pin guarding the cached schedule/budget combination.
        assert tuple(r.slots for r in first) == (12, 95, 88, 11, 11, 11)
        assert all(r.elected for r in first)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="cell kind"):
            CellSpec(
                kind="nope", n=8, eps=0.5, T=8, adversary="none",
                reps=1, root_seed=0, path=(),
            )

    def test_bad_reps_rejected(self):
        with pytest.raises(ConfigurationError, match="reps"):
            CellSpec(
                kind="lesk", n=8, eps=0.5, T=8, adversary="none",
                reps=0, root_seed=0, path=(),
            )

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedScheduler(jobs=0)

    def test_bad_block_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedScheduler(block_size=0)
