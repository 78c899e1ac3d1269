"""Tests for the parallel replication runner (repro.experiments.parallel)."""

from __future__ import annotations

import pytest

from repro.core.election import elect_leader
from repro.errors import ConfigurationError
from repro.experiments.harness import replicate
from repro.experiments.parallel import default_jobs, replicate_parallel


def _slots(seed: int, n: int = 128) -> int:
    """Module-level (picklable) work function."""
    result = elect_leader(n=n, eps=0.5, T=8, adversary="saturating", seed=seed)
    return result.slots


class TestDeterminism:
    def test_matches_serial_replicate(self):
        serial = replicate(lambda s: _slots(s), 12, 77, 3)
        parallel = replicate_parallel(_slots, 12, 77, 3, jobs=3)
        assert serial == parallel

    def test_jobs_one_is_serial(self):
        a = replicate_parallel(_slots, 6, 42, jobs=1)
        b = replicate_parallel(_slots, 6, 42, jobs=2)
        assert a == b

    def test_extra_args_forwarded(self):
        small = replicate_parallel(_slots, 4, 1, jobs=2, extra_args=(32,))
        large = replicate_parallel(_slots, 4, 1, jobs=2, extra_args=(4096,))
        # More stations -> longer elections, with the same seeds.
        assert sum(large) > sum(small)

    def test_order_is_by_repetition_index(self):
        seeds_out = replicate_parallel(lambda s: s, 8, 5, jobs=1)
        assert seeds_out == replicate(lambda s: s, 8, 5)


class TestValidation:
    def test_bad_reps(self):
        with pytest.raises(ConfigurationError):
            replicate_parallel(_slots, 0, 1)

    def test_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            replicate_parallel(_slots, 2, 1, jobs=0)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_lambda_rejected_with_actionable_message(self):
        with pytest.raises(ConfigurationError, match="picklable"):
            replicate_parallel(lambda s: s, 4, 1, jobs=2)

    def test_closure_rejected_with_actionable_message(self):
        def local_fn(seed):
            return seed

        with pytest.raises(ConfigurationError, match="module level"):
            replicate_parallel(local_fn, 4, 1, jobs=2)

    def test_lambda_still_fine_on_the_serial_path(self):
        assert replicate_parallel(lambda s: s, 4, 5, jobs=1) == replicate(
            lambda s: s, 4, 5
        )

    def test_scheduler_lambda_rejected_naming_the_scheduler(self):
        from repro.experiments.cells import CellSpec
        from repro.experiments.harness import ShardedScheduler

        spec = CellSpec(
            kind="lesk", n=32, eps=0.5, T=8, adversary="saturating",
            reps=8, root_seed=1, path=(0,),
        )
        with pytest.raises(
            ConfigurationError, match="ShardedScheduler.run needs a picklable"
        ):
            with ShardedScheduler(jobs=2, block_size=4) as sched:
                sched.run(lambda item: ([], None), [spec])
