"""Dead-rep compaction: stream contract, edge cases and result order.

The compaction loop (:func:`~repro.sim.batched.simulate_uniform_batched`
with an explicit ``compact_interval``) draws from the *packed* stream,
which is *schedule-invariant*: every ``compact_interval`` choice produces
bit-identical results, because per-slot stream consumption equals the
number of active columns in ascending original order -- a quantity that
does not depend on when packing happens.  Its bitstream differs from the
full-width ``compact_interval=None`` reference, but the law is the same
(KS-checked here, differential-checked in
``tests/resilience/test_differential.py``).

The case table deliberately includes the edge cases: a column retiring
at the first opportunity (``n=1``), a cell where *no* column retires
(timeout), ``interval=1``, and faults combined with compaction.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.adversary.vector import make_batched_adversary
from repro.errors import ConfigurationError
from repro.protocols.vector import (
    VectorEstimationPolicy,
    VectorLESKPolicy,
    VectorLESUPolicy,
    VectorNoCDSweepPolicy,
)
from repro.resilience.faults import FaultModel
from repro.sim.batched import simulate_uniform_batched

T = 8
EPS = 0.5

ARRAY_FIELDS = [
    "slots",
    "elected",
    "leaders",
    "first_single_slot",
    "jams",
    "jam_denied",
    "transmissions",
    "listening",
    "policy_completed",
    "timed_out",
    "leader_survived",
    "policy_results",
]


def _faults():
    return FaultModel(
        flip_rate=0.05,
        erase_rate=0.05,
        crash_rate=0.002,
        join_slots=(5, 12),
        downgrade_slots=(3, 9),
        skew_rate=0.01,
    )


# name -> (engine kwargs, policy factory, strategy, reps, seed, extra kwargs)
CASES = {
    "reactive-lesk": (
        dict(n=64, max_slots=400),
        lambda r: VectorLESKPolicy(EPS, r),
        "reactive",
        8,
        1234,
        {},
    ),
    "lesu-estimator-attacker": (
        dict(n=64, max_slots=600),
        VectorLESUPolicy,
        "estimator-attacker",
        6,
        77,
        {},
    ),
    "estimation-completes": (
        dict(n=256, max_slots=400, halt_on_single=False),
        VectorEstimationPolicy,
        "collision-forcer",
        8,
        55,
        {},
    ),
    "nocd-single-suppressor": (
        dict(n=64, max_slots=600),
        VectorNoCDSweepPolicy,
        "single-suppressor",
        8,
        42,
        {},
    ),
    "random-jammer-lesk": (
        dict(n=64, max_slots=300),
        lambda r: VectorLESKPolicy(EPS, r),
        "random",
        32,
        7,
        {},
    ),
    "faults-plus-compaction": (
        dict(n=64, max_slots=300),
        lambda r: VectorLESKPolicy(EPS, r),
        "saturating",
        32,
        11,
        dict(faults=_faults()),
    ),
    "no-column-retires": (
        dict(n=64, max_slots=8),
        lambda r: VectorLESKPolicy(EPS, r),
        "saturating",
        8,
        3,
        {},
    ),
    "all-retire-first-slot": (
        dict(n=1, max_slots=50),
        lambda r: VectorLESKPolicy(EPS, r),
        "none",
        8,
        9,
        {},
    ),
}


def run_case(name: str, *, compact_interval):
    kw, pol, strategy, reps, seed, extra = CASES[name]
    return simulate_uniform_batched(
        pol,
        adversary_factory=lambda r: make_batched_adversary(strategy, T, EPS, r),
        reps=reps,
        root_seed=seed,
        compact_interval=compact_interval,
        **kw,
        **extra,
    )


def assert_identical(a, b) -> None:
    for field in ARRAY_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        if x is None or y is None:
            assert x is None and y is None, field
        else:
            np.testing.assert_array_equal(x, y, err_msg=field)


class TestPackedScheduleInvariance:
    """The packed stream is invariant under the packing schedule."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_all_intervals_agree(self, case):
        base = run_case(case, compact_interval=1)
        for interval in (2, 4, 16, 37):
            got = run_case(case, compact_interval=interval)
            assert_identical(base, got)


class TestPackedLaw:
    """Packed draws change the bitstream but not the law."""

    def test_ks_vs_no_compaction(self):
        def times(compact_interval, seed):
            batch = simulate_uniform_batched(
                lambda r: VectorLESKPolicy(EPS, r),
                64,
                lambda r: make_batched_adversary("reactive", T, EPS, r),
                reps=300,
                max_slots=100_000,
                root_seed=seed,
                compact_interval=compact_interval,
            )
            assert batch.elected.all()
            return batch.slots.astype(float)

        packed = times(16, seed=101)
        full_width = times(None, seed=202)
        ks = stats.ks_2samp(packed, full_width)
        assert ks.pvalue > 1e-4


class TestResultsOrder:
    """``results()`` stays in original-rep order under any retirement order.

    The estimator-attacker LESU cell retires columns far out of index
    order (single-digit and near-timeout slot counts interleaved), so a
    compaction bug that reported packed positions instead of original
    rep indices would scramble this comparison.
    """

    def test_results_match_no_compaction_elementwise(self):
        # Packing after every slot vs. rarely: the packed stream is the
        # same, so only a rep-index mix-up could make these differ.
        base = run_case("lesu-estimator-attacker", compact_interval=37)
        got = run_case("lesu-estimator-attacker", compact_interval=1)
        # Retirement order must actually be shuffled for this test to
        # bite: some later column retires before an earlier one.
        order = np.argsort(base.slots, kind="stable")
        assert not np.array_equal(order, np.arange(base.reps))
        assert got.results() == base.results()
        for r, res in enumerate(got.results()):
            assert res.slots == int(base.slots[r])

    def test_packed_results_keep_rep_alignment(self):
        base = run_case("random-jammer-lesk", compact_interval=1)
        got = run_case("random-jammer-lesk", compact_interval=16)
        assert got.results() == base.results()


class TestValidation:
    def test_zero_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            run_case("reactive-lesk", compact_interval=0)
