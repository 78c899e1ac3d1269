"""The engine choice never changes a production cell's results.

Every cell kind runs through :func:`repro.experiments.harness.replicate_batched`,
which hands the cell to the megakernel's fused path or to the batched
compaction loop (:func:`repro.sim.megakernel.megakernel_eligibility`).
Both consume the packed stream, so each cell must equal the batched
engine at *any* compaction interval, bit for bit.  The full-width
``compact_interval=None`` reference stream is the negative control: same
law (KS), different bits -- it is what would leak in if a cell ever
reached the engine without an interval.
"""

from __future__ import annotations

import pytest
from scipy import stats

from repro.adversary.vector import make_batched_adversary
from repro.experiments.cells import CELL_KINDS, run_cell
from repro.rng import derive_seed
from repro.sim.batched import simulate_uniform_batched

N, EPS, T = 64, 0.5, 8
REPS = 96
SEED, PATH = 2015, (13, 4)


def _engine(kind: str, adversary: str, compact_interval):
    cell = CELL_KINDS[kind]
    return simulate_uniform_batched(
        lambda width: cell.policy(EPS, width),
        N,
        lambda width: make_batched_adversary(adversary, T=T, eps=EPS, reps=width),
        reps=REPS,
        max_slots=cell.budget(N, EPS, T),
        root_seed=derive_seed(SEED, *PATH),
        compact_interval=compact_interval,
    ).results()


@pytest.mark.parametrize("adversary", ["saturating", "random", "reactive"])
@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_cell_matches_packed_stream_at_any_interval(kind, adversary):
    got = run_cell(kind, N, EPS, T, adversary, REPS, SEED, *PATH)
    for interval in (1, 16):
        assert got == _engine(kind, adversary, interval), interval

    full_width = _engine(kind, adversary, None)
    assert got != full_width
    ks = stats.ks_2samp([r.slots for r in got], [r.slots for r in full_width])
    assert ks.pvalue > 1e-4
