"""Differential mode: every engine's semantics in lockstep, per cell kind.

The fuzz class is the load-bearing test: for every production cell kind,
100 + 50 random configurations (station count, eps, T, adversary pattern,
corruption faults, seed) must produce ZERO divergences between the
per-station adapter stack, the shared scalar-policy stack, the vector
stacks and (where the kind has a ladder) the megakernel stack.  Any
semantic drift between the engines' update rules shows up here as a
first-diverging slot.
"""

import itertools

import numpy as np
import pytest

from repro.channel.faulty import corrupt_observed, corrupt_observed_batch
from repro.errors import ConfigurationError
from repro.experiments.cells import CELL_KINDS
from repro.resilience.differential import (
    ADAPTIVE_DIFFERENTIAL_ADVERSARIES,
    DETERMINISTIC_ADVERSARIES,
    SCALAR_POLICIES,
    STACKS,
    DifferentialConfig,
    _FastStack,
    _SharedWorld,
    first_diverging_slot,
    run_differential,
)
from repro.resilience.faults import FaultModel, SlotFaults
from repro.types import ChannelState

KINDS = tuple(CELL_KINDS)

#: Every (kind, stack) pair the harness runs.
KIND_STACKS = [
    (kind, stack)
    for kind in KINDS
    for stack in DifferentialConfig(n=1, kind=kind).stacks
]


class TestAgreement:
    @pytest.mark.parametrize("adversary", DETERMINISTIC_ADVERSARIES)
    def test_fault_free(self, adversary):
        for seed in range(3):
            report = run_differential(
                DifferentialConfig(n=16, adversary=adversary, seed=seed, max_slots=400)
            )
            assert report.agreed, report.divergence.describe()
            assert report.slots_compared > 0

    def test_corruption_faults(self):
        faults = FaultModel(
            flip_rate=0.05, erase_rate=0.05, downgrade_slots=(3, 7, 11)
        )
        for seed in range(3):
            report = run_differential(
                DifferentialConfig(
                    n=12, adversary="burst", seed=seed, max_slots=400, faults=faults
                )
            )
            assert report.agreed, report.divergence.describe()

    def test_single_station(self):
        report = run_differential(DifferentialConfig(n=1, seed=0, max_slots=50))
        assert report.agreed

    @pytest.mark.parametrize("adversary", ADAPTIVE_DIFFERENTIAL_ADVERSARIES)
    def test_adaptive_scalar_vector_strategy_pairs(self, adversary):
        """The real scalar strategy (scalar/fast stacks) and its vector
        counterpart (vector stack) must want the same jams slot by slot."""
        for seed in range(3):
            report = run_differential(
                DifferentialConfig(
                    n=64, adversary=adversary, seed=seed, max_slots=512
                )
            )
            assert report.agreed, report.divergence.describe()
            assert report.slots_compared > 0

    def test_adaptive_with_corruption_faults(self):
        """Corruption rewrites the policies' feedback but never the
        adversary's trace (the jammer knows what it jammed), so the
        stacks stay comparable under adaptive strategies too."""
        faults = FaultModel(flip_rate=0.05, erase_rate=0.05, downgrade_slots=(2, 9))
        for adversary in ("reactive", "silence-masker"):
            report = run_differential(
                DifferentialConfig(
                    n=16, adversary=adversary, seed=4, max_slots=400, faults=faults
                )
            )
            assert report.agreed, report.divergence.describe()


class TestTamper:
    @pytest.mark.parametrize("stack", STACKS)
    def test_detected_at_seeded_slot(self, stack):
        config = DifferentialConfig(
            n=16, adversary="none", seed=1, max_slots=400, tamper=(stack, 5)
        )
        report = run_differential(config)
        assert not report.agreed
        assert report.divergence.slot == 5
        assert stack in (report.divergence.stack_a, report.divergence.stack_b)

    def test_bisection_finds_seeded_slot(self):
        config = DifferentialConfig(
            n=16, adversary="saturating", seed=2, max_slots=400, tamper=("fast", 9)
        )
        assert first_diverging_slot(config) == 9

    def test_detected_under_adaptive_adversary(self):
        config = DifferentialConfig(
            n=64, adversary="reactive", seed=3, max_slots=512, tamper=("vector", 5)
        )
        report = run_differential(config)
        assert not report.agreed
        assert report.divergence.slot == 5
        assert first_diverging_slot(config) == 5

    def test_bisection_none_when_agreed(self):
        config = DifferentialConfig(n=8, seed=3, max_slots=200)
        assert first_diverging_slot(config) is None

    @pytest.mark.parametrize("kind,stack", KIND_STACKS)
    def test_detected_for_every_kind_and_stack(self, kind, stack):
        # n=512 under the saturating jammer keeps every kind running past
        # the tampered slot (n=16 unjammed ends LESU/Estimation early).
        config = DifferentialConfig(
            n=512, adversary="saturating", seed=1, max_slots=400,
            tamper=(stack, 5), kind=kind,
        )
        report = run_differential(config)
        assert not report.agreed
        assert report.divergence.slot == 5
        assert stack in (report.divergence.stack_a, report.divergence.stack_b)
        assert first_diverging_slot(config) == 5


class TestConfigValidation:
    def test_churn_rejected(self):
        with pytest.raises(ConfigurationError, match="corruption faults only"):
            DifferentialConfig(n=8, faults=FaultModel(crash_rate=0.01))

    def test_skew_rejected(self):
        with pytest.raises(ConfigurationError, match="corruption faults only"):
            DifferentialConfig(n=8, faults=FaultModel(skew_rate=0.01))

    def test_unknown_adversary_rejected(self):
        with pytest.raises(ConfigurationError, match="deterministic"):
            DifferentialConfig(n=8, adversary="adaptive-mystery")

    def test_randomized_adversary_rejected(self):
        # "random" draws from an RNG per slot: it cannot be shared-world
        # coupled across stacks and must stay excluded.
        with pytest.raises(ConfigurationError, match="deterministic"):
            DifferentialConfig(n=8, adversary="random")

    def test_unknown_tamper_stack_rejected(self):
        with pytest.raises(ConfigurationError, match="tamper stack"):
            DifferentialConfig(n=8, tamper=("gpu", 3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="cell kind"):
            DifferentialConfig(n=8, kind="aloha")

    @pytest.mark.parametrize("kind", ["lesu", "estimation"])
    def test_megakernel_tamper_rejected_without_ladder(self, kind):
        with pytest.raises(ConfigurationError, match="tamper stack"):
            DifferentialConfig(n=8, kind=kind, tamper=("megakernel", 3))


class TestKinds:
    def test_one_scalar_policy_per_cell_kind(self):
        assert set(SCALAR_POLICIES) == set(CELL_KINDS)

    def test_megakernel_stack_follows_the_ladders(self):
        laddered = {
            kind for kind in KINDS
            if "megakernel" in DifferentialConfig(n=1, kind=kind).stacks
        }
        assert laddered == {"lesk", "sweep", "nocd"}
        for kind in KINDS:
            assert DifferentialConfig(n=1, kind=kind).stacks[:4] == STACKS[:4]

    def test_lesu_fuzz_reaches_the_election_phase(self):
        """The LESU fuzz must exercise the sub-run schedule, not only the
        estimation phase."""
        elections = 0
        for config in _deterministic_configs("lesu"):
            world = _SharedWorld(config)
            stack = _FastStack(config)
            for slot in range(config.max_slots):
                stack.step(slot, world)
                if stack.halted:
                    break
            elections += stack.policy.phase == "election"
        assert elections >= 20


class TestCorruptionRule:
    @pytest.mark.parametrize(
        "state,flip,downgrade",
        list(itertools.product(ChannelState, (False, True), (False, True))),
    )
    def test_batch_rule_matches_scalar_rule(self, state, flip, downgrade):
        flags = SlotFaults(
            awake=1, p_scale=1.0, flip=flip, erase=False, downgrade=downgrade
        )
        expected = int(corrupt_observed(state, flags))
        observed = np.array([int(state)], dtype=np.int8)
        # downgrade as a batch-wide bool (batched engine) and as a mask
        # (vectorized engine); flip as a mask.
        for dg in (downgrade, np.array([downgrade])):
            out = corrupt_observed_batch(observed, np.array([flip]), dg)
            assert int(out[0]) == expected
        assert int(observed[0]) == int(state)  # never written in place


def _deterministic_configs(kind):
    rng = np.random.default_rng(20260805)
    for i in range(100):
        n = int(rng.integers(1, 24))
        eps = float(rng.choice([0.3, 0.5, 0.7]))
        T = int(rng.choice([4, 8, 16]))
        adversary = str(rng.choice(DETERMINISTIC_ADVERSARIES))
        if rng.random() < 0.5:
            faults = FaultModel(
                flip_rate=float(rng.uniform(0, 0.15)),
                erase_rate=float(rng.uniform(0, 0.15)),
                downgrade_slots=tuple(
                    sorted(int(s) for s in rng.integers(0, 60, size=rng.integers(0, 4)))
                ),
            )
        else:
            faults = FaultModel()
        yield DifferentialConfig(
            n=n, eps=eps, T=T, adversary=adversary,
            max_slots=250, seed=int(rng.integers(1 << 30)), faults=faults,
            kind=kind,
        )


def _adaptive_configs(kind):
    rng = np.random.default_rng(20260806)
    for i in range(50):
        n = int(rng.integers(1, 96))
        eps = float(rng.choice([0.3, 0.5, 0.7]))
        T = int(rng.choice([4, 8, 16]))
        adversary = str(rng.choice(ADAPTIVE_DIFFERENTIAL_ADVERSARIES))
        if rng.random() < 0.3:
            faults = FaultModel(
                flip_rate=float(rng.uniform(0, 0.1)),
                erase_rate=float(rng.uniform(0, 0.1)),
            )
        else:
            faults = FaultModel()
        yield DifferentialConfig(
            n=n, eps=eps, T=T, adversary=adversary,
            max_slots=250, seed=int(rng.integers(1 << 30)), faults=faults,
            kind=kind,
        )


class TestFuzz:
    @pytest.mark.parametrize("kind", KINDS)
    def test_100_random_configs_zero_divergences(self, kind):
        diverged = []
        for config in _deterministic_configs(kind):
            report = run_differential(config)
            if not report.agreed:
                diverged.append((config, report.divergence.describe()))
        assert not diverged, diverged[:3]

    @pytest.mark.parametrize("kind", KINDS)
    def test_50_random_adaptive_configs_zero_divergences(self, kind):
        diverged = []
        for config in _adaptive_configs(kind):
            report = run_differential(config)
            if not report.agreed:
                diverged.append((config, report.divergence.describe()))
        assert not diverged, diverged[:3]
