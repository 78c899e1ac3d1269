"""Differential mode: every engine's slot semantics in lockstep, per protocol.

The engines cannot be compared run-for-run -- they consume their RNG
streams differently (per-station coin flips vs one binomial draw vs a
batched binomial), so their bitstreams legitimately diverge.  What *must*
agree is the **semantics**: given the same transmitter uniforms, jam
decisions and fault corruption, every implementation of a protocol has to
produce the same probabilities, observations and halting decisions slot by
slot.  This module runs exactly that comparison, for each production cell
kind (:data:`repro.experiments.cells.CELL_KINDS`), selected by
:attr:`DifferentialConfig.kind`.

One skeleton, :meth:`_Stack.step`, owns the world side of a slot: the jam
intent, the budget grant, channel resolution, fault corruption, the
``tamper=`` self-test and the halting fingerprint.  It runs either the
scalar expressions (:class:`~repro.adversary.budget.JammingBudget`,
:func:`~repro.channel.channel.resolve_slot` +
:func:`~repro.channel.faulty.corrupt_observed`) or the array engines' own
(:class:`~repro.adversary.budget.JammingBudgetArray`,
:func:`~repro.channel.faulty.observe_batch_states` +
:func:`~repro.channel.faulty.corrupt_observed_batch`).  Each *stack*
supplies only its protocol side:

* ``scalar``  -- real :class:`~repro.protocols.base.UniformStationAdapter`
  instances (one per station, each with its own copy of the kind's
  :data:`SCALAR_POLICIES` policy) fed scripted per-station uniforms, with
  :func:`~repro.channel.feedback.feedback_for` delivery;
* ``fast``    -- one shared scalar policy (the fast engine's semantics);
* ``vector``  -- the kind's production vector policy, one column wide
  (the batched engine's semantics);
* ``vectorized`` -- the vectorized *faithful* engine's semantics
  (:mod:`repro.sim.vectorized`): a width-``n`` vector policy, one column
  per station cell, per-cell transmit decisions ``U < p`` from the shared
  uniforms, and the engine's strong-CD halting rule;
* ``megakernel`` -- the slot-blocked engine's update arithmetic
  (:mod:`repro.sim.megakernel`): the kind's ladder with the engine's
  default outcome kernel, stepped one slot at a time so any drift between
  the fused block arithmetic and the per-slot policies diverges here.  It
  runs only for kinds whose vector policy has a ladder
  (:attr:`DifferentialConfig.stacks`).

The shared world fixes, per slot: one uniform per station (transmit iff
``U < p``, the adapters' own coupling), the participation mask, the fault
corruption flags, and a jam-intent sequence that is a *deterministic
function of public history* -- either one of the scripted patterns in
:data:`DETERMINISTIC_ADVERSARIES`, or one of the suite's adaptive
strategies (:data:`ADAPTIVE_DIFFERENTIAL_ADVERSARIES`): those condition
only on the trace / protocol state and never draw randomness, so the
scalar stacks can host the real scalar
:class:`~repro.adversary.base.JammingStrategy` and the vector stacks the
real :class:`~repro.adversary.vector.VectorJammingStrategy`, exercising
the scalar-vs-vector adversary pair in the same lockstep harness.
(*Randomized* strategies would entangle RNG streams and stay excluded.)
Every stack computes its own ``p``, its own jam intent, its own budget
grant and its own observed state; per-slot fingerprints are compared with
a small float tolerance (``np.exp2(-u)`` and ``2.0**-u`` may differ in
the last ulp).  A run halts at a heard ``Single`` or when the protocol
completes on its own (Estimation returning its round).

:func:`run_differential` scans and reports the first divergence;
:func:`first_diverging_slot` binary-searches it by re-running prefixes
(the bisection advertised by the auditor's differential mode).  A
``tamper=(stack, slot)`` option deliberately corrupts one stack's
observation in one slot -- the self-test proving the checker detects real
divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.adversary.base import AdversaryView
from repro.adversary.budget import JammingBudget, JammingBudgetArray
from repro.adversary.suite import STRATEGY_REGISTRY
from repro.adversary.vector import BATCHED_STRATEGY_REGISTRY, BatchAdversaryView
from repro.channel.channel import resolve_slot
from repro.channel.faulty import (
    corrupt_observed,
    corrupt_observed_batch,
    observe_batch_states,
)
from repro.channel.feedback import feedback_for
from repro.errors import ConfigurationError
from repro.experiments.cells import CELL_KINDS
from repro.protocols.base import UniformStationAdapter
from repro.protocols.baselines.nakano_olariu import NoCDSweepPolicy, UniformSweepPolicy
from repro.protocols.estimation import EstimationPolicy
from repro.protocols.lesk import LESKPolicy
from repro.protocols.lesu import LESUPolicy
from repro.resilience.faults import NO_FAULTS, FaultModel
from repro.rng import make_rng
from repro.sim.kernels import get_lesk_kernel
from repro.sim.megakernel import _LADDERS
from repro.types import Action, CDMode, ChannelState, PerceivedState, SlotFeedback

__all__ = [
    "DifferentialConfig",
    "SlotFingerprint",
    "Divergence",
    "DifferentialReport",
    "run_differential",
    "first_diverging_slot",
    "STACKS",
    "SCALAR_POLICIES",
    "DETERMINISTIC_ADVERSARIES",
    "ADAPTIVE_DIFFERENTIAL_ADVERSARIES",
]

STACKS = ("scalar", "fast", "vector", "vectorized", "megakernel")

#: The scalar policy of each cell kind (``eps -> UniformPolicy``), with the
#: parameters of the kind's production vector policy in ``CELL_KINDS``.
SCALAR_POLICIES = {
    "lesk": lambda eps: LESKPolicy(eps),
    "lesu": lambda eps: LESUPolicy(),
    "estimation": lambda eps: EstimationPolicy(L=2),
    "sweep": lambda eps: UniformSweepPolicy(),
    "nocd": lambda eps: NoCDSweepPolicy(),
}

#: Scripted jam-intent patterns (slot -> want-jam); cover
#: never/always/periodic/bursty without any adversary state.  (The
#: "periodic-front" here is the local 4T-period script, not the suite's
#: Lemma 2.7 jammer -- the scripts are private to differential mode.)
DETERMINISTIC_ADVERSARIES = ("none", "saturating", "periodic-front", "burst")

#: Suite strategies usable in differential mode: the adaptive family is
#: deterministic given public history (no RNG draws), so each stack hosts
#: its own instance -- scalar strategies for the scalar/fast stacks, their
#: vector counterparts for the vector stacks -- and the harness checks the
#: *pair* agrees slot by slot.  Randomized strategies ("random") stay out.
ADAPTIVE_DIFFERENTIAL_ADVERSARIES = (
    "reactive",
    "single-suppressor",
    "estimator-attacker",
    "silence-masker",
    "collision-forcer",
)

#: ``2.0**-u`` (scalar) vs ``np.exp2(-u)`` (vector) may differ by one ulp.
FLOAT_TOL = 1e-12

_ERASED = -1  # observed-state code for a fault-erased slot


def _want_jam(adversary: str, slot: int, T: int) -> bool:
    if adversary == "none":
        return False
    if adversary == "saturating":
        return True
    if adversary == "periodic-front":
        # Jam the front half of each 4T-slot period.
        return (slot % (4 * T)) < 2 * T
    if adversary == "burst":
        # T-slot bursts, one period in three.
        return (slot // T) % 3 == 0
    raise ConfigurationError(
        f"unknown deterministic adversary {adversary!r}; "
        f"known: {DETERMINISTIC_ADVERSARIES}"
    )


class _TraceShim:
    """Minimal stand-in for :class:`~repro.channel.trace.ChannelTrace`.

    Records the *pre-fault-corruption* observed state per slot -- exactly
    what the real engines' traces feed the adversary (the jammer knows what
    it jammed and is not fooled by corrupted feedback).  Only the query the
    adaptive suite actually performs (``observed_state``) is implemented.
    """

    __slots__ = ("_observed",)

    def __init__(self) -> None:
        self._observed: list[int] = []

    def record(self, slot: int, observed: ChannelState) -> None:
        assert slot == len(self._observed), "slots must be recorded in order"
        self._observed.append(int(observed))

    def observed_state(self, slot: int) -> ChannelState:
        return ChannelState(self._observed[slot])


@dataclass(frozen=True)
class DifferentialConfig:
    """One differential-mode comparison run (strong-CD)."""

    n: int
    eps: float = 0.5
    T: int = 8
    adversary: str = "none"
    max_slots: int = 512
    seed: int = 0
    faults: FaultModel = NO_FAULTS
    #: Deliberately corrupt one stack's observation: ``(stack, slot)``.
    tamper: "tuple[str, int] | None" = None
    #: Protocol under test: a :data:`~repro.experiments.cells.CELL_KINDS` name.
    kind: str = "lesk"

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.faults.has_churn or self.faults.skew_rate:
            # Churn/skew make the faithful engine genuinely non-uniform (a
            # station that misses a slot misses that observation, so its
            # policy state drifts from the shared one); the uniform engines
            # approximate this by probability thinning.  Only corruption
            # faults -- which rewrite the *shared* observation identically
            # for everyone -- keep the semantics comparable slot by slot.
            # See docs/resilience.md.
            raise ConfigurationError(
                "differential mode supports corruption faults only "
                "(flip/erase/downgrade); churn and clock skew legitimately "
                "desynchronize the faithful engine from the uniform ones"
            )
        if self.max_slots < 1:
            raise ConfigurationError(f"max_slots must be >= 1, got {self.max_slots}")
        known = DETERMINISTIC_ADVERSARIES + ADAPTIVE_DIFFERENTIAL_ADVERSARIES
        if self.adversary not in known:
            raise ConfigurationError(
                f"differential mode needs a deterministic (scripted or "
                f"history-conditioned) adversary, got {self.adversary!r}; "
                f"known: {known}"
            )
        if self.kind not in SCALAR_POLICIES:
            raise ConfigurationError(
                f"unknown cell kind {self.kind!r}; known: {tuple(SCALAR_POLICIES)}"
            )
        if self.tamper is not None and self.tamper[0] not in self.stacks:
            raise ConfigurationError(
                f"tamper stack must be one of {self.stacks} for kind "
                f"{self.kind!r}, got {self.tamper[0]!r}"
            )

    @property
    def stacks(self) -> tuple[str, ...]:
        """The stacks hosting :attr:`kind`: the megakernel stack runs only
        when the kind's vector policy has a megakernel ladder."""
        laddered = type(CELL_KINDS[self.kind].policy(self.eps, 1)) in _LADDERS
        return STACKS if laddered else tuple(s for s in STACKS if s != "megakernel")


@dataclass(frozen=True)
class SlotFingerprint:
    """Observable behaviour of one stack in one slot."""

    slot: int
    p: float
    k: int
    jammed: bool
    observed: int  # ChannelState code; _ERASED for a withheld observation
    halted: bool
    u: float

    def matches(self, other: "SlotFingerprint") -> bool:
        """True iff the fingerprints agree: exact on the discrete fields,
        within ``FLOAT_TOL`` on ``p`` and ``u`` (NaN == NaN for ``u``)."""
        if (self.k, self.jammed, self.observed, self.halted) != (
            other.k,
            other.jammed,
            other.observed,
            other.halted,
        ):
            return False
        if not math.isclose(self.p, other.p, rel_tol=0.0, abs_tol=FLOAT_TOL):
            return False
        if math.isnan(self.u) and math.isnan(other.u):
            return True
        return math.isclose(self.u, other.u, rel_tol=0.0, abs_tol=FLOAT_TOL)


@dataclass(frozen=True)
class Divergence:
    """First slot where two stacks disagreed."""

    slot: int
    stack_a: str
    stack_b: str
    fingerprint_a: SlotFingerprint
    fingerprint_b: SlotFingerprint

    def describe(self) -> str:
        """One-line human-readable account of the divergence."""
        return (
            f"stacks {self.stack_a!r} and {self.stack_b!r} diverge at slot "
            f"{self.slot}: {self.fingerprint_a} vs {self.fingerprint_b}"
        )


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one differential comparison."""

    config: DifferentialConfig
    slots_compared: int
    divergence: "Divergence | None"

    @property
    def agreed(self) -> bool:
        return self.divergence is None


class _SharedWorld:
    """Precomputed shared randomness: uniforms, participation, fault flags.

    Everything is realized eagerly so prefix re-runs (the bisection) replay
    the identical world.
    """

    def __init__(self, config: DifferentialConfig) -> None:
        rng = make_rng(config.seed)
        S, n = config.max_slots, config.n
        self.uniforms = rng.random((S, n))
        if config.faults.enabled:
            realized = config.faults.realize(n, S, rng.spawn(1)[0])
            self.participating = np.empty((S, n), dtype=bool)
            self.flags = []
            for slot in range(S):
                mask = realized.station_awake(slot)
                self.participating[slot] = mask
                self.flags.append(realized.begin_slot(slot, int(mask.sum())))
        else:
            self.participating = np.ones((S, n), dtype=bool)
            self.flags = [None] * S


class _ScriptedRng:
    """Stands in for a station's RNG: returns the pre-set shared uniform."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def random(self) -> float:
        return self.value


def _tampered(observed: "ChannelState | None") -> "ChannelState | None":
    """Deliberate single-slot corruption used by the ``tamper`` option."""
    if observed is ChannelState.NULL:
        return ChannelState.COLLISION
    return ChannelState.NULL


class _Stack:
    """One semantic implementation of the protocol, stepped slot by slot.

    :meth:`step` is the shared skeleton; :attr:`vector` selects the scalar
    or the array expressions for the budget, the adversary and the
    channel.  Subclasses supply the protocol side:

    * ``transmit(slot, uniforms, part) -> (p, u, k, view_p, view_u)`` --
      the fingerprint's probability and estimator, the transmitter count,
      and the probability/estimator the adversary is shown;
    * ``update(slot, observed, heard) -> completed`` -- fold the slot's
      corrupted observation (``None`` when erased; ``heard`` marks the
      halting Single) and report whether the protocol finished on its own.
    """

    name: str
    vector = False

    def __init__(self, config: DifferentialConfig) -> None:
        self.config = config
        self.halted = False
        if self.vector:
            self.budget = JammingBudgetArray(config.T, config.eps, reps=1)
            self.active = np.ones(1, dtype=bool)
            registry = BATCHED_STRATEGY_REGISTRY
        else:
            self.budget = JammingBudget(config.T, config.eps)
            self.trace = _TraceShim()
            registry = STRATEGY_REGISTRY
        self.strategy = None
        if config.adversary in ADAPTIVE_DIFFERENTIAL_ADVERSARIES:
            self.strategy = registry[config.adversary](config.T, config.eps)
            if self.vector:
                self.strategy.reset()

    def _want(self, slot: int, p, u):
        cfg = self.config
        if self.strategy is None:
            want = _want_jam(cfg.adversary, slot, cfg.T)
            return np.array([want]) if self.vector else want
        # rng=None asserts the strategy is deterministic: any draw raises.
        if self.vector:
            view = BatchAdversaryView(
                slot=slot,
                n=cfg.n,
                reps=1,
                budget=self.budget,
                transmit_probabilities=p,
                protocol_u=u,
                active=self.active,
            )
            return np.asarray(self.strategy.wants_jam_batch(view, None), dtype=bool)
        view = AdversaryView(
            slot=slot,
            n=cfg.n,
            trace=self.trace,  # type: ignore[arg-type]  # duck-typed shim
            budget=self.budget,
            transmit_probability=p,
            protocol_u=u,
        )
        return bool(self.strategy.wants_jam(view, None))

    def step(self, slot: int, world: _SharedWorld) -> SlotFingerprint:
        flags = world.flags[slot]
        p, u, k, view_p, view_u = self.transmit(
            slot, world.uniforms[slot], world.participating[slot]
        )
        want = self._want(slot, view_p, view_u)
        # The adversary is fed the pre-fault-corruption state: it knows
        # what it jammed and is not fooled by corrupted feedback.
        if self.vector:
            granted = self.budget.grant(want)
            jammed = bool(granted[0])
            observed = observe_batch_states(np.array([k]), granted)
            if self.strategy is not None:
                self.strategy.observe_outcomes(slot, observed, self.active)
            if flags is not None:
                observed = corrupt_observed_batch(
                    observed, flags.flip, flags.downgrade
                )
            erased = flags is not None and flags.erase
            state = None if erased else ChannelState(int(observed[0]))
        else:
            jammed = self.budget.grant(want)
            state = resolve_slot(slot, k, jammed).observed_state
            if self.strategy is not None:
                self.trace.record(slot, state)
            if flags is not None:
                state = corrupt_observed(state, flags)
        if self.config.tamper == (self.name, slot):
            state = _tampered(state)
        heard = k == 1 and not jammed and state is ChannelState.SINGLE
        completed = self.update(slot, state, heard)
        self.halted = heard or completed
        return SlotFingerprint(
            slot=slot,
            p=p,
            k=k,
            jammed=jammed,
            observed=_ERASED if state is None else int(state),
            halted=self.halted,
            u=u,
        )


class _ScalarStack(_Stack):
    """Real per-station adapters + feedback_for."""

    name = "scalar"

    def __init__(self, config: DifferentialConfig) -> None:
        super().__init__(config)
        make_policy = SCALAR_POLICIES[config.kind]
        self.rngs = [_ScriptedRng() for _ in range(config.n)]
        self.stations = []
        for sid, rng in enumerate(self.rngs):
            adapter = UniformStationAdapter(
                make_policy(config.eps), cd_mode=CDMode.STRONG
            )
            adapter.reset(sid, rng)
            self.stations.append(adapter)
        self.actions: dict[int, Action] = {}

    def transmit(self, slot, uniforms, part):
        live = [s for s, alive in zip(self.stations, part) if alive and not s.done]
        hints = [s.transmit_probability_hint() for s in live]
        p = hints[0] if hints else 0.0
        if hints and (max(hints) - min(hints)) > FLOAT_TOL:
            # Per-station probabilities drifted apart: uniformity broke
            # inside this stack.  Surface it as an impossible fingerprint.
            p = math.nan
        u = live[0].u_hint() if live else math.nan
        self.actions = {}
        for sid, station in enumerate(self.stations):
            if part[sid] and not station.done:
                self.rngs[sid].value = uniforms[sid]
                self.actions[sid] = station.begin_slot(slot)
        k = sum(action is Action.TRANSMIT for action in self.actions.values())
        return p, u, k, p, u

    def update(self, slot, observed, heard):
        # Deliver end_slot exactly to the stations that got begin_slot.
        for sid, action in self.actions.items():
            transmitted = action is Action.TRANSMIT
            if observed is None:
                fb = SlotFeedback(
                    transmitted=transmitted, perceived=PerceivedState.UNKNOWN
                )
            else:
                fb = feedback_for(
                    transmitted=transmitted, observed=observed, mode=CDMode.STRONG
                )
            self.stations[sid].end_slot(slot, fb)
        return all(station.done for station in self.stations)


class _FastStack(_Stack):
    """One shared scalar policy (the fast engine's semantics)."""

    name = "fast"

    def __init__(self, config: DifferentialConfig) -> None:
        super().__init__(config)
        self.policy = SCALAR_POLICIES[config.kind](config.eps)

    def transmit(self, slot, uniforms, part):
        p = self.policy.transmit_probability(slot)
        u = self.policy.u
        k = int(np.count_nonzero(part & (uniforms < p)))
        return p, u, k, p, u

    def update(self, slot, observed, heard):
        if not heard and observed is not None:
            self.policy.observe(slot, observed)
        return self.policy.completed


class _VectorStack(_Stack):
    """The kind's production vector policy, one column (batched engine)."""

    name = "vector"
    vector = True

    def __init__(self, config: DifferentialConfig) -> None:
        super().__init__(config)
        self.policy = CELL_KINDS[config.kind].policy(config.eps, 1)

    def transmit(self, slot, uniforms, part):
        p_arr = self.policy.transmit_probabilities(slot)
        p = float(p_arr[0])
        k = int(np.count_nonzero(part & (uniforms < p)))
        return p, float(self.policy.u[0]), k, p_arr, self.policy.u

    def update(self, slot, observed, heard):
        if not heard and observed is not None:
            states = np.array([observed], dtype=np.int8)
            self.policy.observe_batch(slot, states, self.active)
        return bool(self.policy.completed[0])


class _VectorizedStack(_Stack):
    """The vectorized faithful engine's per-cell semantics, one rep: a
    width-``n`` vector policy, one column per station cell."""

    name = "vectorized"
    vector = True

    def __init__(self, config: DifferentialConfig) -> None:
        super().__init__(config)
        self.policy = CELL_KINDS[config.kind].policy(config.eps, config.n)
        self.cell_done = np.zeros(config.n, dtype=bool)
        self.alive = ~self.cell_done

    def transmit(self, slot, uniforms, part):
        p_vec = self.policy.transmit_probabilities(slot)
        u_vec = self.policy.u
        self.alive = part & ~self.cell_done
        live_p = p_vec[self.alive]
        p = float(live_p[0]) if live_p.size else 0.0
        if live_p.size and float(live_p.max() - live_p.min()) > FLOAT_TOL:
            p = math.nan
        u = float(u_vec[self.alive][0]) if live_p.size else math.nan
        # The engine's station-0 probe hints (0.0 once that cell is done).
        p_hint = np.array([0.0 if self.cell_done[0] else p_vec[0]])
        k = int(np.count_nonzero(self.alive & (uniforms < p_vec)))
        return p, u, k, p_hint, u_vec[:1]

    def update(self, slot, observed, heard):
        if not heard and observed is not None:
            states = np.full(self.config.n, observed, dtype=np.int8)
            self.policy.observe_batch(slot, states, self.alive)
            self.cell_done |= self.policy.completed
        return bool(self.cell_done.all())


class _MegakernelStack(_Stack):
    """The megakernel's ladder arithmetic, one rep, one slot at a time.

    The probability comes from the ladder's ``prepare_group`` path (for
    LESK the in-place ``exp2(-u)`` the engine feeds its fused binomial
    draws); Collision outcomes fold through ``apply_collision_only`` (the
    engine's jam-run / all-collision path) and Null/Single outcomes
    through ``apply_free_outcome`` (for LESK the pluggable outcome
    kernel).  Faults are folded from the *observed* state exactly as the
    vector policy would (the engine itself delegates faulty cells to the
    batched engine, but the arithmetic contract is observed-state based
    either way).
    """

    name = "megakernel"
    vector = True

    def __init__(self, config: DifferentialConfig) -> None:
        super().__init__(config)
        policy = CELL_KINDS[config.kind].policy(config.eps, 1)
        self.ladder = _LADDERS[type(policy)](policy, get_lesk_kernel())

    def transmit(self, slot, uniforms, part):
        u = float(np.ravel(self.ladder.u)[0])
        # The engine's probability path: a zero-length jam run plus the
        # free row (no exponent advance).
        p_arr = self.ladder.prepare_group(0, True, 1)[0].copy()
        self.ladder.commit_jams()
        p = float(p_arr[0])
        k = int(np.count_nonzero(part & (uniforms < p)))
        return p, u, k, p_arr, np.array([u])

    def update(self, slot, observed, heard):
        if observed is ChannelState.COLLISION:
            self.ladder.apply_collision_only()
        elif observed is not None and not heard:
            # Null steps down, Single is a no-op -- via the engine's
            # free-slot fold on the observed-state count.
            k_eff = 0 if observed is ChannelState.NULL else 1
            self.ladder.apply_free_outcome(np.array([k_eff], dtype=np.int64))
        return False


_STACK_TYPES = {
    "scalar": _ScalarStack,
    "fast": _FastStack,
    "vector": _VectorStack,
    "vectorized": _VectorizedStack,
    "megakernel": _MegakernelStack,
}


def _run_stack(
    name: str, config: DifferentialConfig, world: _SharedWorld, upto: "int | None" = None
) -> list[SlotFingerprint]:
    """Run one stack over the shared world; stop at halt or *upto* slots."""
    stack = _STACK_TYPES[name](config)
    limit = config.max_slots if upto is None else min(upto, config.max_slots)
    fingerprints = []
    for slot in range(limit):
        fingerprints.append(stack.step(slot, world))
        if stack.halted:
            break
    return fingerprints


def _first_mismatch(
    sequences: dict[str, list[SlotFingerprint]]
) -> "Divergence | None":
    names = list(sequences)
    length = min(len(s) for s in sequences.values())
    for slot in range(length):
        ref_name = names[0]
        ref = sequences[ref_name][slot]
        for other in names[1:]:
            fp = sequences[other][slot]
            if not ref.matches(fp):
                return Divergence(
                    slot=slot,
                    stack_a=ref_name,
                    stack_b=other,
                    fingerprint_a=ref,
                    fingerprint_b=fp,
                )
    # Equal prefixes but different lengths: one stack halted, another kept
    # going -- the first extra slot is the divergence.
    lengths = {name: len(s) for name, s in sequences.items()}
    if len(set(lengths.values())) > 1:
        short = min(lengths, key=lengths.get)
        long = max(lengths, key=lengths.get)
        return Divergence(
            slot=length,
            stack_a=short,
            stack_b=long,
            fingerprint_a=sequences[short][length - 1],
            fingerprint_b=sequences[long][length],
        )
    return None


def run_differential(config: DifferentialConfig) -> DifferentialReport:
    """Run every stack hosting ``config.kind`` over one shared world and
    compare every slot."""
    world = _SharedWorld(config)
    sequences = {name: _run_stack(name, config, world) for name in config.stacks}
    divergence = _first_mismatch(sequences)
    return DifferentialReport(
        config=config,
        slots_compared=min(len(s) for s in sequences.values()),
        divergence=divergence,
    )


def first_diverging_slot(config: DifferentialConfig) -> "int | None":
    """Binary-search the first diverging slot by re-running prefixes.

    The predicate "all stacks produce identical fingerprints for the first
    ``m`` slots" is monotone in ``m`` (stacks are deterministic functions
    of the shared world), so bisection applies: each probe re-runs every
    stack for ``m`` slots and compares the full prefix.  Returns ``None``
    when the stacks agree over the whole horizon.
    """
    world = _SharedWorld(config)
    stacks = config.stacks

    def prefix_agrees(m: int) -> bool:
        seqs = {name: _run_stack(name, config, world, upto=m) for name in stacks}
        div = _first_mismatch(seqs)
        # A halt-length mismatch only counts once the longer run is within
        # the probe prefix; _first_mismatch already handles it.
        return div is None or div.slot >= m

    full = {name: _run_stack(name, config, world) for name in stacks}
    div = _first_mismatch(full)
    if div is None:
        return None
    lo, hi = 0, div.slot + 1  # prefix of lo agrees; prefix of hi diverges
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if prefix_agrees(mid):
            lo = mid
        else:
            hi = mid
    return lo  # first diverging slot index (prefix of length lo agrees)
