"""Batched cross-replication engine for uniform protocols.

:func:`repro.sim.fast.simulate_uniform_fast` already makes one *run* cost
O(1) per slot, but Monte Carlo tables run hundreds of independent
replications and the per-slot Python interpreter overhead -- not the
sampling -- dominates the wall clock.  This engine advances ``R``
independent replications per NumPy step:

* per-replication transmit probabilities as a ``(R,)`` array
  (:class:`~repro.protocols.vector.VectorUniformPolicy`);
* transmitter counts for all replications in one
  ``rng.binomial(n, p_vec)`` call;
* vectorized slot resolution (``k == 0 / 1 / >= 2`` plus the jam mask);
* per-replication (T, 1-eps) budgets advanced in lockstep
  (:class:`~repro.adversary.budget.JammingBudgetArray`);
* an active-mask that retires finished replications without Python-level
  branching per replication.

Exactness: each column sees binomial draws with its own probability and an
independent jam/observation sequence, and evolves by the scalar policy's
update rule -- so per-replication run distributions are *identical* to
``simulate_uniform_fast`` (the per-column bitstreams differ, the laws do
not).  Cross-validated by KS tests in ``tests/sim/test_batched.py``.

Scope: uniform policies with a vector implementation, against any
registered vectorized adversary -- oblivious patterns and the adaptive
family alike.  Adaptive strategies condition on the per-column protocol
state exposed through :class:`BatchAdversaryView` and on per-slot channel
feedback delivered via the adversary's ``observe_outcomes`` hook (the
pre-fault-corruption observed states, matching the scalar trace the
adversary sees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.adversary.vector import (
    BatchAdversaryView,
    BatchedAdversary,
    VectorJammingStrategy,
)
from repro.errors import ConfigurationError
from repro.protocols.vector import VectorUniformPolicy
from repro.rng import RngLike, make_rng
from repro.sim.instrumentation import EngineRecorder
from repro.sim.metrics import EnergyStats, RunResult
from repro.telemetry import get_telemetry
from repro.types import ChannelState

__all__ = ["simulate_uniform_batched", "BatchRunResult"]

_NULL = np.int8(ChannelState.NULL)
_SINGLE = np.int8(ChannelState.SINGLE)
_COLLISION = np.int8(ChannelState.COLLISION)


@dataclass(slots=True)
class BatchRunResult:
    """Columnar outcome of ``reps`` batched replications.

    All arrays have shape ``(reps,)``; :meth:`results` converts to the
    scalar :class:`~repro.sim.metrics.RunResult` list the experiment
    harness consumes.
    """

    n: int
    reps: int
    slots: np.ndarray  # int64: slots simulated before each run ended
    elected: np.ndarray  # bool
    leaders: np.ndarray  # int64, -1 where no leader
    first_single_slot: np.ndarray  # int64, -1 where none occurred
    jams: np.ndarray  # int64
    jam_denied: np.ndarray  # int64
    transmissions: np.ndarray  # int64 station-slots transmitting
    listening: np.ndarray  # int64 station-slots listening
    policy_completed: np.ndarray  # bool: column finished of its own accord
    timed_out: np.ndarray  # bool
    leader_survived: np.ndarray | None = None  # bool; None = fault-free batch
    policy_results: np.ndarray | None = None  # int64, -1 = no result

    def results(self) -> list[RunResult]:
        """Per-replication :class:`RunResult` views (harness-compatible)."""
        out = []
        for r in range(self.reps):
            elected = bool(self.elected[r])
            first = int(self.first_single_slot[r])
            presult: object | None = None
            if self.policy_results is not None and self.policy_results[r] >= 0:
                presult = int(self.policy_results[r])
            out.append(
                RunResult(
                    n=self.n,
                    slots=int(self.slots[r]),
                    elected=elected,
                    leader=int(self.leaders[r]) if elected else None,
                    first_single_slot=first if first >= 0 else None,
                    all_terminated=elected or bool(self.policy_completed[r]),
                    leaders_count=1 if elected else 0,
                    jams=int(self.jams[r]),
                    jam_denied=int(self.jam_denied[r]),
                    energy=EnergyStats(
                        transmissions=int(self.transmissions[r]),
                        listening=int(self.listening[r]),
                    ),
                    policy_result=presult,
                    timed_out=bool(self.timed_out[r]),
                    leader_survived=(
                        True
                        if self.leader_survived is None
                        else bool(self.leader_survived[r])
                    ),
                )
            )
        return out


def simulate_uniform_batched(
    policy_factory: Callable[[int], VectorUniformPolicy],
    n: int,
    adversary_factory: Callable[[int], BatchedAdversary],
    reps: int,
    max_slots: int,
    root_seed: RngLike = None,
    halt_on_single: bool = True,
    faults=None,
    auditor=None,
    compact_interval: int | None = None,
) -> BatchRunResult:
    """Run *reps* independent replications of a uniform policy in lockstep.

    Parameters
    ----------
    policy_factory:
        ``reps -> VectorUniformPolicy``; called once with the batch width.
    n:
        Number of honest stations per replication (n >= 1).
    adversary_factory:
        ``reps -> BatchedAdversary``; the engine resets it with a spawned
        seed, mirroring the scalar engines.
    reps:
        Number of independent replications (columns).
    max_slots:
        Hard per-replication slot limit.
    root_seed:
        Root seed or generator for the whole batch.
    halt_on_single:
        Retire a column at its first successful ``Single`` (election).
    faults:
        Optional :class:`~repro.resilience.faults.FaultModel` (or a
        realized :class:`~repro.resilience.faults.BatchFaultState`).  The
        churn realization is shared across columns; rate-based corruption
        is drawn per column per slot (vectorized fault masks).
        ``None``/disabled keeps the batch bit-identical to a fault-free
        build.
    auditor:
        Optional :class:`~repro.resilience.auditor.BatchInvariantAuditor`.
    compact_interval:
        ``None`` (default) keeps every retired column materialized for the
        whole run and draws the transmitter counts at the full width: the
        reference layout, kept for the engine benchmarks and fixed-seed
        pins.  An integer ``>= 1`` enables dead-rep compaction on the
        *packed* stream: the binomial transmitter counts are drawn at the
        *active* width, and every ``compact_interval`` slots the retired
        columns are packed out of the policy, strategy and budget state, so
        per-slot work tracks the live width.  The consumed stream depends
        only on the schedule-independent active set, so results are
        bit-identical across *every* interval; they differ from the
        full-width bitstream in bits, not in law (KS/differential
        cross-validated).  Fault streams and the random jammer's Bernoulli
        stream stay pinned per original rep.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    if max_slots < 1:
        raise ConfigurationError(f"max_slots must be >= 1, got {max_slots}")
    if compact_interval is not None and compact_interval < 1:
        raise ConfigurationError(
            f"compact_interval must be >= 1 or None, got {compact_interval}"
        )

    rng = make_rng(root_seed)
    policy = policy_factory(reps)
    if policy.reps != reps:
        raise ConfigurationError(
            f"policy_factory returned width {policy.reps}, expected {reps}"
        )
    adversary = adversary_factory(reps)
    adversary.reset(seed=rng.spawn(1)[0])
    # Fault streams spawn only when faults are enabled, *after* the
    # adversary's spawn: the fault-free bitstream is untouched.
    bf = _realize_batch_faults(faults, n, reps, max_slots, rng)

    if compact_interval is not None:
        return _simulate_compact(
            policy,
            adversary,
            bf,
            rng,
            n=n,
            reps=reps,
            max_slots=max_slots,
            halt_on_single=halt_on_single,
            auditor=auditor,
            interval=int(compact_interval),
        )

    active = np.ones(reps, dtype=bool)
    slots = np.full(reps, max_slots, dtype=np.int64)
    elected = np.zeros(reps, dtype=bool)
    leaders = np.full(reps, -1, dtype=np.int64)
    first_single = np.full(reps, -1, dtype=np.int64)
    jams = np.zeros(reps, dtype=np.int64)
    jam_denied = np.zeros(reps, dtype=np.int64)
    transmissions = np.zeros(reps, dtype=np.int64)
    listening = np.zeros(reps, dtype=np.int64)
    policy_done = np.zeros(reps, dtype=bool)
    timed_out = np.ones(reps, dtype=bool)
    leader_survived = np.ones(reps, dtype=bool) if bf is not None else None
    tel = get_telemetry()
    rec = (
        EngineRecorder(tel, "batched", adversary.strategy_name)
        if tel.enabled
        else None
    )

    def retire(mask: np.ndarray, slot: int, as_timeout: bool = False) -> None:
        """Snapshot per-column counters for the columns in *mask*."""
        slots[mask] = slot + 1
        jams[mask] = adversary.budget.jams_granted[mask]
        jam_denied[mask] = adversary.budget.denied_requests[mask]
        timed_out[mask] = as_timeout

    # History-conditioned strategies (the adaptive family) receive the slot
    # outcomes through this hook; duck-typed test adversaries may omit it.
    notify = getattr(adversary, "observe_outcomes", None)

    # Per-slot scratch, hoisted out of the loop.  ``true8`` is refreshed
    # with ``where=active`` only: retired columns keep a stale true-state,
    # which nothing result-bearing reads (their policies, counters and
    # budget snapshots are all frozen or masked by ``active``).
    true8 = np.empty(reps, dtype=np.int8)
    p_eff_buf = np.empty(reps, dtype=np.float64)
    energy_tmp = np.empty(reps, dtype=np.int64)

    for slot in range(max_slots):
        if not active.any():
            break
        p = policy.transmit_probabilities(slot)
        view = BatchAdversaryView(
            slot=slot,
            n=n,
            reps=reps,
            budget=adversary.budget,
            transmit_probabilities=p,
            protocol_u=policy.u,
            active=active,
        )
        # Every column's budget advances in lockstep; retired columns'
        # counters were snapshotted at retirement, so the extra slots of a
        # longer-lived sibling never leak into their results.
        jammed = adversary.decide(view)

        if bf is not None:
            # Churn (shared across columns) shrinks the station pool; clock
            # skew thins the transmit probability; per-column fault masks
            # rewrite observations below.
            awake = bf.awake_count(slot)
            flip, erase, downgrade = bf.begin_slot(slot, active)
            np.clip(p, 0.0, 1.0, out=p_eff_buf)
            p_eff_buf *= bf.p_scale
            p_eff = p_eff_buf
        else:
            awake = n
            flip = erase = None
            downgrade = False
            p_eff = np.clip(p, 0.0, 1.0, out=p_eff_buf)

        # One binomial call for the whole batch; p is exact 0/1 at the
        # clamped extremes, which rng.binomial honors deterministically.
        k = rng.binomial(awake, p_eff)

        np.add(transmissions, k, out=transmissions, where=active)
        np.subtract(awake, k, out=energy_tmp)
        np.add(listening, energy_tmp, out=listening, where=active)
        if rec is not None:
            rec.record_batch_slot(slot, k, jammed, active)

        np.minimum(k, 2, out=true8, where=active)
        observed = np.where(jammed, _COLLISION, true8)
        if notify is not None:
            # Pre-fault-corruption states: the adversary knows what it
            # jammed and is not fooled by the fault model's corrupted
            # feedback -- same semantics as the scalar engines' trace.
            # (The fault block below rebinds ``observed`` via np.where, so
            # the array handed over here is a stable snapshot.)
            notify(slot, observed, active)
        if bf is not None:
            # Same order as channel.faulty.corrupt_observed: erase wins
            # (handled below by masking the policy update and the win
            # check), then downgrade, then flip.
            if downgrade:
                observed = np.where(observed == _SINGLE, _COLLISION, observed)
            if flip.any():
                flipped = np.where(
                    observed == _NULL,
                    _COLLISION,
                    np.where(observed == _COLLISION, _NULL, observed),
                )
                observed = np.where(flip, flipped, observed)
        if auditor is not None:
            if bf is not None:
                corrupted = flip | erase
                if downgrade:
                    corrupted = np.ones(reps, dtype=bool)
            else:
                corrupted = None
            auditor.observe_slot(
                slot, k, jammed, observed, corrupted=corrupted, active=active
            )

        successful_single = (k == 1) & ~jammed
        if bf is not None:
            # Only a *heard* Single resolves a column: erased or downgraded
            # Singles go unnoticed and the column keeps running.
            successful_single &= (observed == _SINGLE) & ~erase
        fresh_single = active & successful_single & (first_single < 0)
        first_single[fresh_single] = slot

        if halt_on_single:
            won = active & successful_single
            if won.any():
                idx = np.flatnonzero(won)
                # By symmetry the successful transmitter is uniform over
                # the stations awake in the slot (all stations, fault-free).
                if bf is not None:
                    leaders[idx] = bf.pick_awake_stations(slot, idx.size, rng)
                    leader_survived[idx] = bf.leaders_survive(leaders[idx])
                else:
                    leaders[idx] = rng.integers(n, size=idx.size)
                elected[idx] = True
                retire(won, slot)
                active &= ~won
                if not active.any():
                    break

        if bf is not None:
            # Erased columns get no feedback: their policies skip the slot.
            policy.observe_batch(slot, observed, active & ~erase)
        else:
            policy.observe_batch(slot, observed, active)
        done = active & policy.completed
        if done.any():
            policy_done |= done
            retire(done, slot)
            active &= ~done

    if active.any():
        # Columns that hit max_slots: slots stays at the limit.
        jams[active] = adversary.budget.jams_granted[active]
        jam_denied[active] = adversary.budget.denied_requests[active]

    if rec is not None:
        rec.finish(
            runs=reps,
            elections=int(elected.sum()),
            timeouts=int((timed_out & ~elected & ~policy_done).sum()),
            jam_denied=int(jam_denied.sum()),
            last_slot=int(slots.max()),
        )
    if bf is not None and tel.enabled:
        bf.publish(tel)
    presults = getattr(policy, "policy_results", None)
    return BatchRunResult(
        n=n,
        reps=reps,
        slots=slots,
        elected=elected,
        leaders=leaders,
        first_single_slot=first_single,
        jams=jams,
        jam_denied=jam_denied,
        transmissions=transmissions,
        listening=listening,
        policy_completed=policy_done,
        timed_out=timed_out,
        leader_survived=leader_survived,
        policy_results=presults,
    )


def _simulate_compact(
    policy: VectorUniformPolicy,
    adversary: BatchedAdversary,
    bf,
    rng,
    *,
    n: int,
    reps: int,
    max_slots: int,
    halt_on_single: bool,
    auditor,
    interval: int,
) -> BatchRunResult:
    """Dead-rep compaction loop: per-slot work tracks the *live* width.

    Layout: ``live_orig`` maps live-column positions to original rep
    indices (always ascending, so winner draws keep the legacy column
    order); ``live_active`` marks live columns not yet retired; retired
    columns are packed out of the policy/strategy/budget state every
    ``interval`` slots via their ``compact(keep)`` hooks.

    Stream contract (the *packed* stream): the transmitter binomial is
    drawn at the active width -- per-slot stream consumption equals the
    number of active columns, presented in ascending original order, a
    quantity that does not depend on the packing schedule -- so every
    ``compact_interval`` choice produces bit-identical results (same law
    as the full-width stream; KS/differential cross-validated).  Winner
    draws use schedule-independent counts in ascending original order,
    fault masks are realized at full width per original rep, and the
    adversary conditions its own spawned stream per original rep.
    """
    live_orig = np.arange(reps, dtype=np.int64)
    live_active = np.ones(reps, dtype=bool)
    active_full = np.ones(reps, dtype=bool)

    slots = np.full(reps, max_slots, dtype=np.int64)
    elected = np.zeros(reps, dtype=bool)
    leaders = np.full(reps, -1, dtype=np.int64)
    first_single = np.full(reps, -1, dtype=np.int64)
    fs_live = np.full(reps, -1, dtype=np.int64)
    jams = np.zeros(reps, dtype=np.int64)
    jam_denied = np.zeros(reps, dtype=np.int64)
    transmissions = np.zeros(reps, dtype=np.int64)
    listening = np.zeros(reps, dtype=np.int64)
    policy_done = np.zeros(reps, dtype=bool)
    timed_out = np.ones(reps, dtype=bool)
    leader_survived = np.ones(reps, dtype=bool) if bf is not None else None
    has_presults = policy.policy_results is not None
    presults_full = np.full(reps, -1, dtype=np.int64) if has_presults else None

    tel = get_telemetry()
    rec = (
        EngineRecorder(tel, "batched", adversary.strategy_name)
        if tel.enabled
        else None
    )
    if rec is not None or auditor is not None:
        jammed_full = np.zeros(reps, dtype=bool)
        observed_full = np.full(reps, _NULL, dtype=np.int8)
        k_rep = np.zeros(reps, dtype=np.int64)

    notify = getattr(adversary, "observe_outcomes", None)
    strat = getattr(adversary, "strategy", None)
    wants_jam = None
    if strat is not None:
        # Elide per-slot feedback when the adversary merely forwards to a
        # strategy that inherits the base no-op, and the estimator
        # materialization when the strategy never reads it.
        if (
            type(adversary).observe_outcomes is BatchedAdversary.observe_outcomes
            and type(strat).observe_outcomes
            is VectorJammingStrategy.observe_outcomes
        ):
            notify = None
        wants_u = getattr(strat, "uses_protocol_u", True)
        if type(adversary) is BatchedAdversary:
            # Inline ``decide``: grant(wants_jam_batch(...)) without the
            # extra frame.  Subclasses keep the virtual call.
            wants_jam = strat.wants_jam_batch
            adv_rng = adversary.rng
    else:
        wants_u = True
    budget = adversary.budget

    # Live-width energy accumulators, scattered back at pack/finish.  In
    # the fault-free batch ``awake == n`` every slot, so listening is
    # recovered at the end as ``n * slots - transmissions`` instead of
    # being accumulated per slot.
    tx_live = np.zeros(reps, dtype=np.int64)
    if bf is not None:
        listen_live = np.zeros(reps, dtype=np.int64)
        energy_tmp = np.empty(reps, dtype=np.int64)

    # Reused per-slot view: only the per-slot fields are rewritten.
    view = BatchAdversaryView(slot=0, n=n, reps=reps, budget=budget)

    n_live = reps
    all_live = True
    pending_retired = False
    # Scratch for the per-slot probability clamp; resized only at
    # compaction points so the hot loop never allocates for it.
    p_clip = np.empty(reps)

    def snapshot(pos: np.ndarray, orig: np.ndarray, slot: int) -> None:
        slots[orig] = slot + 1
        jams[orig] = budget.jams_granted[pos]
        jam_denied[orig] = budget.denied_requests[pos]
        timed_out[orig] = False

    for slot in range(max_slots):
        if n_live == 0:
            break
        if pending_retired and slot % interval == 0:
            # Pack the retired columns out of every per-column state.
            if has_presults:
                presults_full[live_orig] = policy.policy_results
            first_single[live_orig] = fs_live
            transmissions[live_orig] = tx_live
            if bf is not None:
                listening[live_orig] = listen_live
            keep = np.flatnonzero(live_active)
            policy.compact(keep)
            adversary.compact(keep)
            budget = adversary.budget
            view.budget = budget
            live_orig = live_orig[keep]
            fs_live = fs_live[keep]
            tx_live = tx_live[keep]
            if bf is not None:
                listen_live = listen_live[keep]
                energy_tmp = np.empty(keep.size, dtype=np.int64)
            live_active = np.ones(keep.size, dtype=bool)
            all_live = True
            pending_retired = False
            p_clip = np.empty(keep.size)

        width = live_orig.size
        p = policy.transmit_probabilities(slot)
        view.slot = slot
        view.reps = width
        view.transmit_probabilities = p
        view.protocol_u = policy.u if wants_u else None
        view.active = live_active
        if wants_jam is not None:
            jammed = budget.grant(wants_jam(view, adv_rng))
        else:
            jammed = adversary.decide(view)

        if bf is not None:
            awake = bf.awake_count(slot)
            flip_full, erase_full, downgrade = bf.begin_slot(slot, active_full)
            flip = flip_full[live_orig]
            erase = erase_full[live_orig]
        else:
            awake = n
            flip = erase = None
            downgrade = False

        # Active-width draw, ascending original order.
        if all_live:
            p_act = np.clip(p, 0.0, 1.0, out=p_clip)
        else:
            p_act = p[live_active]
            np.clip(p_act, 0.0, 1.0, out=p_act)
        if bf is not None:
            p_act *= bf.p_scale
        k = rng.binomial(awake, p_act)
        if not all_live:
            k_act = k
            k = np.zeros(width, dtype=np.int64)
            k[live_active] = k_act
        tx_live += k

        if bf is not None:
            np.subtract(awake, k, out=energy_tmp)
            np.add(listen_live, energy_tmp, out=listen_live, where=live_active)
        if rec is not None or auditor is not None:
            k_rep[:] = 0
            k_rep[live_orig] = k
            jammed_full[:] = False
            jammed_full[live_orig] = jammed
            if rec is not None:
                rec.record_batch_slot(slot, k_rep, jammed_full, active_full)

        observed = np.where(jammed, _COLLISION, np.minimum(k, 2))
        if notify is not None:
            notify(slot, observed, live_active)
        if bf is not None:
            if downgrade:
                observed = np.where(observed == _SINGLE, _COLLISION, observed)
            if flip.any():
                flipped = np.where(
                    observed == _NULL,
                    _COLLISION,
                    np.where(observed == _COLLISION, _NULL, observed),
                )
                observed = np.where(flip, flipped, observed)
        if auditor is not None:
            if bf is not None:
                corrupted = np.zeros(reps, dtype=bool)
                corrupted[live_orig] = flip | erase
                if downgrade:
                    corrupted = np.ones(reps, dtype=bool)
            else:
                corrupted = None
            observed_full[live_orig] = observed
            auditor.observe_slot(
                slot,
                k_rep,
                jammed_full,
                observed_full,
                corrupted=corrupted,
                active=active_full,
            )

        # For booleans ``a & ~b`` is ``a > b``; one ufunc fewer per slot.
        successful_single = (k == 1) > jammed
        if bf is not None:
            successful_single &= (observed == _SINGLE) & ~erase

        if halt_on_single:
            # A live column with a successful Single always wins here, and
            # a winner can never have first_single set already (it would
            # have won that earlier slot), so the fresh-single update
            # collapses into the win handling.  Packed draws leave k == 0
            # in retired columns, so the mask is already implicit there.
            if successful_single.any():
                pos = np.flatnonzero(successful_single)
                orig = live_orig[pos]
                fs_live[pos] = slot
                if bf is not None:
                    chosen = bf.pick_awake_stations(slot, pos.size, rng)
                    leaders[orig] = chosen
                    leader_survived[orig] = bf.leaders_survive(chosen)
                else:
                    leaders[orig] = rng.integers(n, size=pos.size)
                elected[orig] = True
                snapshot(pos, orig, slot)
                live_active[pos] = False
                active_full[orig] = False
                pending_retired = True
                all_live = False
                n_live -= pos.size
                if n_live == 0:
                    break
        else:
            fresh_single = live_active & successful_single & (fs_live < 0)
            if fresh_single.any():
                fs_live[fresh_single] = slot

        if bf is not None:
            policy.observe_batch(slot, observed, live_active & ~erase)
        else:
            policy.observe_batch(slot, observed, live_active)
        done = policy.completed if all_live else live_active & policy.completed
        if done.any():
            pos = np.flatnonzero(done)
            orig = live_orig[pos]
            policy_done[orig] = True
            snapshot(pos, orig, slot)
            live_active[pos] = False
            active_full[orig] = False
            pending_retired = True
            all_live = False
            n_live -= pos.size

    if n_live:
        pos = np.flatnonzero(live_active)
        orig = live_orig[pos]
        jams[orig] = budget.jams_granted[pos]
        jam_denied[orig] = budget.denied_requests[pos]
    first_single[live_orig] = fs_live
    transmissions[live_orig] = tx_live
    if bf is not None:
        listening[live_orig] = listen_live
    else:
        # awake == n in every slot: listening = n * slots - transmissions.
        np.multiply(slots, n, out=listening)
        listening -= transmissions
    if has_presults:
        presults_full[live_orig] = policy.policy_results

    if rec is not None:
        rec.finish(
            runs=reps,
            elections=int(elected.sum()),
            timeouts=int((timed_out & ~elected & ~policy_done).sum()),
            jam_denied=int(jam_denied.sum()),
            last_slot=int(slots.max()),
        )
    if bf is not None and tel.enabled:
        bf.publish(tel)
    return BatchRunResult(
        n=n,
        reps=reps,
        slots=slots,
        elected=elected,
        leaders=leaders,
        first_single_slot=first_single,
        jams=jams,
        jam_denied=jam_denied,
        transmissions=transmissions,
        listening=listening,
        policy_completed=policy_done,
        timed_out=timed_out,
        leader_survived=leader_survived,
        policy_results=presults_full,
    )


def _realize_batch_faults(faults, n: int, reps: int, max_slots: int, rng):
    """Batched counterpart of :func:`repro.sim.engine._realize_faults`."""
    if faults is None:
        return None
    from repro.resilience.faults import BatchFaultState, FaultModel

    if isinstance(faults, FaultModel):
        if not faults.enabled:
            return None
        return faults.realize_batch(n, reps, max_slots, rng.spawn(1)[0])
    if isinstance(faults, BatchFaultState):
        return faults
    raise ConfigurationError(
        f"faults must be a FaultModel or BatchFaultState, got {type(faults).__name__}"
    )
