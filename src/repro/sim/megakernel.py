"""Slot-blocked megakernel engine for uniform policies vs oblivious jammers.

The batched engine (:mod:`repro.sim.batched`) is dispatch-bound: ~55 Python
calls per slot (``decide``/``grant``/``observe_batch``/clips) dominate the
wall clock at realistic replication counts.  This engine removes the
per-slot dispatch for the configurations where nothing in the slot loop
actually *conditions* on per-slot randomness:

* the jam-grant schedule of an **oblivious** strategy is a pure function of
  the slot index (:meth:`VectorJammingStrategy.want_schedule`), and the
  ``(T, 1-eps)`` budget run over a deterministic want sequence produces the
  same grants for every column -- so the whole grant/deny/prefix timeline
  is precomputed by one scalar pass per block (``_BudgetSchedule``);
* a jammed slot is observed as ``Collision`` by every active column, so a
  run of ``L`` granted slots shifts the policy schedule deterministically;
  the engine fuses the run *plus the first following free slot* into a
  single ``(L+1, W)`` binomial call over the precomputed exponent ladder;
* only the free slot's outcome feeds back into policy state (elections,
  Null/Collision updates), handled at the group boundary.

Block layout
------------
Slots are processed in blocks of ``block_size``.  Each block's want flags
come from one ``want_schedule`` call, its grants from one scalar budget
pass, and its slots are then split into *groups*: maximal runs of granted
slots plus at most one trailing free slot.  Each group is one fused RNG
call; free-slot outcomes (the only conditioning points) are applied
between groups.  Winners are compacted out immediately, so draws stay at
the active width.

RNG-stream contract
-------------------
The root-seed prelude is byte-compatible with the batched engine
(``make_rng(root_seed)``; one spawned seed for the adversary).  Transmitter
draws follow the *packed* compacted stream: active-width binomials in
ascending original column order, winners' leader draws via
``rng.integers`` in ascending original order.  A fused ``(R, W)`` draw
consumes the bitstream exactly like ``R`` sequential ``(W,)`` draws (numpy
samples row-major, one probability at a time), so the fast path is
**bit-identical** to ``simulate_uniform_batched(..., compact_interval=k)``
for *any* ``k`` -- the packed stream is compaction-schedule-invariant, and
this engine is simply its maximal-compaction limit.  Block size never changes results either:
grouping is derived from the grant timeline, block boundaries only split a
jam run, and split fused draws consume the bitstream exactly like the
unsplit ones -- ``block_size=1`` is bit-identical to
``block_size=max_slots`` (property-tested in
``tests/sim/test_megakernel.py``).

Fallback triggers
-----------------
Anything that makes per-slot conditioning real falls back to
:func:`repro.sim.batched.simulate_uniform_batched` with the original
arguments, counted in ``engine_fallback_total{engine="megakernel"}``:
adaptive or randomized strategies (no ``want_schedule``), strategies with
feedback hooks, non-default adversary classes, strict budgets, enabled
fault models, auditors, ``halt_on_single=False``, and policies outside
the supported set (LESK / sweep / no-CD sweep).  ``compact_interval`` is
forwarded to the fallback and otherwise ignored: the megakernel always
retires winners immediately, and with an explicit interval both paths
consume the same packed stream.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Callable

import numpy as np

from repro.adversary.vector import BatchedAdversary, VectorJammingStrategy
from repro.errors import ConfigurationError
from repro.protocols.vector import (
    VectorLESKPolicy,
    VectorNoCDSweepPolicy,
    VectorSweepPolicy,
    VectorUniformPolicy,
    probabilities_from_exponents,
)
from repro.rng import RngLike, make_rng
from repro.sim.batched import BatchRunResult, simulate_uniform_batched
from repro.sim.instrumentation import EngineRecorder
from repro.sim.instrumentation import record_engine_fallback as _record_fallback
from repro.sim.kernels import apply_lesk_outcomes_numpy, get_lesk_kernel
from repro.telemetry import get_telemetry

__all__ = [
    "simulate_uniform_megakernel",
    "megakernel_eligibility",
    "DEFAULT_BLOCK_SLOTS",
]

#: Default number of slots whose want/grant timeline is precomputed per
#: block.  Results are provably independent of this value; it only trades
#: scheduling overhead against the cost of running the scalar budget ahead
#: of columns that may all retire early.
DEFAULT_BLOCK_SLOTS = 64


class _BudgetSchedule:
    """Scalar replica of :class:`~repro.adversary.budget.JammingBudget`.

    With a deterministic want sequence every column's ``JammingBudgetArray``
    state is identical, so one scalar pass yields the shared grant timeline
    plus per-slot jam/denied prefix counts.  The arithmetic -- including
    the ``1e-12`` slack, the float expression order, and the lagged-min
    fold -- mirrors ``JammingBudget._allowed``/``_advance`` exactly, so
    the decisions are bit-equal to the array budget's (asserted by
    ``tests/sim/test_megakernel.py::test_budget_schedule_matches_budget``).
    """

    def __init__(self, T: int, eps: float) -> None:
        self.T = int(T)
        self.rate = 1.0 - float(eps)
        self.cap_a = self.rate * self.T + 1e-12
        self.slot = 0
        self.jams = 0
        self.denied = 0
        self.recent: deque[int] = deque([0], maxlen=self.T)
        self.min_phi = math.inf
        self.pending: deque[float] = deque([0.0])
        self.folded = 0

    def run(self, wants) -> tuple[list[bool], list[int], list[int]]:
        """Decide ``len(wants)`` slots; returns per-slot ``(grants,
        jam_prefix, denied_prefix)`` with prefixes taken *after* each
        slot's decision."""
        K = len(wants)
        grants = [False] * K
        jam_prefix = [0] * K
        denied_prefix = [0] * K
        T = self.T
        rate = self.rate
        cap_a = self.cap_a
        recent = self.recent
        pending = self.pending
        jams = self.jams
        denied = self.denied
        slot = self.slot
        min_phi = self.min_phi
        folded = self.folded
        for i in range(K):
            granted = False
            if wants[i]:
                new_prefix = jams + 1
                # (A) padded trailing window.
                if new_prefix - recent[0] <= cap_a:
                    end = slot + 1
                    # (B) all full windows ending at end.
                    if end >= T:
                        horizon = end - T
                        while pending and folded <= horizon:
                            v = pending.popleft()
                            if v < min_phi:
                                min_phi = v
                            folded += 1
                    if new_prefix - rate * end <= min_phi + 1e-12:
                        granted = True
                if not granted:
                    denied += 1
            if granted:
                jams += 1
            slot += 1
            recent.append(jams)
            pending.append(jams - rate * slot)
            grants[i] = granted
            jam_prefix[i] = jams
            denied_prefix[i] = denied
        self.jams = jams
        self.denied = denied
        self.slot = slot
        self.min_phi = min_phi
        self.folded = folded
        return grants, jam_prefix, denied_prefix

    def state(self) -> tuple:
        """Immutable snapshot, resumable via :meth:`from_state`."""
        return (
            self.slot,
            self.jams,
            self.denied,
            tuple(self.recent),
            self.min_phi,
            tuple(self.pending),
            self.folded,
        )

    @classmethod
    def from_state(cls, T: int, eps: float, state: tuple) -> "_BudgetSchedule":
        sched = cls(T, eps)
        (
            sched.slot,
            sched.jams,
            sched.denied,
            recent,
            sched.min_phi,
            pending,
            sched.folded,
        ) = state
        sched.recent = deque(recent, maxlen=sched.T)
        sched.pending = deque(pending)
        return sched


#: Cached timelines never extend past this many blocks per key; longer
#: runs continue on a private live schedule (bounds cache memory while
#: covering every realistic election length many times over).
_MAX_CACHED_BLOCKS = 256

#: Timeline cache, keyed by ``(T, eps, block_size)``.  The grant timeline
#: is a pure function of ``(T, eps)`` and the want sequence -- independent
#: of seed, reps, and policy -- so repeated runs of the same cell reuse
#: the scalar budget pass instead of re-deciding every slot.
_SCHEDULE_CACHE: dict[tuple, "_ScheduleTimeline"] = {}
_SCHEDULE_CACHE_LOCK = threading.Lock()


def _segment_grants(grants: list[bool]) -> list[tuple[int, int, bool]]:
    """Split one block's grant decisions into fused groups.

    Each segment ``(i, j, has_free)`` is a maximal run of granted slots
    ``[i, j)`` plus, when ``has_free``, one trailing free slot at ``j``.
    The segmentation is a pure function of the grant timeline, so cached
    blocks store it precomputed and the engine's hot loop never scans
    slot-by-slot in Python.
    """
    segments = []
    K = len(grants)
    i = 0
    while i < K:
        j = i
        while j < K and grants[j]:
            j += 1
        segments.append((i, j, j < K))
        i = j + 1
    return segments


class _ScheduleTimeline:
    """Grow-only cached chain of per-block budget decisions.

    ``blocks[b]`` holds ``(wants_bytes, segments, jam_prefix,
    denied_prefix)`` for the ``b``-th block of a run; ``states[b]`` is the
    schedule state *before* block ``b``.  The chain is only ever appended
    to (under the lock), so entries stay mutually consistent; a cursor
    whose want stream diverges from the cached chain drops to a private
    live schedule seeded from the last matching snapshot and leaves the
    shared chain untouched.
    """

    def __init__(self, T: int, eps: float) -> None:
        self.T = int(T)
        self.eps = float(eps)
        self.lock = threading.Lock()
        self.blocks: list[tuple] = []
        self.states: list[tuple] = [_BudgetSchedule(T, eps).state()]


def _schedule_cursor(T: int, eps: float, block_size: int) -> "_ScheduleCursor":
    key = (int(T), float(eps), int(block_size))
    with _SCHEDULE_CACHE_LOCK:
        timeline = _SCHEDULE_CACHE.get(key)
        if timeline is None:
            if len(_SCHEDULE_CACHE) >= 32:
                _SCHEDULE_CACHE.clear()
            timeline = _SCHEDULE_CACHE[key] = _ScheduleTimeline(T, eps)
    return _ScheduleCursor(timeline)


class _ScheduleCursor:
    """One run's sequential walk over a :class:`_ScheduleTimeline`.

    ``jams`` / ``denied`` track the budget counters after the last decided
    block (the survivor snapshot the engine needs at the end of a run).
    """

    def __init__(self, timeline: _ScheduleTimeline) -> None:
        self._tl = timeline
        self._b = 0
        self._live: _BudgetSchedule | None = None
        self.jams = 0
        self.denied = 0

    def next_block(
        self, wants
    ) -> tuple[list[tuple[int, int, bool]], list[int], list[int]]:
        if self._live is not None:
            return self._run_live(wants)
        tl = self._tl
        wants_bytes = wants.tobytes()
        with tl.lock:
            b = self._b
            if b < len(tl.blocks):
                entry = tl.blocks[b]
                if entry[0] == wants_bytes:
                    self._b = b + 1
                    self.jams = entry[2][-1]
                    self.denied = entry[3][-1]
                    return entry[1], entry[2], entry[3]
                # Different want stream than the cached chain: continue on
                # a private schedule, leaving the shared chain untouched.
                self._live = _BudgetSchedule.from_state(
                    tl.T, tl.eps, tl.states[b]
                )
                return self._run_live(wants)
            if b >= _MAX_CACHED_BLOCKS:
                self._live = _BudgetSchedule.from_state(
                    tl.T, tl.eps, tl.states[b]
                )
                return self._run_live(wants)
            # Extend the chain; computed under the lock so concurrent
            # cursors cannot append conflicting entries.
            sched = _BudgetSchedule.from_state(tl.T, tl.eps, tl.states[b])
            grants, jam_prefix, denied_prefix = sched.run(wants)
            segments = _segment_grants(grants)
            tl.blocks.append(
                (wants_bytes, segments, jam_prefix, denied_prefix)
            )
            tl.states.append(sched.state())
            self._b = b + 1
            self.jams = jam_prefix[-1]
            self.denied = denied_prefix[-1]
            return segments, jam_prefix, denied_prefix

    def _run_live(
        self, wants
    ) -> tuple[list[tuple[int, int, bool]], list[int], list[int]]:
        grants, jam_prefix, denied_prefix = self._live.run(wants)
        self.jams = jam_prefix[-1]
        self.denied = denied_prefix[-1]
        return _segment_grants(grants), jam_prefix, denied_prefix


class _LESKLadder:
    """Vector exponent state for :class:`VectorLESKPolicy`.

    Jam runs shift every active column by ``m / a`` (Collision observed),
    so a group's exponent rows come from one ``np.add.accumulate`` -- the
    same sequential-add float results as the per-slot policy update.  Free
    slot outcomes are folded in by the pluggable kernel
    (:mod:`repro.sim.kernels`).

    ``prepare_group`` returns the *probability* rows: with the floor
    active the exponents never go negative, so while the running upper
    bound ``ub`` (exponents only grow by ``1/a`` per slot) stays below the
    underflow guard, ``probabilities_from_exponents`` reduces bit-exactly
    to an in-place ``exp2(-rows)`` -- no ``max()`` reduction and no
    out-of-place pass on the hot path.
    """

    def __init__(self, policy: VectorLESKPolicy, kernel) -> None:
        reps = policy.reps
        # Exponents flip-flop between two full-width buffers: the shifted
        # ladder top becomes the next ``u`` without a copy, and winner
        # compaction gathers into the idle buffer via ``np.compress``.
        self._bufs = (np.empty(reps), np.empty(reps))
        self._cur = 0
        self.u = self._bufs[0][:reps]
        self.u[:] = policy.initial_u
        self.inv_a = 1.0 / policy.a
        self.floor = policy.floor_at_zero
        self.kernel = kernel
        self._u_next = self.u
        self._next_cur = 0
        self.ub = float(policy.initial_u)
        self._ub_next = self.ub
        # The exp2 shortcut (and the kernel's unmasked path) rely on the
        # exponents staying non-negative: with the floor active that is an
        # invariant as long as the start point is itself >= 0 (Null floors
        # at 0, Collision only adds).
        self._fast = bool(policy.floor_at_zero) and policy.initial_u >= 0
        # The all-Collision shortcut rewrites the masked fold as one
        # unmasked add; a compiled kernel fuses the whole fold anyway, so
        # the mask counting would only slow it down.
        self._shortcut = self._fast and kernel is apply_lesk_outcomes_numpy
        self._p1 = np.empty(reps)
        self._p2 = np.empty(2 * reps)

    def prepare_group(self, L: int, has_free: bool, width: int) -> np.ndarray:
        u = self.u
        if L == 0:
            self._u_next = u
            self._next_cur = self._cur
            self._ub_next = self.ub
            if self._fast and self.ub < 1074.0:
                p = self._p1[:width]
                np.negative(u, out=p)
                np.exp2(p, out=p)
                return p.reshape(1, width)
            return probabilities_from_exponents(u).reshape(1, width)
        if L == 1 and has_free and self._fast and self.ub + self.inv_a < 1074.0:
            # The steady-state group shape (one granted slot, one free
            # slot): two row-sized passes beat the generic ladder's
            # 2-row passes, and the shifted exponents double as the next
            # ``u`` without a copy.
            u_next = self._bufs[1 - self._cur][:width]
            np.add(u, self.inv_a, out=u_next)
            self._u_next = u_next
            self._next_cur = 1 - self._cur
            self._ub_next = self.ub + self.inv_a
            p = self._p2[: 2 * width].reshape(2, width)
            np.negative(u, out=p[0])
            np.exp2(p[0], out=p[0])
            np.negative(u_next, out=p[1])
            np.exp2(p[1], out=p[1])
            return p
        ladder = np.empty((L + 1, width))
        ladder[0] = u
        ladder[1:] = self.inv_a
        np.add.accumulate(ladder, axis=0, out=ladder)
        u_next = self._bufs[1 - self._cur][:width]
        np.copyto(u_next, ladder[L])
        self._u_next = u_next
        self._next_cur = 1 - self._cur
        ub = self.ub + L * self.inv_a
        self._ub_next = ub
        rows = ladder if has_free else ladder[:L]
        if self._fast and ub < 1074.0:
            np.negative(rows, out=rows)
            np.exp2(rows, out=rows)
            return rows
        return probabilities_from_exponents(rows)

    def commit_jams(self) -> None:
        self.u = self._u_next
        self._cur = self._next_cur
        self.ub = self._ub_next

    def apply_free_outcome(self, k: np.ndarray, scratch=None) -> None:
        """Fold a free slot's outcome into the exponents.

        Caller contract (megakernel-private): any ``k == 1`` column is a
        winner that is compacted out immediately after this call, so its
        exponent may be clobbered -- which lets the frequent no-Null case
        (every surviving column collided) collapse to one unmasked add.
        """
        self.ub += self.inv_a
        if self._shortcut and scratch is not None:
            nulls = scratch[0]
            np.equal(k, 0, out=nulls)
            if not np.count_nonzero(nulls):
                np.add(self.u, self.inv_a, out=self.u)
                return
        self.kernel(self.u, k, self.inv_a, self.floor, scratch, self._fast)

    def apply_collision_only(self) -> None:
        """Every column collided (``k >= 2`` everywhere): the fold is one
        unmasked add, independent of the floor."""
        self.ub += self.inv_a
        np.add(self.u, self.inv_a, out=self.u)

    def compact(self, keep: np.ndarray, new_width: int) -> None:
        target = self._bufs[1 - self._cur][:new_width]
        np.compress(keep, self.u, out=target)
        self.u = target
        self._cur = 1 - self._cur


def _exp2_exact(exponent: int) -> float:
    """``2 ** -exponent`` for integer exponents, bit-equal to
    :func:`probabilities_from_exponents` (exact ``ldexp``, zero at the
    same ``>= 1074`` underflow guard)."""
    return 0.0 if exponent >= 1074 else math.ldexp(1.0, -exponent)


class _SweepLadder:
    """Scalar ladder for :class:`VectorSweepPolicy`.

    The sweep advances on *every* non-Single outcome, and an active column
    never observes a Single (winners retire first, jammed singles read as
    Collision), so the whole batch shares one ``(u, ceiling)`` pair -- the
    schedule is a pure function of the slot index, the fused draws are
    bit-identical to the packed engine's, and the probability rows are
    computed from exact scalar powers of two (no ``exp2`` array pass).
    """

    def __init__(self, policy: VectorSweepPolicy) -> None:
        self.u = int(policy._u[0])
        self.ceiling = int(policy._ceiling[0])

    def _advance(self) -> None:
        self.u += 1
        if self.u > self.ceiling:
            self.u = 0
            self.ceiling *= 2

    def prepare_group(self, L: int, has_free: bool, width: int) -> np.ndarray:
        vals = []
        for _ in range(L):
            vals.append(_exp2_exact(self.u))
            self._advance()
        if has_free:
            vals.append(_exp2_exact(self.u))
        rows = np.empty((len(vals), width))
        rows[:] = np.asarray(vals, dtype=np.float64)[:, None]
        return rows

    def commit_jams(self) -> None:
        pass

    def apply_free_outcome(self, k: np.ndarray, scratch=None) -> None:
        self._advance()

    def apply_collision_only(self) -> None:
        self._advance()

    def compact(self, keep: np.ndarray, new_width: int) -> None:
        pass


class _NoCDSweepLadder(_SweepLadder):
    """Scalar ladder for :class:`VectorNoCDSweepPolicy` (each exponent of
    sweep ``K`` repeated ``K`` times; refill happens after a doubling)."""

    def __init__(self, policy: VectorNoCDSweepPolicy) -> None:
        self.u = int(policy._u[0])
        self.ceiling = int(policy._ceiling[0])
        self.repeat_left = int(policy._repeat_left[0])

    def _advance(self) -> None:
        self.repeat_left -= 1
        if self.repeat_left <= 0:
            self.u += 1
            if self.u > self.ceiling:
                self.u = 0
                self.ceiling *= 2
            self.repeat_left = self.ceiling


_LADDERS = {
    VectorLESKPolicy: _LESKLadder,
    VectorSweepPolicy: _SweepLadder,
    VectorNoCDSweepPolicy: _NoCDSweepLadder,
}


def megakernel_eligibility(
    policy,
    adversary,
    *,
    halt_on_single: bool = True,
    faults=None,
    auditor=None,
) -> str | None:
    """Return ``None`` when the fused fast path applies, else the reason
    the configuration must run per-slot (used as the fallback label)."""
    if not halt_on_single:
        return "halt_on_single"
    if auditor is not None:
        return "auditor"
    if faults is not None:
        from repro.resilience.faults import FaultModel

        if not (isinstance(faults, FaultModel) and not faults.enabled):
            return "faults"
    if type(policy) not in _LADDERS:
        return f"policy:{type(policy).__name__}"
    if type(adversary) is not BatchedAdversary:
        return f"adversary:{type(adversary).__name__}"
    if adversary.budget.strict:
        return "strict-budget"
    strategy = adversary.strategy
    name = getattr(strategy, "name", type(strategy).__name__)
    if (
        type(strategy).observe_outcomes
        is not VectorJammingStrategy.observe_outcomes
    ):
        return f"strategy-feedback:{name}"
    if strategy.want_schedule(0, 1) is None:
        return f"strategy:{name}"
    return None


def simulate_uniform_megakernel(
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
    block_size: int = DEFAULT_BLOCK_SLOTS,
    kernel_backend: str = "auto",
) -> BatchRunResult:
    """Run *reps* replications through the slot-blocked fused fast path.

    Drop-in compatible with :func:`simulate_uniform_batched` (same
    factories, same :class:`BatchRunResult`); configurations the fast path
    cannot serve delegate to the batched engine with the original
    arguments -- before the root seed is touched, so the delegated run is
    byte-identical to calling the batched engine directly.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    if max_slots < 1:
        raise ConfigurationError(f"max_slots must be >= 1, got {max_slots}")
    if block_size < 1:
        raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
    if compact_interval is not None and compact_interval < 1:
        raise ConfigurationError(
            f"compact_interval must be >= 1, got {compact_interval}"
        )
    kernel = get_lesk_kernel(kernel_backend)

    policy = policy_factory(reps)
    if policy.reps != reps:
        raise ConfigurationError(
            f"policy_factory built reps={policy.reps}, expected {reps}"
        )
    adversary = adversary_factory(reps)
    reason = megakernel_eligibility(
        policy,
        adversary,
        halt_on_single=halt_on_single,
        faults=faults,
        auditor=auditor,
    )
    if reason is not None:
        _record_fallback("megakernel", reason, "the batched per-slot loop")
        return simulate_uniform_batched(
            policy_factory,
            n,
            adversary_factory,
            reps,
            max_slots,
            root_seed=root_seed,
            halt_on_single=halt_on_single,
            faults=faults,
            auditor=auditor,
            compact_interval=compact_interval,
        )

    # -- prelude: byte-compatible with the batched engine -----------------
    rng = make_rng(root_seed)
    adversary.reset(seed=rng.spawn(1)[0])
    strategy = adversary.strategy
    schedule = _schedule_cursor(adversary.T, adversary.eps, block_size)
    if isinstance(policy, VectorLESKPolicy):
        ladder = _LESKLadder(policy, kernel)
    else:
        ladder = _LADDERS[type(policy)](policy)

    tel = get_telemetry()
    rec = (
        EngineRecorder(tel, "megakernel", adversary.strategy_name)
        if tel.enabled
        else None
    )
    if rec is not None:
        k_full = np.zeros(reps, dtype=np.int64)
        active_full = np.ones(reps, dtype=bool)
        jam_row = np.ones(reps, dtype=bool)
        free_row = np.zeros(reps, dtype=bool)

    # -- full-width results ------------------------------------------------
    slots = np.full(reps, max_slots, dtype=np.int64)
    leaders = np.full(reps, -1, dtype=np.int64)
    elected = np.zeros(reps, dtype=bool)
    first_single = np.full(reps, -1, dtype=np.int64)
    jams = np.zeros(reps, dtype=np.int64)
    jam_denied = np.zeros(reps, dtype=np.int64)
    transmissions = np.zeros(reps, dtype=np.int64)
    timed_out = np.ones(reps, dtype=bool)

    # -- packed live state -------------------------------------------------
    # Row 0: original column index; row 1: cumulative transmitter count.
    # Paired in one array so winner gathers and compactions are a single
    # fancy-index pass instead of two.
    live = np.empty((2, reps), dtype=np.int64)
    live[0] = np.arange(reps, dtype=np.int64)
    live[1] = 0
    orig = live[0]
    k_cum = live[1]
    width = reps

    binom = rng.binomial
    # Scratch views over full-width buffers; re-sliced when an election
    # shrinks the active width (a handful of times per run).
    ksum_buf = np.empty(reps, dtype=np.int64)
    null_buf = np.empty(reps, dtype=bool)
    coll_buf = np.empty(reps, dtype=bool)
    keep_buf = np.empty(reps, dtype=bool)
    ksum = ksum_buf[:width]
    b_null = null_buf[:width]
    b_coll = coll_buf[:width]
    b_keep = keep_buf[:width]
    scratch = (b_null, b_coll)
    # Election bookkeeping is deferred: only the leader draw must happen
    # in bitstream order, the rest is applied in one vectorized pass after
    # the loop.  Each event: (slot, won, transmissions, jams, denied).
    election_events: list[tuple] = []
    slot = 0
    while slot < max_slots and width:
        K = min(block_size, max_slots - slot)
        wants = strategy.want_schedule(slot, K)
        if wants is None:  # pragma: no cover - eligibility probed slot 0
            raise ConfigurationError(
                f"strategy {adversary.strategy_name!r} stopped providing a "
                f"want schedule at slot {slot}"
            )
        segments, jam_prefix, denied_prefix = schedule.next_block(wants)
        for i, j, has_free in segments:
            # One fused group: a maximal run of granted slots plus at most
            # one trailing free slot, all with exponents known up front.
            p_rows = ladder.prepare_group(j - i, has_free, width)
            k_rows = binom(n, p_rows)
            rows = k_rows.shape[0]
            if rows == 1:
                np.add(k_cum, k_rows[0], out=k_cum)
            elif rows == 2:
                np.add(k_rows[0], k_rows[1], out=ksum)
                np.add(k_cum, ksum, out=k_cum)
            else:
                np.add.reduce(k_rows, axis=0, out=ksum)
                np.add(k_cum, ksum, out=k_cum)
            if rec is not None:
                for m in range(k_rows.shape[0]):
                    k_full[:] = 0
                    k_full[orig] = k_rows[m]
                    jammed_row = jam_row if (i + m) < j else free_row
                    rec.record_batch_slot(
                        slot + i + m, k_full, jammed_row, active_full
                    )
            ladder.commit_jams()
            if not has_free:
                continue
            k = k_rows[-1]
            if k.min() >= 2:
                # All columns collided: no winners, no Nulls -- the whole
                # classification and fold collapses to one reduction plus
                # one add (the common case while p is still large).
                ladder.apply_collision_only()
                continue
            winners = np.equal(k, 1, out=b_null)
            n_won = np.count_nonzero(winners)
            if n_won:
                pair = live[:, winners]
                won = pair[0]
                leaders[won] = rng.integers(n, size=n_won)
                election_events.append(
                    (slot + j, won, pair[1], jam_prefix[j], denied_prefix[j])
                )
                if rec is not None:
                    active_full[won] = False
                keep = np.logical_not(winners, out=b_keep)
                # Fold the free outcome at full width first (winner
                # columns may be clobbered, they are dropped next), then
                # compact -- saves compacting k itself.
                ladder.apply_free_outcome(k, scratch)
                width -= n_won
                if width == 0:
                    # Empty the survivor views so the post-loop snapshot
                    # does not re-touch the final winners.
                    orig = orig[:0]
                    k_cum = k_cum[:0]
                    break
                live = live[:, keep]
                orig = live[0]
                k_cum = live[1]
                ladder.compact(keep, width)
                ksum = ksum_buf[:width]
                b_null = null_buf[:width]
                b_coll = coll_buf[:width]
                b_keep = keep_buf[:width]
                scratch = (b_null, b_coll)
            else:
                ladder.apply_free_outcome(k, scratch)
        slot += K

    if election_events:
        sizes = [event[1].size for event in election_events]
        won_all = np.concatenate([event[1] for event in election_events])
        s_all = np.repeat(
            np.array([event[0] for event in election_events], dtype=np.int64),
            sizes,
        )
        elected[won_all] = True
        first_single[won_all] = s_all
        slots[won_all] = s_all + 1
        jams[won_all] = np.repeat(
            np.array([event[3] for event in election_events], dtype=np.int64),
            sizes,
        )
        jam_denied[won_all] = np.repeat(
            np.array([event[4] for event in election_events], dtype=np.int64),
            sizes,
        )
        timed_out[won_all] = False
        transmissions[won_all] = np.concatenate(
            [event[2] for event in election_events]
        )

    # Survivors: snapshot the shared budget counters and the running
    # transmission totals (fault-free: listening = n * slots - tx).
    transmissions[orig] = k_cum
    jams[orig] = schedule.jams
    jam_denied[orig] = schedule.denied
    listening = slots * n
    listening -= transmissions
    policy_completed = np.zeros(reps, dtype=bool)

    if rec is not None:
        rec.finish(
            runs=reps,
            elections=int(elected.sum()),
            timeouts=int((timed_out & ~elected).sum()),
            jam_denied=int(jam_denied.sum()),
            last_slot=int(slots.max()),
        )
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
        policy_completed=policy_completed,
        timed_out=timed_out,
        leader_survived=None,
        policy_results=None,
    )
