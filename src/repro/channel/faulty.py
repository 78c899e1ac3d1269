"""Observation-layer fault corruption: one rule, in scalar and array form.

:func:`corrupt_observed` is where the fault model's corruption
(:class:`repro.resilience.faults.SlotFaults`) rewrites what listeners
hear in the scalar engines (``sim.engine``, ``sim.fast``), right after
:func:`~repro.channel.channel.resolve_slot`.  The array engines
(``sim.batched``, ``sim.vectorized``) resolve a whole batch with
:func:`observe_batch_states` and corrupt it with
:func:`corrupt_observed_batch`; the differential harness
(:mod:`repro.resilience.differential`) runs both forms in lockstep and
compares them slot by slot.  The rule:

* **erase** -- nobody hears the slot; feedback is withheld entirely
  (returned as ``None``), so even a successful Single goes unnoticed and
  does not end a run.  The array form leaves erasure to its caller, which
  masks the erased columns out of the policy update and the win check.
* **downgrade** -- collision detection degrades: a ``SINGLE`` is reported
  as ``COLLISION`` to everyone (a would-be winner does not learn it won).
* **flip** -- ``NULL <-> COLLISION`` swap.  Unlike the budgeted adversary,
  a fault *can* fabricate a silent slot out of a collision; that extra
  power is deliberate (the fault model stresses beyond §1.1's adversary).

Order matters and is fixed: erase wins outright; otherwise downgrade is
applied before flip (degraded hardware first, then the symbol-level lie).
Corruption acts on the **observed** state -- after jamming -- and applies
to all stations of a replication alike, keeping the engines' count-level
semantics identical.
"""

from __future__ import annotations

import numpy as np

from repro.types import ChannelState

__all__ = ["corrupt_observed", "observe_batch_states", "corrupt_observed_batch"]

_FLIP = {
    ChannelState.NULL: ChannelState.COLLISION,
    ChannelState.COLLISION: ChannelState.NULL,
    ChannelState.SINGLE: ChannelState.SINGLE,
}

_NULL = np.int8(ChannelState.NULL)
_SINGLE = np.int8(ChannelState.SINGLE)
_COLLISION = np.int8(ChannelState.COLLISION)


def corrupt_observed(observed: ChannelState, flags) -> "ChannelState | None":
    """Apply one slot's corruption flags to the observed channel state.

    *flags* is any object with boolean ``erase`` / ``downgrade`` / ``flip``
    attributes (:class:`repro.resilience.faults.SlotFaults` in practice).
    Returns ``None`` when the slot is erased (no feedback delivered).
    """
    if flags.erase:
        return None
    if flags.downgrade and observed is ChannelState.SINGLE:
        observed = ChannelState.COLLISION
    if flags.flip:
        observed = _FLIP[observed]
    return observed


def observe_batch_states(k: np.ndarray, jammed: np.ndarray) -> np.ndarray:
    """Observed state codes of a batch of slots: ``resolve_slot(...)
    .observed_state`` elementwise for transmitter counts *k* and jam mask
    *jammed* (a jammed slot reads as a collision)."""
    return np.where(jammed, _COLLISION, np.minimum(k, 2))


def corrupt_observed_batch(observed: np.ndarray, flip, downgrade) -> np.ndarray:
    """:func:`corrupt_observed` over an array of state codes, minus erasure.

    *flip* is a per-element mask (or a bool); *downgrade* is a bool for the
    whole batch or a per-element mask.  Returns a new array, or *observed*
    itself when no element is corrupted.
    """
    if np.any(downgrade):
        observed = np.where(downgrade & (observed == _SINGLE), _COLLISION, observed)
    if np.any(flip):
        flipped = np.where(
            observed == _NULL,
            _COLLISION,
            np.where(observed == _COLLISION, _NULL, observed),
        )
        observed = np.where(flip, flipped, observed)
    return observed
