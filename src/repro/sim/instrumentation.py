"""Engine-side telemetry wiring: slot-class/jam counters + window events.

The engines (:mod:`repro.sim.engine`, :mod:`repro.sim.fast`,
:mod:`repro.sim.batched`) share one recording discipline:

* a recorder is created **only when telemetry is enabled** -- the
  disabled-mode hot path carries a single ``if rec is not None`` branch
  per slot and nothing else (gated by ``benchmarks/bench_telemetry.py``);
* per-slot observations accumulate into plain Python ints;
* every ``stride`` slots (the event log's sampling stride) one
  ``slot_window`` event summarizes the window -- channel-state counts,
  jams granted, jams that landed on occupied slots;
* at run end the totals flow into the registry counter families::

      engine_runs_total{engine=}        engine_slots_total{engine=}
      elections_total{engine=}          timeouts_total{engine=}
      slot_class_total{engine=,class=}  jam_slots_total{strategy=}
      jam_occupied_total{strategy=}     jam_denied_total{strategy=}

``jam_occupied_total / jam_slots_total`` is the *jam efficiency* an
adaptive strategy is optimizing (jams spent on slots where at least one
station transmitted); E08 reports it per strategy without trace recording.

:func:`record_engine_fallback` is the one place an engine notes that it
handed a configuration to a slower path
(``engine_fallback_total{engine=,reason=}``).
"""

from __future__ import annotations

import logging
import time

import numpy as np

from repro.telemetry import get_telemetry

__all__ = ["EngineRecorder", "record_engine_fallback"]

_log = logging.getLogger(__name__)

#: ``(engine, reason)`` pairs already logged in this process -- the log
#: line fires once per pair, the telemetry counter on every fallback.
_FALLBACK_LOGGED: set[tuple[str, str]] = set()


def record_engine_fallback(engine: str, reason: str, ran: str) -> None:
    """Count that *engine* does not serve a configuration and *ran* did.

    Increments ``engine_fallback_total{engine=,reason=}`` (a no-op when
    telemetry is disabled) and logs the first occurrence of each
    ``(engine, reason)`` pair, so which engine ran a cell, and why, stays
    visible in both the metrics and the log.
    """
    get_telemetry().counter(
        "engine_fallback_total", engine=engine, reason=reason
    ).inc()
    if (engine, reason) not in _FALLBACK_LOGGED:
        _FALLBACK_LOGGED.add((engine, reason))
        _log.info(
            "%s engine does not serve this configuration (reason=%s); "
            "running %s instead",
            engine,
            reason,
            ran,
        )


class EngineRecorder:
    """Accumulates one run's telemetry; instantiate only when enabled."""

    __slots__ = (
        "tel",
        "engine",
        "strategy",
        "stride",
        "w_start",
        "w_slots",
        "w_silence",
        "w_single",
        "w_collision",
        "w_jams",
        "w_occupied",
        "t_slots",
        "t_silence",
        "t_single",
        "t_collision",
        "t_jams",
        "t_occupied",
        "started",
        "_kbuf",
        "_jbuf",
        "_abuf",
        "_brows",
    )

    def __init__(self, tel, engine: str, strategy: str):
        self.tel = tel
        self.engine = engine
        self.strategy = strategy
        self.stride = max(1, int(tel.stride))
        self.started = time.perf_counter()
        self.w_start = 0
        self.w_slots = 0
        self.w_silence = 0
        self.w_single = 0
        self.w_collision = 0
        self.w_jams = 0
        self.w_occupied = 0
        self.t_slots = 0
        self.t_silence = 0
        self.t_single = 0
        self.t_collision = 0
        self.t_jams = 0
        self.t_occupied = 0
        self._kbuf = None
        self._jbuf = None
        self._abuf = None
        self._brows = 0

    # -- per-slot observations --------------------------------------------

    def record_slot(self, slot: int, k: int, jammed: bool) -> None:
        """One scalar slot: *k* transmitters, jam grant *jammed*."""
        self.w_slots += 1
        if k == 0:
            self.w_silence += 1
        elif k == 1:
            self.w_single += 1
        else:
            self.w_collision += 1
        if jammed:
            self.w_jams += 1
            if k:
                self.w_occupied += 1
        if slot + 1 - self.w_start >= self.stride:
            self._flush(slot + 1)

    def record_batch_slot(
        self, slot: int, k: np.ndarray, jammed: np.ndarray, active: np.ndarray
    ) -> None:
        """One lockstep slot of the batched engine (active columns only).

        Per-slot reductions over the replication axis would dominate the
        engine's own cost (the batched hot loop is itself only ~a dozen
        NumPy ops/slot), so the rows are copied into a preallocated
        buffer and reduced in bulk once per window -- three memcpys per
        slot on the hot path.
        """
        kbuf = self._kbuf
        if kbuf is None:
            rows = min(self.stride, 256)
            kbuf = self._kbuf = np.empty((rows, k.shape[0]), dtype=k.dtype)
            self._jbuf = np.empty((rows, k.shape[0]), dtype=bool)
            self._abuf = np.empty((rows, k.shape[0]), dtype=bool)
        i = self._brows
        kbuf[i] = k
        self._jbuf[i] = jammed
        self._abuf[i] = active
        self._brows = i + 1
        if self._brows == kbuf.shape[0]:
            self._drain()
        if slot + 1 - self.w_start >= self.stride:
            self._drain()
            self._flush(slot + 1)

    def _drain(self) -> None:
        """Reduce the buffered rows into the window accumulators."""
        rows = self._brows
        if not rows:
            return
        k = self._kbuf[:rows]
        active = self._abuf[:rows]
        occupied = (k >= 1) & active
        n_active = int(np.count_nonzero(active))
        n_occupied = int(np.count_nonzero(occupied))
        n_single = int(np.count_nonzero((k == 1) & active))
        granted = self._jbuf[:rows] & active
        self.w_slots += n_active
        self.w_silence += n_active - n_occupied
        self.w_single += n_single
        self.w_collision += n_occupied - n_single
        self.w_jams += int(np.count_nonzero(granted))
        self.w_occupied += int(np.count_nonzero(granted & occupied))
        self._brows = 0

    def phase(self, slot: int, u_from: float, u_to: float) -> None:
        """A policy phase transition (estimator value ``u`` changed)."""
        self.tel.emit(
            "phase",
            engine=self.engine,
            slot=slot,
            u_from=float(u_from),
            u_to=float(u_to),
        )

    # -- window / run boundaries ------------------------------------------

    def _flush(self, next_start: int) -> None:
        if self.w_slots:
            self.tel.emit(
                "slot_window",
                engine=self.engine,
                start_slot=self.w_start,
                slots=self.w_slots,
                silence=self.w_silence,
                single=self.w_single,
                collision=self.w_collision,
                jams=self.w_jams,
                jam_occupied=self.w_occupied,
            )
        self.t_slots += self.w_slots
        self.t_silence += self.w_silence
        self.t_single += self.w_single
        self.t_collision += self.w_collision
        self.t_jams += self.w_jams
        self.t_occupied += self.w_occupied
        self.w_start = next_start
        self.w_slots = 0
        self.w_silence = 0
        self.w_single = 0
        self.w_collision = 0
        self.w_jams = 0
        self.w_occupied = 0

    def finish(
        self,
        runs: int,
        elections: int,
        timeouts: int,
        jam_denied: int,
        last_slot: int,
    ) -> None:
        """Flush the tail window and publish the run totals as counters."""
        self._drain()
        self._flush(last_slot)
        self.tel.observe_span(
            f"engine.{self.engine}", time.perf_counter() - self.started
        )
        metrics = self.tel.metrics
        metrics.counter("engine_runs_total", engine=self.engine).inc(runs)
        metrics.counter("engine_slots_total", engine=self.engine).inc(self.t_slots)
        if elections:
            metrics.counter("elections_total", engine=self.engine).inc(elections)
        if timeouts:
            metrics.counter("timeouts_total", engine=self.engine).inc(timeouts)
        for cls, count in (
            ("silence", self.t_silence),
            ("single", self.t_single),
            ("collision", self.t_collision),
        ):
            if count:
                metrics.counter(
                    "slot_class_total", engine=self.engine, **{"class": cls}
                ).inc(count)
        metrics.counter("jam_slots_total", strategy=self.strategy).inc(self.t_jams)
        if self.t_occupied:
            metrics.counter("jam_occupied_total", strategy=self.strategy).inc(
                self.t_occupied
            )
        if jam_denied:
            metrics.counter("jam_denied_total", strategy=self.strategy).inc(
                jam_denied
            )
