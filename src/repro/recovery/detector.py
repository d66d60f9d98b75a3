"""Heartbeat-based failure detection between Cores.

Each Core that runs a :class:`FailureDetector` pings its peers every
``interval`` seconds of virtual time with a tiny ``HEARTBEAT`` request
(answered by every Core, detector or not).  A peer that stays silent
past ``suspect_after`` is *suspected*; past ``fail_after`` it is
declared *failed*.  Verdict transitions are published as monitor events
on the detecting Core's bus — ``coreSuspected``, ``coreFailed``,
``coreRecovered`` — so layout scripts (``on coreFailed ... failover``)
and the :class:`~repro.recovery.recovery.RecoveryManager` can react.

Detection is per-observer: a partition makes each side declare the other
failed, and both are right about reachability.  Whether a verdict should
trigger recovery is the :class:`RecoveryManager`'s call (it applies a
majority guard); the detector only reports what it can measure.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.events import CORE_FAILED, CORE_RECOVERED, CORE_SHUTDOWN, CORE_SUSPECTED
from repro.errors import ConfigurationError, CoreError
from repro.net.messages import MessageKind
from repro.net.retry import NO_RETRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.core import Core

logger = logging.getLogger(__name__)

#: Peer verdicts, in order of degradation.
ALIVE = "alive"
SUSPECT = "suspect"
FAILED = "failed"


@dataclass(frozen=True, slots=True)
class DetectorConfig:
    """Tuning knobs of the failure detector (virtual-time seconds).

    ``interval`` is the ping period; a peer silent for ``suspect_after``
    seconds is suspected, and for ``fail_after`` seconds is declared
    failed.  ``fail_after`` bounds detection latency from above:
    a crash is declared within ``fail_after + interval`` seconds.
    """

    interval: float = 0.5
    suspect_after: float = 1.5
    fail_after: float = 3.0

    def __post_init__(self) -> None:
        if self.interval <= 0.0:
            raise ConfigurationError(f"interval must be positive, got {self.interval}")
        if self.suspect_after < self.interval:
            raise ConfigurationError(
                f"suspect_after ({self.suspect_after}) must be at least one "
                f"interval ({self.interval})"
            )
        if self.fail_after < self.suspect_after:
            raise ConfigurationError(
                f"fail_after ({self.fail_after}) must not precede "
                f"suspect_after ({self.suspect_after})"
            )

    def verdict(self, silent: float) -> str:
        """The verdict ladder, shared with the process supervisor."""
        if silent >= self.fail_after:
            return FAILED
        if silent >= self.suspect_after:
            return SUSPECT
        return ALIVE


@dataclass(slots=True)
class _PeerState:
    last_ok: float
    status: str = ALIVE


class FailureDetector:
    """One Core's view of its peers' liveness.

    ``peers`` is a callable returning the current peer names, so Cores
    added to the cluster later are picked up on the next tick.
    """

    def __init__(
        self,
        core: "Core",
        peers: Callable[[], list[str]],
        config: DetectorConfig | None = None,
    ) -> None:
        self.core = core
        self.config = config if config is not None else DetectorConfig()
        self._peers = peers
        self._states: dict[str, _PeerState] = {}
        self._latency = core.metrics.histogram("detector.detection_latency")
        self._ticks = core.metrics.counter("detector.ticks")
        self._timer = core.scheduler.call_every(self.config.interval, self._tick)
        core.events.subscribe(CORE_SHUTDOWN, self._on_shutdown)

    # -- lifecycle -------------------------------------------------------------

    def stop(self) -> None:
        """Cancel all future pings."""
        self._timer.cancel()

    def _on_shutdown(self, event) -> None:
        if event.data.get("core") == self.core.name:
            self.stop()

    # -- the heartbeat loop ----------------------------------------------------

    def _tick(self) -> None:
        if not self.core.is_running:
            return
        self._ticks.inc()
        now = self.core.scheduler.clock.now()
        peers = [name for name in self._peers() if name != self.core.name]
        for gone in set(self._states) - set(peers):
            del self._states[gone]
        for peer in peers:
            state = self._states.get(peer)
            if state is None:
                # Grace: a newly observed peer starts the silence clock now.
                state = self._states[peer] = _PeerState(last_ok=now)
            if self._ping(peer):
                self._mark_alive(peer, state, now)
            else:
                self._mark_silent(peer, state, now)

    def _ping(self, peer: str) -> bool:
        try:
            self.core.peer.request(
                peer, MessageKind.HEARTBEAT, self.core.name, retry=NO_RETRY
            )
        except CoreError:
            return False
        return True

    def _mark_alive(self, peer: str, state: _PeerState, now: float) -> None:
        if state.status != ALIVE:
            downtime = now - state.last_ok
            self._event("detector.recoveries", peer)
            self.core.events.publish(CORE_RECOVERED, core=peer, downtime=downtime)
        state.status = ALIVE
        state.last_ok = now

    def _mark_silent(self, peer: str, state: _PeerState, now: float) -> None:
        silent = now - state.last_ok
        verdict = self.config.verdict(silent)
        if state.status == ALIVE and verdict != ALIVE:
            state.status = SUSPECT
            self._event("detector.suspicions", peer)
            self.core.events.publish(CORE_SUSPECTED, core=peer, silent_for=silent)
        if state.status == SUSPECT and verdict == FAILED:
            state.status = FAILED
            self._event("detector.failures", peer)
            self._latency.observe(silent)
            self.core.events.publish(CORE_FAILED, core=peer, silent_for=silent)

    def _event(self, counter: str, peer: str) -> None:
        self.core.metrics.counter(counter, peer=peer).inc()
        tracer = self.core.tracer
        if tracer.enabled:
            span = tracer.start_span(
                f"{counter.split('.')[-1].rstrip('s')}:{peer}",
                category="detector",
                root=True,
                peer=peer,
            )
            tracer.finish(span)

    # -- introspection ---------------------------------------------------------

    def state(self) -> dict:
        """Per-peer verdicts: ``{peer: {"status": ..., "last_ok": ...}}``."""
        return {
            peer: {"status": state.status, "last_ok": state.last_ok}
            for peer, state in sorted(self._states.items())
        }

    def verdict(self, peer: str) -> str:
        """This detector's current verdict on ``peer`` (default: alive)."""
        state = self._states.get(peer)
        return state.status if state is not None else ALIVE

    def __repr__(self) -> str:
        failed = sorted(p for p, s in self._states.items() if s.status == FAILED)
        return f"<FailureDetector at {self.core.name} failed={failed}>"
