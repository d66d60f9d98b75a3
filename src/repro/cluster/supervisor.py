"""Process supervision: self-healing multi-process TCP deployments.

The :class:`Supervisor` is the process trigger of the recovery layer's
one reconfiguration path (the simulated trigger is a
:class:`~repro.recovery.FailureDetector` verdict handled by the
:class:`~repro.recovery.RecoveryManager`); both use the primitives of
:mod:`repro.recovery`.

- **Watch** — a monitor thread fuses ``waitpid`` (``Popen.poll``: exit
  code or signal) with the :meth:`~repro.recovery.DetectorConfig.verdict`
  ladder over TCP probes.  A dead child is restarted; a child alive but
  unreachable is *partitioned* — restarting it would fork the
  deployment, so only the verdict is recorded.
- **Restart** — a :class:`RestartPolicy` allows ``max_restarts`` within
  ``window`` seconds, with :data:`DEFAULT_BACKOFF` between consecutive
  respawns.  The child respawns on its preallocated port, or on a fresh
  one announced to every survivor through ``add_peer``.
- **Re-admit** — the successor restores its predecessor's durable
  checkpoints (``--recover``, identities kept) and only then prints the
  READY line the respawn waits for.  The supervisor fetches its tracker
  map (``hosted_trackers``) and runs ``repair_core`` with it on the
  driver and every survivor.  A map that cannot be fetched is unknown,
  not empty: the child stays ``readmitting`` and the next pass retries.
- **Escalate** — past the budget the child is permanently failed; its
  last checkpoints are restored on a survivor under *fresh* identities
  and the deployment is repaired with an empty map (old references
  dangle with typed errors rather than split-brain).

Observability: ``supervisor.restarts``/``supervisor.escalations``
counters, the ``supervisor.mttr`` histogram (detection to re-admission,
real seconds), ``supervisor:restart``/``supervisor:escalate`` spans on
the driver Core, and ``CoreAdmin.supervisor_state()``.
"""

from __future__ import annotations

import logging
import signal as signal_module
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.admin import CoreAdmin
from repro.errors import ConfigurationError, CoreError, FarGoError, TransportError
from repro.net.retry import RetryPolicy
from repro.recovery.detector import ALIVE, FAILED, DetectorConfig
from repro.recovery.recovery import repair_core
from repro.recovery.store import FileCheckpointStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.launch import CoreProcesses

logger = logging.getLogger(__name__)

#: Backoff schedule between consecutive respawns of one child.
DEFAULT_BACKOFF = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=2.0)
#: Seconds a restarted child must stay up before its backoff streak resets.
HEALTHY_AFTER = 5.0
#: Probe cadence and verdict ladder (wall-clock seconds).
DETECTOR = DetectorConfig()


@dataclass(frozen=True)
class RestartPolicy:
    """How stubbornly each child Core is kept alive.

    ``max_restarts`` bounds restarts within the sliding ``window``
    (seconds); exceeding it escalates the child to permanent failure.
    """

    max_restarts: int = 3
    window: float = 60.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be non-negative, got {self.max_restarts}"
            )
        if self.window <= 0.0:
            raise ConfigurationError(f"window must be positive, got {self.window}")


@dataclass(slots=True)
class _ChildState:
    """Mutable supervision record for one child Core."""

    #: running | restarting | readmitting | partitioned | failed
    status: str = "running"
    restarts: int = 0
    #: Monotonic instants of restarts inside the policy window.
    recent: list = field(default_factory=list)
    #: Consecutive-restart streak (drives the backoff schedule).
    streak: int = 0
    last_exit: str | None = None
    last_verdict: str = "alive"
    last_ok: float = 0.0
    last_probe: float = 0.0
    last_restart_at: float | None = None
    last_mttr: float | None = None
    next_backoff: float = 0.0
    #: When the death now being healed was detected (MTTR start).
    detected_at: float = 0.0
    #: Fresh-identity ids created by escalation, if any.
    escalated_to: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "restarts": self.restarts,
            "recent_restarts": len(self.recent),
            "streak": self.streak,
            "last_exit": self.last_exit,
            "last_verdict": self.last_verdict,
            "last_mttr": self.last_mttr,
            "next_backoff": self.next_backoff,
            "escalated_to": list(self.escalated_to),
        }


def describe_exit(returncode: int) -> str:
    """Human-readable exit cause from a ``Popen.returncode``."""
    if returncode < 0:
        try:
            return f"signal {signal_module.Signals(-returncode).name}"
        except ValueError:
            return f"signal {-returncode}"
    return f"exit {returncode}"


class Supervisor:
    """Keeps a :class:`~repro.cluster.launch.CoreProcesses` fleet alive.

    Usage::

        with CoreProcesses(["A", "B"], checkpoint_dir=shared) as procs:
            supervisor = Supervisor(procs)
            supervisor.start()
            ...                       # SIGKILL a child; it comes back
            supervisor.stop()

    One policy applies to every child.  The supervisor attaches itself
    to the driver Core, so ``admin(driver).supervisor_state()`` works
    from anywhere in the deployment.
    """

    def __init__(
        self,
        procs: "CoreProcesses",
        *,
        policy: RestartPolicy | None = None,
        poll_interval: float = 0.05,
    ) -> None:
        if procs.driver is None or procs.transport is None:
            raise ConfigurationError("CoreProcesses must be started before supervising")
        self.procs = procs
        self.driver = procs.driver
        self.policy = policy if policy is not None else RestartPolicy()
        self.poll_interval = poll_interval
        self.children: dict[str, _ChildState] = {
            name: _ChildState(last_ok=time.monotonic()) for name in procs.names
        }
        #: (monotonic, message) decision log, mirroring RecoveryManager.log.
        self.log: list[tuple[float, str]] = []
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self.driver.supervisor = self

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Supervisor":
        if self._thread is not None:
            raise ConfigurationError("Supervisor is already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._monitor, name="repro-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def state(self) -> dict:
        """Per-child supervision state (admin/shell surface)."""
        with self._lock:
            return {
                "running": self._thread is not None and self._thread.is_alive(),
                "children": {
                    name: child.to_dict() for name, child in self.children.items()
                },
                "policy": {
                    "max_restarts": self.policy.max_restarts,
                    "window": self.policy.window,
                },
            }

    # -- monitor loop ------------------------------------------------------

    def _monitor(self) -> None:
        while not self._stop.is_set():
            for name in list(self.procs.names):
                try:
                    self._check_child(name)
                except FarGoError:
                    logger.warning("supervision pass for %s failed", name, exc_info=True)
            self._stop.wait(self.poll_interval)

    def check_now(self) -> None:
        """One synchronous supervision pass (tests, shell)."""
        for name in list(self.procs.names):
            self._check_child(name)

    def _check_child(self, name: str) -> None:
        child = self.children[name]
        if child.status == "failed":
            return
        process = self.procs.processes.get(name)
        returncode = process.poll() if process is not None else None
        now = time.monotonic()
        if process is None or returncode is not None:
            # The process is gone: waitpid gives the ground truth the
            # network-level ladder cannot — exit code or fatal signal.
            cause = describe_exit(returncode) if returncode is not None else "never started"
            child.last_exit = cause
            child.last_verdict = "dead"
            self._restart(name, child, cause, detected_at=now)
            return
        if child.status == "readmitting":
            self._readmit(name, child)
            return
        if now - child.last_probe < DETECTOR.interval:
            return  # heartbeat cadence, not poll cadence
        child.last_probe = now
        if self.procs.transport.probe(name, timeout=min(1.0, DETECTOR.interval)):
            child.last_ok = now
            if child.status == "partitioned":
                child.status = "running"
            child.last_verdict = ALIVE
            if (
                child.streak
                and child.last_restart_at is not None
                and now - child.last_restart_at >= HEALTHY_AFTER
            ):
                child.streak = 0  # stayed up: the unhealthy streak is over
            return
        verdict = DETECTOR.verdict(now - child.last_ok)
        if verdict == FAILED:
            # Alive per waitpid, yet silent: a partition or a hang.
            child.status = verdict = "partitioned"
        if verdict != ALIVE:
            child.last_verdict = verdict

    # -- restart path ------------------------------------------------------

    def _restart(self, name: str, child: _ChildState, cause: str, detected_at: float) -> None:
        child.recent = [t for t in child.recent if detected_at - t <= self.policy.window]
        if len(child.recent) >= self.policy.max_restarts:
            self._escalate(name, child, cause)
            return
        child.status = "restarting"
        child.streak += 1
        delay = DEFAULT_BACKOFF.backoff(child.streak) if child.streak > 1 else 0.0
        child.next_backoff = DEFAULT_BACKOFF.backoff(child.streak + 1)
        self._log(f"child {name} died ({cause}); restart #{child.streak} in {delay:.2f}s")
        if delay > 0.0 and self._stop.wait(delay):
            return
        recover = self.procs.checkpoint_dir is not None
        with self.driver.tracer.span(
            "supervisor:restart", category="supervision",
            child=name, cause=cause, attempt=child.streak, recover=recover,
        ):
            try:
                self._respawn(name, recover=recover)
            except (CoreError, TransportError, OSError) as exc:
                self._log(f"respawn of {name} failed: {exc}")
                # The next monitor pass sees the corpse and retries
                # (counting against the same window/backoff streak).
                return
            child.status = "readmitting"
            child.detected_at = detected_at
            self._readmit(name, child)

    def _respawn(self, name: str, *, recover: bool) -> None:
        """Spawn the successor; returns at its READY, i.e. after its restore.

        A preallocated port that will not come back is traded for a fresh
        one, which re-admission announces.
        """
        self.procs.spawn_child(name, recover=recover)
        try:
            self.procs.await_child(name)
        except CoreError as exc:
            self._log(f"child {name} did not come back on its port ({exc})")
            self.procs.respawn_on_fresh_port(name, recover=recover)

    def _readmit(self, name: str, child: _ChildState) -> None:
        """Reconnect and repair the deployment around the reborn Core."""
        address = self.procs.addresses[name]
        # Refresh the driver's address book: even on the same port, the
        # pooled connections point at the dead predecessor.
        self.procs.transport.add_peer(name, address)
        # The reborn Core restored its complets under fresh tracker
        # serials; survivors' trackers still carry the predecessor's.
        try:
            relocated = CoreAdmin(self.driver, name).hosted_trackers()
        except (CoreError, TransportError) as exc:
            self._log(f"re-admission of {name} deferred to the next pass: {exc}")
            return
        self._repair(name, relocated, address=address)
        now = time.monotonic()
        mttr = now - child.detected_at
        child.restarts += 1
        child.recent.append(child.detected_at)
        child.last_restart_at = child.last_ok = now
        child.last_mttr = mttr
        child.status = "running"
        child.last_verdict = ALIVE
        self.driver.metrics.counter("supervisor.restarts").inc()
        self.driver.metrics.histogram("supervisor.mttr").observe(mttr)
        self._log(f"child {name} restored in {mttr:.2f}s (restart #{child.restarts})")

    def _repair(self, failed: str, relocated: dict, *, address: tuple | None = None) -> None:
        """``repair_core`` on every surviving child and on the driver."""
        unrepaired: list[str] = []
        for survivor in self._survivors(failed):
            admin = CoreAdmin(self.driver, survivor)
            try:
                if address is not None:
                    admin.add_peer(failed, address)
                unrepaired += admin.repair_core(failed, relocated)
            except (CoreError, TransportError) as exc:
                self._log(f"repair at {survivor} around {failed} failed: {exc}")
        unrepaired += repair_core(self.driver, failed, relocated)
        if unrepaired:
            self._log(f"trackers still forwarding to {failed}: {', '.join(unrepaired)}")

    def _survivors(self, failed: str) -> list[str]:
        alive = []
        for name in self.procs.names:
            if name == failed:
                continue
            process = self.procs.processes.get(name)
            if process is not None and process.poll() is None:
                alive.append(name)
        return alive

    # -- escalation --------------------------------------------------------

    def _escalate(self, name: str, child: _ChildState, cause: str) -> None:
        """Budget exhausted: permanent failure + fresh-identity failover.

        The child's newest durable checkpoints are restored on a
        surviving Core under *fresh* identities — the degraded path of
        simulated recovery: old references dangle with typed errors
        instead of resurrecting an identity the deployment has given up
        supervising.
        """
        child.status = "failed"
        self._log(
            f"child {name} exceeded restart budget "
            f"({self.policy.max_restarts}/{self.policy.window:.0f}s, last cause {cause}); "
            f"escalating to permanent failure"
        )
        self.driver.metrics.counter("supervisor.escalations").inc()
        records = []
        if self.procs.checkpoint_dir is not None:
            records = FileCheckpointStore(self.procs.checkpoint_dir).hosted_at(name)
        survivors = self._survivors(name)
        destination = survivors[0] if survivors else self.driver.name
        with self.driver.tracer.span(
            "supervisor:escalate", category="supervision",
            child=name, cause=cause, records=len(records), destination=destination,
        ):
            for record in records:
                try:
                    new_id = CoreAdmin(self.driver, destination).restore(record.data)
                    child.escalated_to.append(new_id)
                except FarGoError as exc:
                    self._log(
                        f"fresh-identity restore of {record.complet_id} failed: {exc}"
                    )
            self._repair(name, {})
        if child.escalated_to:
            self._log(
                f"escalation restored {len(child.escalated_to)} complets "
                f"on {destination} under fresh identities"
            )

    # -- bookkeeping -------------------------------------------------------

    def _log(self, message: str) -> None:
        with self._lock:
            self.log.append((time.monotonic(), message))
        logger.info("%s", message)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{child.status}" for name, child in sorted(self.children.items())
        )
        return f"<Supervisor {parts}>"
