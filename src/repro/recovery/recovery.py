"""Automatic complet recovery after a Core failure.

The :class:`RecoveryManager` listens for the failure detector's
``coreFailed`` verdicts on every Core's bus and — once it trusts a
verdict — restores the dead Core's checkpointed complets on a surviving
Core, repairs the cluster's distributed pointers, and announces each
revival with a ``completRecovered`` event.

Trusting a verdict is the delicate part.  Detection is per-observer, so
a partition makes *both* sides declare the other failed; acting on the
minority side would resurrect complets whose originals are alive across
the split.  The guard:

- a verdict from a Core that is itself down is ignored (a crashed Core's
  timers keep firing locally; its detector sees everyone as silent);
- when the named Core is genuinely down (crashed or deregistered), the
  verdict is trusted;
- otherwise (a partition), the observer's reachability component must be
  a strict majority of the running Cores — ties broken toward the
  component with the alphabetically-first Core — and must exclude the
  named Core.

Identity is the second delicate part.  A complet is restored under its
*original* identity only when nothing can contradict it: the failed Core
is really down and every running Core is reachable from the recovery
destination.  Whenever the original might still be alive (partition, or
unreachable survivors), the revival gets a *fresh* identity and its
``completRecovered`` event says ``degraded=True`` — old references are
left dangling (a typed error) rather than silently split-brained.  When
a crashed Core later revives with stale hosted copies,
:meth:`RecoveryManager.reconcile` drops the copies whose identity was
reclaimed elsewhere and forwards their trackers to the living complet;
complets the revived Core still legitimately hosts (a healed partition's
false positive) get their dangling trackers repaired instead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.events import (
    COMPLET_RECOVERED,
    CORE_FAILED,
    CORE_RECONCILED,
    CORE_RECOVERED,
)
from repro.errors import CompletError, CoreNotFoundError, FarGoError
from repro.recovery.checkpoint import CheckpointManager, restore_checkpoint
from repro.recovery.store import CheckpointRecord
from repro.util.ids import CompletId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.core.core import Core

logger = logging.getLogger(__name__)


@dataclass(slots=True)
class RecoveryReport:
    """What one :meth:`RecoveryManager.recover_core` pass did."""

    failed: str
    destination: str
    #: New ids of complets restored under their original identity.
    restored: list[str] = field(default_factory=list)
    #: New ids of complets restored under a fresh identity (degraded).
    degraded: list[str] = field(default_factory=list)
    #: Original ids skipped (alive elsewhere, or their snapshot failed).
    skipped: list[str] = field(default_factory=list)
    #: Original id -> tracker address now hosting it (identity kept).
    relocated: dict = field(default_factory=dict)
    #: Post-condition check: survivor trackers for relocated complets
    #: still pointing at the dead Core after repair ("core:complet_id").
    #: Non-empty means the tracker-repair guarantee was broken.
    unrepaired: list[str] = field(default_factory=list)
    #: Virtual time the pass started / took.
    at: float = 0.0
    duration: float = 0.0

    @property
    def recovered_count(self) -> int:
        return len(self.restored) + len(self.degraded)


def repair_core(core: "Core", failed: str, relocated: dict) -> list[str]:
    """Repair ``core``'s view of the dead (or reborn) Core ``failed``.

    Forgets location records naming ``failed``, re-points trackers
    forwarding there at their complet's ``relocated`` address, and
    dangles the rest.  Returns the post-condition's violations: trackers
    still forwarding to ``failed`` elsewhere (``"core:complet_id"``).
    """
    core.locator.forget_core(failed)
    core.references.repair_dead_core(failed, relocated)
    return [
        f"{core.name}:{tracker.target_id}"
        for tracker in core.repository.trackers()
        if tracker.next_hop is not None
        and tracker.next_hop.core == failed
        and tracker.next_hop != relocated.get(tracker.target_id)
    ]


class RecoveryManager:
    """Restores a dead Core's checkpointed complets on survivors."""

    def __init__(
        self,
        cluster: "Cluster",
        checkpoints: CheckpointManager,
        *,
        auto_recover: bool = True,
    ) -> None:
        self.cluster = cluster
        self.checkpoints = checkpoints
        self.store = checkpoints.store
        self.auto_recover = auto_recover
        self.reports: list[RecoveryReport] = []
        #: Human-readable log of recovery decisions: (time, message).
        self.log: list[tuple[float, str]] = []
        #: Cores recovered and not yet seen alive again (epoch guard —
        #: many detectors declare the same failure; one recovery runs).
        self._handled: set[str] = set()
        for core in cluster.cores.values():
            self.attach(core)

    def attach(self, core: "Core") -> None:
        """Listen for detector verdicts published at ``core``."""
        core.events.subscribe(CORE_FAILED, self._on_core_failed)
        core.events.subscribe(CORE_RECOVERED, self._on_core_recovered)

    # -- verdict handling --------------------------------------------------------

    def _on_core_failed(self, event) -> None:
        failed = event.data.get("core")
        if not self.auto_recover or not isinstance(failed, str):
            return
        if failed in self._handled:
            return
        if not self._should_act(event.origin, failed):
            return
        self.recover_core(failed, seen_from=event.origin)

    def _on_core_recovered(self, event) -> None:
        revived = event.data.get("core")
        if isinstance(revived, str) and revived in self._handled:
            self.reconcile(revived)

    def _should_act(self, observer: str, failed: str) -> bool:
        network = self.cluster.transport
        if not network.is_up(observer):
            return False  # a crashed Core's own detector still ticking
        if not network.is_up(failed):
            return True  # genuinely down: crashed or deregistered
        # Both up yet unreachable: a partition.  Act only from the
        # majority component, and never from the side that still sees
        # the accused Core.
        running = sorted(
            core.name
            for core in self.cluster.running_cores()
            if network.is_up(core.name)
        )
        component = [name for name in running if network.can_reach(observer, name)]
        if failed in component:
            return False
        rest = [name for name in running if name not in component]
        if 2 * len(component) != len(running):
            return 2 * len(component) > len(running)
        # Even split: exactly one side may act; pick deterministically.
        return min(component) < min(rest)

    # -- recovery ----------------------------------------------------------------

    def recover_core(
        self,
        failed: str,
        destination: str | None = None,
        *,
        seen_from: str | None = None,
    ) -> RecoveryReport:
        """Restore every complet last checkpointed at ``failed``.

        ``destination`` pins the Core the complets land on (default: the
        reachable survivor hosting the fewest complets).  ``seen_from``
        names the Core whose detector triggered the pass; only survivors
        it can reach participate, which keeps a partition-side recovery
        inside its own component.
        """
        network = self.cluster.transport
        started = self.cluster.scheduler.clock.now()
        self._handled.add(failed)
        survivors = [
            core
            for core in self.cluster.running_cores()
            if core.name != failed
            and network.is_up(core.name)
            and (seen_from is None or network.can_reach(seen_from, core.name))
        ]
        if not survivors:
            raise CoreNotFoundError(
                f"cannot recover Core {failed!r}: no reachable survivor"
            )
        if destination is not None:
            dest = self.cluster.core(destination)
            if dest not in survivors:
                raise CoreNotFoundError(
                    f"recovery destination {destination!r} is not a reachable survivor"
                )
        else:
            dest = min(survivors, key=lambda core: (len(core.repository), core.name))

        report = RecoveryReport(failed=failed, destination=dest.name, at=started)
        records = self.store.hosted_at(failed)
        # Originals may survive the "failure" if it is only a partition,
        # or live on a survivor this side cannot see; then a revival must
        # not claim the original identity.
        unreachable = [
            core.name
            for core in self.cluster.running_cores()
            if core.name != failed and core not in survivors
        ]
        identity_safe = not network.is_up(failed) and not unreachable

        with dest.tracer.span(
            "recovery:core", category="recovery", failed=failed, records=len(records)
        ):
            # Registry records naming the grave would refuse the
            # identity-keeping restores below; repair_core forgets them
            # again (idempotently) once the restores are published.
            for survivor in survivors:
                survivor.locator.forget_core(failed)
            for record in records:
                self._recover_record(record, dest, survivors, identity_safe, report)
            for survivor in survivors:
                report.unrepaired += repair_core(survivor, failed, report.relocated)

        report.duration = self.cluster.scheduler.clock.now() - started
        dest.metrics.histogram("recovery.duration").observe(report.duration)
        self.reports.append(report)
        self.log.append(
            (
                report.at,
                f"recovered core {failed}: {len(report.restored)} restored, "
                f"{len(report.degraded)} degraded, {len(report.skipped)} skipped "
                f"-> {dest.name}",
            )
        )
        return report

    def _recover_record(
        self,
        record: CheckpointRecord,
        dest: "Core",
        survivors: list["Core"],
        identity_safe: bool,
        report: RecoveryReport,
    ) -> None:
        original = record.complet_id
        if any(core.repository.hosts(original) for core in survivors):
            # Moved (or evacuated) after its last checkpoint: alive.
            report.skipped.append(str(original))
            return
        recovered = dest.metrics.counter("recovery.complets_recovered")
        try:
            new_id, address, kept = restore_checkpoint(
                dest, record.data, keep_identity=identity_safe
            )
        except FarGoError:
            logger.warning(
                "recovery of %s at %s failed", original, dest.name, exc_info=True
            )
            report.skipped.append(str(original))
            return
        degraded = not kept
        if not degraded:
            report.restored.append(str(new_id))
            report.relocated[original] = address
        else:
            report.degraded.append(str(new_id))
        recovered.inc()
        dest.events.publish(
            COMPLET_RECOVERED,
            complet=str(new_id),
            original=str(original),
            from_core=record.host,
            at=dest.name,
            degraded=degraded,
        )
        if not degraded:
            # The revival IS the complet now; refresh its checkpoint so
            # the store names the new host instead of the dead one.
            self.checkpoints.checkpoint(new_id)
        elif self.checkpoints.is_protected(original):
            # The original may still be alive somewhere — that is what
            # made the revival degraded — so its protection and its last
            # checkpoint stay put; the fresh copy gets its own.
            self.checkpoints.protect(new_id, self.checkpoints.policy_of(original))

    # -- reconciliation -----------------------------------------------------------

    def reconcile(self, revived: str) -> list[str]:
        """A recovered-from Core is back: resolve identity duplication.

        Complets still hosted on ``revived`` whose identity was reclaimed
        by recovery elsewhere are *stale copies*: the recovered complet
        has been doing the work.  They are dropped, their trackers
        forwarded to the living copy, and a ``coreReconciled`` event
        reports what was dropped.  Returns the dropped ids.

        The complets ``revived`` still legitimately hosts get the inverse
        treatment: a degraded recovery wrote them off — survivors marked
        their trackers dangling and forgot their registry entries — so
        once the Core turns out alive, those trackers are re-pointed at
        the living originals and the locations republished.
        """
        self._handled.discard(revived)
        core = self.cluster.cores.get(revived)
        network = self.cluster.transport
        if core is None or not core.is_running or not network.is_up(revived):
            return []
        dropped: list[str] = []
        for complet_id in core.repository.complet_ids():
            winner = self._live_copy_elsewhere(complet_id, core)
            if winner is None:
                continue
            core.repository.release(complet_id)
            tracker = core.repository.existing_tracker(complet_id)
            if tracker is not None:
                remote = winner.repository.existing_tracker(complet_id)
                if remote is not None:
                    tracker.point_to(remote.address)
                else:  # pragma: no cover - winner hosts it, tracker exists
                    tracker.mark_dangling()
            dropped.append(str(complet_id))
        # Inverse repair: complets this Core still hosts were declared
        # dead by a degraded recovery — un-dangle the cluster's trackers
        # and restore the registry entries survivors forgot.
        hosted = core.hosted_trackers()
        for complet_id, address in hosted.items():
            core.locator.publish(complet_id, address)
        repaired = 0
        if hosted:
            for other in self.cluster.running_cores():
                if other is core or not network.is_up(other.name):
                    continue
                if not network.can_reach(core.name, other.name):
                    continue
                repaired += other.references.repair_revived(hosted)
        if dropped or repaired:
            self.log.append(
                (
                    self.cluster.scheduler.clock.now(),
                    f"reconciled revived core {revived}: dropped {len(dropped)} "
                    f"stale copies, repaired {repaired} trackers",
                )
            )
            core.events.publish(
                CORE_RECONCILED, core=revived, dropped=dropped, repaired=repaired
            )
        return dropped

    def _live_copy_elsewhere(self, complet_id: CompletId, core: "Core") -> "Core | None":
        network = self.cluster.transport
        for other in self.cluster.running_cores():
            if other is core or not network.is_up(other.name):
                continue
            if not network.can_reach(core.name, other.name):
                continue
            if other.repository.hosts(complet_id):
                return other
        return None

    # -- manual restore (shell / scripts) ------------------------------------------

    def restore_complet(self, complet_id_str: str, destination: str | None = None) -> str:
        """Restore one stored checkpoint by id; returns the live complet's id.

        The original identity is reclaimed when nothing contradicts it,
        otherwise the revival gets a fresh identity — same rule as
        automatic recovery, applied to a single complet.
        """
        record = self.store.by_str(complet_id_str)
        if record is None:
            raise CompletError(f"no checkpoint stored for complet {complet_id_str!r}")
        network = self.cluster.transport
        candidates = [
            core
            for core in self.cluster.running_cores()
            if network.is_up(core.name)
        ]
        if destination is not None:
            dest = self.cluster.core(destination)
            if dest not in candidates:
                raise CoreNotFoundError(f"Core {destination!r} is not up")
        else:
            if not candidates:
                raise CoreNotFoundError("no running Core to restore on")
            dest = min(candidates, key=lambda core: (len(core.repository), core.name))
        alive = any(core.repository.hosts(record.complet_id) for core in candidates)
        new_id, _address, _kept = restore_checkpoint(
            dest, record.data, keep_identity=not alive
        )
        self.log.append(
            (
                self.cluster.scheduler.clock.now(),
                f"restored {complet_id_str} as {new_id} at {dest.name}",
            )
        )
        return str(new_id)

    def __repr__(self) -> str:
        return (
            f"<RecoveryManager auto={self.auto_recover} "
            f"handled={sorted(self._handled)} reports={len(self.reports)}>"
        )
