"""Integration: supervised multi-process deployments that heal themselves.

Each test SIGKILLs (or exhausts the restart budget of) a real child
process and checks the :class:`~repro.cluster.supervisor.Supervisor`
end-to-end: death detected via ``waitpid``, the successor respawned on
the preallocated port, durable checkpoints replayed identity-preserving
from the shared :class:`~repro.recovery.FileCheckpointStore`, and the
surviving deployment repaired so pre-kill references keep working.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time

import pytest

from repro.cluster import CoreProcesses, RestartPolicy, Supervisor
from repro.recovery import FileCheckpointStore
from tests.anchors import Holder, Probe

pytestmark = pytest.mark.tcp

CHECKPOINT_INTERVAL = 0.2


def wait_until(predicate, timeout: float = 20.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def hosted_at(procs: CoreProcesses, core_name: str) -> set[str]:
    return set(procs.driver.admin(core_name, "complets"))


def wait_for_checkpoint(checkpoint_dir: str, core_name: str) -> None:
    """Block until the child's periodic sweep has persisted something."""
    store = FileCheckpointStore(checkpoint_dir)
    assert wait_until(lambda: len(store.hosted_at(core_name)) > 0), (
        f"no durable checkpoint for {core_name} appeared in {checkpoint_dir}"
    )


def wait_for_checkpoint_after(checkpoint_dir: str, complet) -> None:
    """Block until a sweep that *started* after now has persisted ``complet``.

    A sweep may already be in flight (it snapshotted the state before
    the caller's last call), so one new generation is not enough: wait
    for two past the newest one visible right now.
    """
    store = FileCheckpointStore(checkpoint_dir)
    complet_id = complet._fargo_target_id

    def latest() -> int:
        generations = store.generations(complet_id)
        return generations[-1]["gen"] if generations else 0

    target = latest() + 2
    assert wait_until(lambda: latest() >= target), (
        f"no durable checkpoint of {complet_id} newer than generation "
        f"{target - 2} appeared in {checkpoint_dir}"
    )


def child_state(supervisor: Supervisor, name: str) -> dict:
    return supervisor.state()["children"][name]


@pytest.fixture()
def deployment():
    """Fresh two-child supervised deployment with durable checkpoints.

    Function-scoped on purpose: every test kills children, so no state
    may leak between tests.
    """
    checkpoint_dir = tempfile.mkdtemp(prefix="repro-supervised-")
    with CoreProcesses(
        ["alpha", "beta"],
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=CHECKPOINT_INTERVAL,
    ) as procs:
        yield procs, checkpoint_dir
    import shutil

    shutil.rmtree(checkpoint_dir, ignore_errors=True)


class TestIdentityPreservingRestart:
    def test_sigkill_mid_traffic_restores_identity(self, deployment):
        procs, checkpoint_dir = deployment
        with Supervisor(procs) as supervisor:
            probe = Probe(_core=procs.driver, _at="alpha")
            probe.note("pre-kill")
            original_id = str(probe._fargo_target_id)
            wait_for_checkpoint_after(checkpoint_dir, probe)

            old_pid = procs.processes["alpha"].pid
            os.kill(old_pid, signal.SIGKILL)
            assert wait_until(
                lambda: child_state(supervisor, "alpha")["restarts"] >= 1
                and child_state(supervisor, "alpha")["status"] == "running"
            ), f"alpha never healed: {child_state(supervisor, 'alpha')}"

            # A genuinely new process, hosting the *same* complet identity.
            assert procs.processes["alpha"].pid != old_pid
            assert original_id in hosted_at(procs, "alpha")
            # The pre-kill stub completes an invocation against the
            # reborn host, and the checkpointed state survived.
            probe.note("post-rebirth")
            history = probe.get_history()
            assert "pre-kill" in history
            assert "post-rebirth" in history

            state = child_state(supervisor, "alpha")
            assert state["last_exit"] == "signal SIGKILL"
            assert state["last_mttr"] is not None and state["last_mttr"] > 0.0

    def test_restart_metrics_and_spans(self, deployment):
        procs, checkpoint_dir = deployment
        procs.driver.tracer.enabled = True
        with Supervisor(procs) as supervisor:
            probe = Probe(_core=procs.driver, _at="beta")
            probe.note("x")
            wait_for_checkpoint(checkpoint_dir, "beta")
            procs.processes["beta"].kill()
            assert wait_until(
                lambda: child_state(supervisor, "beta")["restarts"] >= 1
            )
            assert procs.driver.metrics.counter("supervisor.restarts").value >= 1
            histogram = procs.driver.metrics.histogram("supervisor.mttr")
            assert histogram.count >= 1
            names = [span.name for span in procs.driver.tracer.spans()]
            assert "supervisor:restart" in names


class TestEscalation:
    def test_budget_exhaustion_escalates_to_fresh_identity(self, deployment):
        procs, checkpoint_dir = deployment
        # Zero budget: the very first death is a permanent failure.
        policy = RestartPolicy(max_restarts=0)
        with Supervisor(procs, policy=policy) as supervisor:
            probe = Probe(_core=procs.driver, _at="alpha")
            probe.note("will-be-escalated")
            original_id = str(probe._fargo_target_id)
            wait_for_checkpoint(checkpoint_dir, "alpha")

            procs.processes["alpha"].kill()
            # "failed" is set the moment the decision is made; the
            # fresh-identity restores land moments later.
            assert wait_until(
                lambda: child_state(supervisor, "alpha")["escalated_to"]
            ), "no fresh-identity restore happened"
            state = child_state(supervisor, "alpha")
            assert state["status"] == "failed"
            assert state["restarts"] == 0
            # Restored on the survivor, under a *different* identity.
            survivor_hosted = hosted_at(procs, "beta")
            for new_id in state["escalated_to"]:
                assert new_id in survivor_hosted
                assert new_id != original_id
            assert procs.driver.metrics.counter("supervisor.escalations").value >= 1


class TestDurableCheckpoints:
    def test_checkpoints_readable_across_processes(self, deployment):
        """The parent reads records the child process wrote, and the
        respawned child restores exactly those records."""
        procs, checkpoint_dir = deployment
        probe = Probe(_core=procs.driver, _at="alpha")
        probe.note("persisted")
        wait_for_checkpoint(checkpoint_dir, "alpha")

        store = FileCheckpointStore(checkpoint_dir)
        records = store.hosted_at("alpha")
        assert [str(record.complet_id) for record in records] == [
            str(probe._fargo_target_id)
        ]
        assert records[0].host == "alpha"
        assert len(records[0].data) > 0

    def test_regenerating_state_advances_generations(self, deployment):
        procs, checkpoint_dir = deployment
        probe = Probe(_core=procs.driver, _at="alpha")
        probe.note("gen-1")
        wait_for_checkpoint(checkpoint_dir, "alpha")
        store = FileCheckpointStore(checkpoint_dir)
        cid = store.by_str(str(probe._fargo_target_id)).complet_id
        first = store.generations(cid)[-1]["gen"]
        probe.note("gen-2")
        assert wait_until(
            lambda: store.generations(cid)[-1]["gen"] > first
        ), "mutated complet never produced a newer durable generation"


class TestTransportReconnect:
    def test_survivor_reference_works_after_rebirth(self, deployment):
        """A stub held by a *survivor* child (not just the driver) keeps
        working once its target Core is killed and reborn."""
        procs, checkpoint_dir = deployment
        with Supervisor(procs) as supervisor:
            probe = Probe(_core=procs.driver, _at="alpha")
            holder = Holder(_core=procs.driver, _at="beta")
            holder.set_ref(probe)
            holder.get_ref().note("before-kill")
            wait_for_checkpoint_after(checkpoint_dir, probe)

            procs.processes["alpha"].kill()
            assert wait_until(
                lambda: child_state(supervisor, "alpha")["restarts"] >= 1
                and child_state(supervisor, "alpha")["status"] == "running"
            )
            # beta's pooled connection and trackers were repaired during
            # re-admission; the held stub reaches the reborn alpha.
            holder.get_ref().note("after-rebirth")
            history = probe.get_history()
            assert "before-kill" in history
            assert "after-rebirth" in history

    def test_driver_probe_and_admin_after_rebirth(self, deployment):
        procs, checkpoint_dir = deployment
        with Supervisor(procs) as supervisor:
            Probe(_core=procs.driver, _at="alpha")
            wait_for_checkpoint(checkpoint_dir, "alpha")
            procs.processes["alpha"].kill()
            assert wait_until(
                lambda: child_state(supervisor, "alpha")["restarts"] >= 1
            )
            assert procs.transport.probe("alpha", timeout=2.0)
            snapshot = procs.driver.admin("alpha", "snapshot")
            assert snapshot["core"] == "alpha"
            admin_state = procs.driver.admin(procs.driver.name, "supervisor")
            assert admin_state["children"]["alpha"]["restarts"] >= 1
