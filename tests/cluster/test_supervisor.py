"""Unit tests for supervision policy plumbing (no real processes).

The end-to-end kill/restart/escalate paths live in
``tests/integration/test_supervised.py`` (tcp marker) and the chaos
``--real`` mode; here we pin down the pure parts: restart policies,
exit-cause decoding, backoff schedules, state reporting, and the
``Cluster(checkpoint_store=...)`` wiring, readiness gated on READY,
and re-admission when the reborn Core's tracker map is unknown.
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path

import pytest

from repro.cluster import Cluster, CoreProcesses, RestartPolicy, Supervisor
from repro.cluster.supervisor import DEFAULT_BACKOFF, _ChildState, describe_exit
from repro.errors import ConfigurationError, TransportError
from repro.recovery import CheckpointStore, FileCheckpointStore
from tests.anchors import Holder, Probe


class TestRestartPolicy:
    def test_defaults(self):
        policy = RestartPolicy()
        assert policy.max_restarts == 3
        assert policy.window == 60.0

    def test_zero_budget_is_legal(self):
        # max_restarts=0 means "never restart, escalate immediately".
        assert RestartPolicy(max_restarts=0).max_restarts == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            RestartPolicy(max_restarts=-1)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ConfigurationError):
            RestartPolicy(window=0.0)

    def test_backoff_schedule_is_exponential_and_capped(self):
        delays = [DEFAULT_BACKOFF.backoff(n) for n in range(1, 7)]
        assert delays[:4] == [0.1, 0.2, 0.4, 0.8]
        assert max(delays) <= 2.0


class TestDescribeExit:
    def test_signals_named(self):
        assert describe_exit(-9) == "signal SIGKILL"
        assert describe_exit(-15) == "signal SIGTERM"

    def test_unknown_signal_number_falls_back(self):
        assert describe_exit(-250) == "signal 250"

    def test_exit_codes(self):
        assert describe_exit(0) == "exit 0"
        assert describe_exit(3) == "exit 3"


class TestChildState:
    def test_to_dict_surface(self):
        state = _ChildState()
        as_dict = state.to_dict()
        assert as_dict["status"] == "running"
        assert as_dict["restarts"] == 0
        assert as_dict["last_exit"] is None
        assert as_dict["escalated_to"] == []
        for key in ("streak", "last_verdict", "last_mttr", "next_backoff"):
            assert key in as_dict


class TestSupervisorConstruction:
    def test_requires_started_processes(self):
        procs = CoreProcesses(["alpha"])  # not started
        with pytest.raises(ConfigurationError):
            Supervisor(procs)


#: A child that listens (so probes succeed) long before it is ready, the
#: way a reborn Core's listener answers while its restore still runs.
SLOW_READY_CHILD = """
import socket, sys, time
name, host, port = sys.argv[1], sys.argv[2], int(sys.argv[3])
listener = socket.create_server((host, port))
time.sleep(1.5)
print("READY", name, port, flush=True)
listener.close()
"""


class _SlowReadyProcesses(CoreProcesses):
    def command_for(self, name: str, *, recover: bool = False) -> list[str]:
        host, port = self.addresses[name]
        return [self.python, "-c", SLOW_READY_CHILD, name, host, str(port)]


class _PortTakenProcesses(CoreProcesses):
    """Another process grabs alpha's preallocated port before it binds."""

    blocker: socket.socket | None = None

    def spawn_child(self, name: str, *, recover: bool = False):
        if name == "alpha" and self.blocker is None:
            self.blocker = socket.create_server(self.addresses[name])
        return super().spawn_child(name, recover=recover)


@pytest.mark.tcp
class TestReadiness:
    def test_start_waits_for_ready_not_first_probe(self):
        procs = _SlowReadyProcesses(["alpha"])
        started = time.monotonic()
        procs.start()
        try:
            assert time.monotonic() - started >= 1.5
        finally:
            procs.stop()

    def test_taken_port_moves_the_child_to_a_fresh_one(self):
        procs = _PortTakenProcesses(["alpha", "beta"])
        try:
            procs.start()
            assert procs.addresses["alpha"] != procs.blocker.getsockname()
            probe = Probe(_core=procs.driver, _at="alpha")
            holder = Holder(_core=procs.driver, _at="beta")
            holder.set_ref(probe)
            holder.get_ref().note("beta reaches the moved alpha")
            assert probe.get_history() == ["beta reaches the moved alpha"]
        finally:
            procs.stop()
            procs.blocker.close()


class _StandInProcess:
    pid = 0

    def __init__(self) -> None:
        self.returncode: int | None = None

    def poll(self) -> int | None:
        return self.returncode


class _SimProcesses:
    """CoreProcesses stand-in over a simulated cluster (no OS processes)."""

    def __init__(self, cluster: Cluster, names: list[str]) -> None:
        self.names = names
        self.driver = cluster["driver"]
        self.transport = self
        self.processes = {name: _StandInProcess() for name in names}
        self.addresses = {name: ("127.0.0.1", 0) for name in names}
        self.checkpoint_dir = None

    def add_peer(self, name: str, address: tuple) -> None:
        pass

    def probe(self, name: str, timeout: float | None = None) -> bool:
        return True

    def spawn_child(self, name: str, *, recover: bool = False) -> None:
        self.processes[name] = _StandInProcess()

    def await_child(self, name: str) -> None:
        pass


class TestReadmission:
    def test_unknown_tracker_map_defers_instead_of_dangling(self, monkeypatch):
        cluster = Cluster(["driver", "alpha", "beta"])
        try:
            driver = cluster["driver"]
            probe = Probe(_core=driver, _at="alpha")
            holder = Holder(_core=driver, _at="beta")
            holder.set_ref(probe)
            procs = _SimProcesses(cluster, ["alpha", "beta"])
            supervisor = Supervisor(procs)
            real_admin = driver.admin
            outages = [TransportError("reborn alpha stopped answering")]

            def admin(target: str, operation: str, **kwargs):
                if operation == "hosted_trackers" and outages:
                    raise outages.pop()
                if operation == "add_peer":
                    return None  # the sim transport has no address book
                return real_admin(target, operation, **kwargs)

            monkeypatch.setattr(driver, "admin", admin)

            def dangling() -> list[str]:
                return [
                    f"{core.name}:{tracker.target_id}"
                    for core in (driver, cluster["beta"])
                    for tracker in core.repository.trackers()
                    if tracker.is_dangling
                ]

            procs.processes["alpha"].returncode = -9
            supervisor.check_now()
            state = supervisor.state()["children"]["alpha"]
            assert state["status"] == "readmitting"
            assert state["restarts"] == 0
            assert dangling() == []

            supervisor.check_now()  # the next pass retries with the map
            state = supervisor.state()["children"]["alpha"]
            assert state["status"] == "running"
            assert state["restarts"] == 1
            assert dangling() == []
            holder.get_ref().note("after-readmission")
            assert probe.get_history() == ["after-readmission"]
        finally:
            cluster.close()


class TestClusterCheckpointStoreWiring:
    def test_memory_backend(self):
        cluster = Cluster(["a"], checkpoint_store="memory")
        try:
            manager = cluster.enable_recovery()
            assert type(manager.store) is CheckpointStore
        finally:
            cluster.close()

    def test_file_backend_owns_a_tempdir(self):
        cluster = Cluster(["a"], checkpoint_store="file")
        try:
            manager = cluster.enable_recovery()
            assert isinstance(manager.store, FileCheckpointStore)
            owned = cluster._owned_checkpoint_dir
            assert owned is not None and os.path.isdir(owned)
        finally:
            cluster.close()
        assert not os.path.isdir(owned)

    def test_explicit_directory_left_in_place(self, tmp_path):
        target = tmp_path / "checkpoints"
        cluster = Cluster(["a"], checkpoint_store=str(target))
        try:
            manager = cluster.enable_recovery()
            assert isinstance(manager.store, FileCheckpointStore)
            assert manager.store.root == Path(target)
        finally:
            cluster.close()
        assert target.is_dir()  # close() must not delete a caller's directory

    def test_store_instance_passthrough(self):
        store = CheckpointStore()
        cluster = Cluster(["a"], checkpoint_store=store)
        try:
            assert cluster.enable_recovery().store is store
        finally:
            cluster.close()

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(["a"], checkpoint_store=123)
