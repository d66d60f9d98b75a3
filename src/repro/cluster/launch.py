"""Multi-process deployment: Cores as separate OS processes over TCP.

This is the deployment shape of the paper — one stationary Core runtime
per machine/process, complets moving between them — realised with
:class:`~repro.net.tcp.TcpTransport`.  Two halves:

- **Child**: ``python -m repro.cluster.launch --serve --name B --port N
  --peer A=127.0.0.1:M ...`` runs one Core until it is shut down
  (remotely via the ``shutdown`` admin operation, or by signal).  It
  prints ``READY <name> <port>`` on stdout once its listener accepts
  and any ``--recover`` restore is done.
- **Parent**: :class:`CoreProcesses` preallocates a port per Core,
  spawns the children with the full peer map, runs a local *driver*
  Core on its own hub (the experimenter's seat: instantiate, move,
  admin — everything goes through ordinary Core APIs over TCP), and
  tears everything down on exit.

The children inherit the parent's ``sys.path`` via ``PYTHONPATH`` so
anchor classes defined in the driving program (e.g. a test suite's
shared module) unpickle on the far side.

Cross-process recovery rides on durable checkpoints: pass
``checkpoint_dir`` and every child periodically snapshots its hosted
complets into a shared :class:`~repro.recovery.FileCheckpointStore`
there; a child started with ``--recover`` (what the
:class:`~repro.cluster.supervisor.Supervisor` does when it respawns a
dead one) restores the complets its predecessor last checkpointed —
identity preserved — before announcing READY (see docs/FAILURES.md).
"""

from __future__ import annotations

import argparse
import collections
import logging
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.core import Core
from repro.errors import ConfigurationError, CoreError, FarGoError, TransportError
from repro.net.tcp import TcpTransport
from repro.sim.clock import RealClock
from repro.sim.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.recovery.store import FileCheckpointStore

logger = logging.getLogger(__name__)

#: How often a serving child sweeps its scheduler for due timers.
_SERVE_INTERVAL = 0.02

#: stdout line a child prints once its listener is accepting.
READY_PREFIX = "READY"


def free_port(host: str = "127.0.0.1") -> int:
    """Reserve an ephemeral port number (bind-to-zero trick).

    The socket is closed again, so a race with another process is
    possible but unlikely; good enough for localhost test deployments.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _parse_peer(spec: str) -> tuple[str, tuple[str, int]]:
    try:
        name, address = spec.split("=", 1)
        host, port = address.rsplit(":", 1)
        return name, (host, int(port))
    except ValueError:
        raise ConfigurationError(
            f"peer spec {spec!r} is not of the form name=host:port"
        ) from None


def checkpoint_sweep(core: Core, store: "FileCheckpointStore") -> int:
    """Durably checkpoint every pull-group ``core`` hosts; records written.

    A child process has no cluster-wide
    :class:`~repro.recovery.CheckpointManager`, so it sweeps its whole
    repository on a timer instead.  Each record names this Core as host,
    which is what a successor process (``--recover``) keys on.
    """
    from repro.recovery.checkpoint import checkpoint_group

    done: set = set()
    for complet_id in core.repository.complet_ids():
        anchor = core.repository.get(complet_id)
        if anchor is not None and complet_id not in done:
            done.update(checkpoint_group(core, anchor, store)[0])
    return len(done)


def restore_from_store(core: Core, store: "FileCheckpointStore") -> list[str]:
    """Restore the complets ``core``'s predecessor last checkpointed.

    Runs in a freshly-started child before it announces READY: every
    record whose last known host is this Core's name is brought back
    under its *original* identity.  A record whose identity something
    contradicts is skipped, not forked under a fresh one — its record
    would be restored again at every rebirth.  Returns the restored
    ids' display forms.
    """
    from repro.recovery.checkpoint import restore_checkpoint

    restored: list[str] = []
    for record in store.hosted_at(core.name):
        try:
            new_id, _address, _kept = restore_checkpoint(
                core, record.data, keep_identity=True, fallback=False
            )
        except FarGoError:
            logger.warning(
                "restore of %s at reborn %s failed",
                record.complet_id, core.name, exc_info=True,
            )
            continue
        restored.append(str(new_id))
    return restored


def serve(
    name: str,
    port: int,
    peers: dict[str, tuple[str, int]],
    *,
    host: str = "127.0.0.1",
    checkpoint_dir: str | None = None,
    checkpoint_interval: float = 0.5,
    recover: bool = False,
) -> None:
    """Run one Core in this process until it shuts down.

    Blocks; the loop alternates between sleeping and firing due timers,
    which is how heartbeats, watches, and deferred shutdowns execute in
    a real-clock process.  With ``checkpoint_dir`` the Core durably
    checkpoints its hosted complets every ``checkpoint_interval``
    seconds; with ``recover`` it first restores whatever its predecessor
    last checkpointed there (identity preserved).  READY is printed only
    after that restore — the listener already answers probes before it,
    so READY, not a probe, is what tells a parent the state is back.
    """
    scheduler = Scheduler(RealClock())
    transport = TcpTransport(scheduler, host=host, ports={name: port})
    core = Core(name, transport, scheduler)
    for peer_name, address in peers.items():
        transport.add_peer(peer_name, address)
    timer = None
    if checkpoint_dir is not None:
        from repro.recovery.store import FileCheckpointStore

        store = FileCheckpointStore(checkpoint_dir)
        if recover:
            restored = restore_from_store(core, store)
            if restored:
                print(
                    f"RESTORED {name} {len(restored)} {' '.join(restored)}",
                    file=sys.stderr, flush=True,
                )
        timer = scheduler.call_every(checkpoint_interval, checkpoint_sweep, core, store)
    print(f"{READY_PREFIX} {name} {transport.local_address(name)[1]}", flush=True)
    try:
        while core.is_running:
            scheduler.fire_due()
            time.sleep(_SERVE_INTERVAL)
    finally:
        if timer is not None:
            # A last sweep on graceful shutdown; a SIGKILLed child relies
            # on its periodic sweeps instead.
            timer.cancel()
            try:
                checkpoint_sweep(core, store)
            except FarGoError:
                pass
        if core.is_running:
            core.shutdown()
        transport.close()


@dataclass
class CoreProcesses:
    """A localhost multi-process deployment of Cores, driven in-process.

    Usage::

        with CoreProcesses(["A", "B"]) as procs:
            driver = procs.driver          # a real Core in this process
            stub = driver.instantiate(Message, "hello", at="A")
            driver.move(stub, "B")

    Every child is a separate Python interpreter running
    :func:`serve`; the driver Core lives on its own
    :class:`~repro.net.tcp.TcpTransport` hub in the calling process, so
    all interaction is genuine TCP traffic.
    """

    names: list[str]
    driver_name: str = "driver"
    host: str = "127.0.0.1"
    python: str = sys.executable
    startup_timeout: float = 20.0
    shutdown_timeout: float = 10.0
    #: Shared durable-checkpoint directory; children checkpoint their
    #: hosted complets there and a respawned child restores from it.
    checkpoint_dir: str | None = None
    checkpoint_interval: float = 0.5

    driver: Core | None = field(default=None, init=False)
    transport: TcpTransport | None = field(default=None, init=False)
    processes: dict[str, subprocess.Popen] = field(default_factory=dict, init=False)
    addresses: dict[str, tuple[str, int]] = field(default_factory=dict, init=False)
    _outputs: dict[str, "_ChildOutput"] = field(default_factory=dict, init=False, repr=False)

    def __enter__(self) -> "CoreProcesses":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> "CoreProcesses":
        if self.driver is not None:
            raise ConfigurationError("CoreProcesses is already started")
        if self.driver_name in self.names:
            raise ConfigurationError(
                f"driver name {self.driver_name!r} collides with a child Core"
            )
        for name in self.names:
            self.addresses[name] = (self.host, free_port(self.host))
        self.addresses[self.driver_name] = (self.host, free_port(self.host))

        for name in self.names:
            self.spawn_child(name)

        scheduler = Scheduler(RealClock())
        self.transport = TcpTransport(
            scheduler, host=self.host,
            ports={self.driver_name: self.addresses[self.driver_name][1]},
        )
        self.driver = Core(self.driver_name, self.transport, scheduler)
        for name in self.names:
            self.transport.add_peer(name, self.addresses[name])
        try:
            self._await_ready()
        except Exception:
            self.stop()
            raise
        return self

    def command_for(self, name: str, *, recover: bool = False) -> list[str]:
        """The argv that runs child Core ``name`` (used for respawns too)."""
        command = [
            self.python, "-m", "repro.cluster.launch",
            "--serve", "--name", name, "--host", self.host,
            "--port", str(self.addresses[name][1]),
        ]
        for peer_name, (peer_host, peer_port) in self.addresses.items():
            if peer_name != name:
                command += ["--peer", f"{peer_name}={peer_host}:{peer_port}"]
        if self.checkpoint_dir is not None:
            command += [
                "--checkpoint-dir", self.checkpoint_dir,
                "--checkpoint-interval", str(self.checkpoint_interval),
            ]
            if recover:
                command.append("--recover")
        return command

    def spawn_child(self, name: str, *, recover: bool = False) -> subprocess.Popen:
        """(Re-)spawn child Core ``name`` on its preallocated address.

        With ``recover=True`` the child restores its predecessor's
        durable checkpoints before READY (requires ``checkpoint_dir``).
        Replaces any previous process handle for ``name``, closing its
        output pipe; the caller is responsible for the old process being
        gone.
        """
        if name not in self.addresses:
            raise ConfigurationError(f"unknown child Core {name!r}")
        self._release(name)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        process = subprocess.Popen(
            self.command_for(name, recover=recover),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            errors="replace",
            env=env,
        )
        self.processes[name] = process
        self._outputs[name] = _ChildOutput(process.stdout)
        return process

    def await_child(self, name: str, timeout: float | None = None) -> None:
        """Block until child ``name`` prints READY (after any restore)."""
        budget = timeout if timeout is not None else self.startup_timeout
        deadline = time.monotonic() + budget
        process = self.processes[name]
        output = self._outputs[name]
        while not output.ready.wait(0.05):
            if process.poll() is not None:
                tail = output.finish(self.shutdown_timeout)
                if output.ready.is_set():
                    return
                raise CoreError(
                    f"child Core {name!r} exited with status "
                    f"{process.returncode} during startup:\n{tail}"
                )
            if time.monotonic() > deadline:
                raise CoreError(
                    f"child Core {name!r} did not come up within {budget}s"
                )

    def respawn_on_fresh_port(self, name: str, *, recover: bool = False) -> None:
        """Reap child ``name`` and respawn it on a fresh port; waits for READY.

        For a child whose preallocated port was taken in the meantime
        (e.g. as another process's ephemeral port).  The caller announces
        the new address to the rest of the deployment.
        """
        self.reap(name)
        host, _port = self.addresses[name]
        self.addresses[name] = (host, free_port(host))
        self.spawn_child(name, recover=recover)
        try:
            self.await_child(name)
        except CoreError:
            self.reap(name)  # leave a corpse, not a half-started child
            raise

    def reap(self, name: str) -> None:
        """Kill child ``name`` if it is still running, and wait for it."""
        process = self.processes[name]
        if process.poll() is None:
            process.kill()
            process.wait(timeout=self.shutdown_timeout)

    def _await_ready(self) -> None:
        """Block until every child has printed READY."""
        assert self.driver is not None and self.transport is not None
        deadline = time.monotonic() + self.startup_timeout
        moved = []
        for name in self.names:
            try:
                self.await_child(name, timeout=max(0.1, deadline - time.monotonic()))
            except CoreError:
                if self.processes[name].poll() is None:
                    raise  # hung, not dead: a fresh port would not help
                self.respawn_on_fresh_port(name)
                moved.append(name)
        for name in moved:
            address = self.addresses[name]
            self.transport.add_peer(name, address)
            for other in self.names:
                if other != name:
                    self.driver.admin(other, "add_peer", peer=name, address=address)

    def _release(self, name: str) -> None:
        output = self._outputs.pop(name, None)
        if output is not None:
            output.finish(self.shutdown_timeout)

    def stop(self) -> None:
        """Shut children down gracefully, then release the driver hub."""
        driver = self.driver
        for name, process in self.processes.items():
            if process.poll() is not None:
                continue
            if driver is not None and driver.is_running:
                try:
                    # The delay lets the reply escape before the child's
                    # listener closes.
                    driver.admin(name, "shutdown", delay=0.1)
                except (CoreError, TransportError):
                    pass
        for process in self.processes.values():
            try:
                process.wait(timeout=self.shutdown_timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=self.shutdown_timeout)
        for name in list(self._outputs):
            self._release(name)
        self.processes.clear()
        if driver is not None and driver.is_running:
            driver.shutdown()
        if self.transport is not None:
            self.transport.close()
        self.driver = None
        self.transport = None


class _ChildOutput:
    """Drains a child's merged stdout/stderr (so it never blocks on a
    full pipe), spots READY, and keeps the tail for startup errors."""

    def __init__(self, stream) -> None:
        self.ready = threading.Event()
        self._tail: collections.deque[str] = collections.deque(maxlen=200)
        self._thread = threading.Thread(
            target=self._drain, args=(stream,), name="repro-child-output", daemon=True
        )
        self._thread.start()

    def _drain(self, stream) -> None:
        with stream:
            for line in stream:
                if line.startswith(READY_PREFIX + " "):
                    self.ready.set()
                else:
                    self._tail.append(line)

    def finish(self, timeout: float) -> str:
        """Wait for the (exited) child's end of output; the kept tail."""
        self._thread.join(timeout)
        return "".join(self._tail)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.launch",
        description="Run one FarGo Core as an OS process over TCP.",
    )
    parser.add_argument("--serve", action="store_true", help="run a Core until shut down")
    parser.add_argument("--name", help="Core name")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="listener port (0 = ephemeral)")
    parser.add_argument(
        "--peer", action="append", default=[], metavar="NAME=HOST:PORT",
        help="address of another Core (repeatable)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help="shared FileCheckpointStore directory for durable checkpoints",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=0.5,
        help="seconds between durable checkpoint sweeps",
    )
    parser.add_argument(
        "--recover", action="store_true",
        help="restore this Core's last durable checkpoints before READY",
    )
    args = parser.parse_args(argv)
    if not args.serve or not args.name:
        parser.error("--serve and --name are required")
    if args.recover and not args.checkpoint_dir:
        parser.error("--recover requires --checkpoint-dir")
    peers = dict(_parse_peer(spec) for spec in args.peer)
    serve(
        args.name, args.port, peers, host=args.host,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        recover=args.recover,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
