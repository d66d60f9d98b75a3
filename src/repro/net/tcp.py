"""Real TCP transport: Cores as separate OS processes.

One :class:`TcpTransport` is a *hub* for the Cores of one process —
usually exactly one.  Each registered node gets its own listener socket;
remote peers are named in an address book (:meth:`add_peer`).  The wire
format is the length-prefixed framing of :mod:`repro.net.framing`, with
the RPC payload bytes (struct-framed INVOKE, 1-byte status-prefix
replies) passed through untouched, so application-level encoding is
byte-identical with the simulated backend.

Threading model: blocking sockets, no event loop and no I/O thread.
:meth:`TcpTransport.send` writes its frame under the connection's write
lock, then reads the socket itself until its reply arrives — the
RMI-style blocking call the RPC layer expects.  Concurrent senders on a
connection take turns in the read role (leader/follower): the reader
files other waiters' replies and wakes them, and hands the role on when
it leaves, so a lone sender wakes no other thread.  Each accepted
connection has one reader at a time from a bounded pool of daemon
dispatch threads (an idle connection holds one): a thread that reads a
request hands the read role to another pool thread, then runs the node
handler inline (nested synchronous calls included) and writes the reply.

Failure semantics mirror the simulated network's types: a refused or
lost connection raises :class:`~repro.errors.CoreUnreachableError`, a
node administratively marked down answers (or refuses) with
:class:`~repro.errors.CoreDownError`, an expired round-trip budget
raises :class:`~repro.errors.DeadlineExceededError`, and a send in
flight when its hub closes raises :class:`~repro.errors.TransportError`.
Outgoing connections reconnect per peer under a
:class:`~repro.net.retry.RetryPolicy`.  Chaos hooks support node
crash/revive, link cuts, injected latency, and partitions; bandwidth
shaping is simnet-only and raises
:class:`~repro.errors.TransportCapabilityError`.
"""

from __future__ import annotations

import errno
import itertools
import logging
import math
import queue
import select
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import (
    ConfigurationError,
    CoreDownError,
    CoreError,
    CoreUnreachableError,
    DeadlineExceededError,
    DuplicateCoreError,
    TransportError,
)
from repro.net import framing
from repro.net.messages import Envelope
from repro.net.retry import RetryPolicy
from repro.net.transport import (
    CAP_LATENCY,
    CAP_LINK_STATE,
    CAP_NODE_DOWN,
    CAP_PARTITION,
    LinkStats,
    NetworkStats,
    NodeHandler,
    TraceLog,
    Transport,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scheduler import Scheduler

logger = logging.getLogger(__name__)

#: Address of one node: (host, port).
Address = tuple[str, int]

#: Reconnect schedule applied per peer when a connection cannot be
#: established; real-time sleeps in the sending thread.
DEFAULT_RECONNECT = RetryPolicy(max_attempts=4, base_delay=0.05, multiplier=2.0, max_delay=0.5)

_READ_CHUNK = 1 << 16


@dataclass(slots=True)
class _Slot:
    """Where one waiting sender's reply lands."""

    frame: framing.Frame | None = None
    wake: threading.Event = field(default_factory=threading.Event)


class _Connection:
    """One TCP connection.  Outgoing, it multiplexes many blocked senders,
    matching replies by request id; accepted, it only reads requests (one
    read may decode several: ``backlog``) and writes replies.
    """

    def __init__(self, peer: str, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.peer = peer
        self.sock = sock
        #: Set once, by :meth:`close`; every later request raises it.
        self.error: CoreError | TransportError | None = None
        self.backlog: deque[framing.Frame] = deque()
        self._decoder = framing.FrameDecoder()
        self._poller = select.poll()
        self._poller.register(sock, select.POLLIN)
        self._write_lock = threading.Lock()
        self._lock = threading.Lock()  # guards error, _slots, _reading
        self._slots: dict[int, _Slot] = {}
        self._reading = False

    def write(self, data: bytes) -> None:
        """``sendall`` under the write lock; a failed write closes the connection."""
        try:
            with self._write_lock:
                self.sock.sendall(data)
        except OSError as exc:
            error = CoreUnreachableError(f"connection to node {self.peer!r} failed: {exc!r}")
            self.close(error)
            raise error from exc

    def read_frames(self, timeout: float | None = None) -> list[framing.Frame]:
        """Frames completed by one read (``[]`` if ``timeout`` ran out first)."""
        if timeout is not None and not self._poller.poll(math.ceil(timeout * 1000)):
            return []
        chunk = self.sock.recv(_READ_CHUNK)
        if not chunk:
            raise ConnectionResetError(f"connection to {self.peer!r} closed by the peer")
        return self._decoder.feed(chunk)

    def alive(self) -> bool:
        """False once closed, or when an unread socket shows the peer hung up."""
        try:
            return self.error is None and (
                self._reading or self.sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) != b""
            )
        except BlockingIOError:
            return True
        except OSError:
            return False

    def request(self, request_id: int, data: bytes, deadline: float) -> framing.Frame | None:
        """Send one request and wait for its reply; None once ``deadline`` passes."""
        slot = _Slot()
        with self._lock:
            self._slots[request_id] = slot  # before the reply can arrive
        try:
            self.write(data)  # raises if the connection is closed
            while True:
                remaining = deadline - time.monotonic()
                with self._lock:
                    if slot.frame is not None:
                        return slot.frame
                    if self.error is not None:
                        raise self.error
                    if remaining <= 0.0:
                        return None
                    lead, self._reading = not self._reading, True
                    slot.wake.clear()
                if not lead:
                    slot.wake.wait(remaining)
                    continue
                frames: list[framing.Frame] = []
                try:
                    frames = self.read_frames(remaining)
                except (OSError, framing.FramingError) as exc:
                    self.close(CoreUnreachableError(
                        f"connection to node {self.peer!r} failed mid-request: {exc!r}"
                    ))
                finally:
                    with self._lock:
                        self._reading = False
                        for frame in frames:
                            # A reply whose sender gave up has no slot: dropped.
                            if (target := self._slots.get(frame.request_id)) is not None:
                                target.frame = frame
                                target.wake.set()
        finally:
            with self._lock:
                del self._slots[request_id]
                if not self._reading:  # hand the read role to one waiter
                    waiting = (other for other in self._slots.values() if other.frame is None)
                    next(waiting, slot).wake.set()

    def close(self, error: CoreError | TransportError | None = None) -> None:
        """Fail every waiting and later request with ``error``; close the socket."""
        with self._lock:
            if self.error is not None:
                return
            self.error = error or TransportError("connection closed")
            for slot in self._slots.values():
                slot.wake.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked reader; close does not
        except OSError:
            pass
        self.sock.close()


class _Workers:
    """Up to ``limit`` daemon threads running queued calls (a ThreadPoolExecutor's
    threads are joined at exit; one of these may be blocked reading an idle socket)."""

    def __init__(self, limit: int) -> None:
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._idle = threading.Semaphore(0)
        self._limit = self._spare = limit
        self._lock = threading.Lock()  # guards _spare

    def submit(self, fn, *args) -> None:
        self._tasks.put((fn, args))
        if self._idle.acquire(blocking=False):
            return
        with self._lock:
            if not self._spare:
                return
            self._spare -= 1
        threading.Thread(target=self._work, name="fargo-tcp-dispatch", daemon=True).start()

    def shutdown(self) -> None:
        """Let every thread finish its current call and exit."""
        for _ in range(self._limit):
            self._tasks.put(None)

    def _work(self) -> None:
        while (task := self._tasks.get()) is not None:
            fn, args = task
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 - keep the worker alive
                logger.exception("TcpTransport dispatch task failed")
            self._idle.release()


class TcpTransport(Transport):
    """TCP hub on blocking sockets implementing the :class:`Transport` protocol."""

    CAPABILITIES = frozenset({CAP_NODE_DOWN, CAP_LINK_STATE, CAP_LATENCY, CAP_PARTITION})

    def __init__(
        self,
        scheduler: "Scheduler | None" = None,
        *,
        host: str = "127.0.0.1",
        ports: dict[str, int] | None = None,
        reconnect: RetryPolicy = DEFAULT_RECONNECT,
        request_timeout: float = 30.0,
        connect_timeout: float = 10.0,
        trace_capacity: int = 256,
        max_dispatch_threads: int = 32,
    ) -> None:
        if scheduler is None:
            from repro.sim.clock import RealClock
            from repro.sim.scheduler import Scheduler

            scheduler = Scheduler(RealClock())
        if request_timeout <= 0.0 or connect_timeout <= 0.0 or max_dispatch_threads < 1:
            raise ConfigurationError("timeouts and max_dispatch_threads must be positive")
        self.scheduler = scheduler
        self.stats = NetworkStats()
        self.trace = TraceLog(trace_capacity)
        self._host = host
        self._ports = dict(ports or {})
        self._reconnect = reconnect
        self._request_timeout = request_timeout
        self._connect_timeout = connect_timeout
        self._handlers: dict[str, NodeHandler] = {}
        self._listeners: dict[str, tuple[socket.socket, threading.Thread]] = {}
        self._peers: dict[str, Address] = {}
        self._down: set[str] = set()
        self._blocked: set[tuple[str, str]] = set()
        self._latency: dict[tuple[str, str], float] = {}
        self._partition_of: dict[str, int] = {}
        self._link_stats: dict[tuple[str, str], LinkStats] = {}
        self._stats_lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._msg_ids = itertools.count(1)
        self._lock = threading.Lock()  # guards _connections, _accepted, _closed
        self._connections: dict[str, _Connection] = {}
        self._accepted: set[_Connection] = set()
        self._closed = False
        self._workers = _Workers(max_dispatch_threads)

    # -- attachment ----------------------------------------------------------

    def register(self, name: str, handler: NodeHandler) -> None:
        """Attach a local node: starts its listener socket immediately.

        The port comes from the ``ports`` map given at construction
        (fixed ports for multi-process deployments) or is ephemeral.
        """
        if self._closed:
            raise TransportError("transport is closed")
        if name in self._handlers:
            raise DuplicateCoreError(f"node {name!r} is already registered")
        listener = socket.create_server((self._host, self._ports.get(name, 0)))
        thread = threading.Thread(target=self._accept_loop, args=(listener,),
                                  name=f"fargo-tcp-accept-{name}", daemon=True)
        self._listeners[name] = (listener, thread)
        self._handlers[name] = handler
        self._peers[name] = (self._host, listener.getsockname()[1])
        self._down.discard(name)
        thread.start()

    def deregister(self, name: str) -> None:
        """Detach a local node: close its listener, refuse its traffic."""
        listener, thread = self._listeners.pop(name, (None, None))
        if listener is not None and thread is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes accept(); close does not
            except OSError:
                pass
            listener.close()
            thread.join(self._connect_timeout)
        self._handlers.pop(name, None)
        self._down.add(name)

    def add_peer(self, name: str, address: Address) -> None:
        """Record (or update) the address of a remote node."""
        self._peers[name] = (address[0], int(address[1]))
        # A re-announced peer may have restarted: drop any stale connection.
        with self._lock:
            connection = self._connections.pop(name, None)
        if connection is not None:
            connection.close(CoreUnreachableError(f"node {name!r} was re-announced"))

    def local_address(self, name: str) -> Address:
        """The (host, port) a registered local node is listening on."""
        if name not in self._listeners:
            raise TransportError(f"node {name!r} is not served by this transport")
        return self._peers[name]

    def known_peers(self) -> dict[str, Address]:
        """Every known node address (local and remote)."""
        return dict(self._peers)

    # -- addressing / reachability -------------------------------------------

    def nodes(self) -> list[str]:
        return sorted(self._peers)

    def is_up(self, name: str) -> bool:
        return name in self._peers and name not in self._down

    def can_reach(self, src: str, dst: str) -> bool:
        return self._refusal(src, dst) is None

    def _refusal(self, src: str, dst: str) -> CoreError | None:
        """The typed error delivery from src to dst would hit, if any.

        Covers what this hub can know locally: administrative down marks,
        cut links, and partitions.  A remote crash this hub was never
        told about surfaces later, as a connection failure.
        """
        for name in (src, dst):
            if name not in self._peers:
                return CoreUnreachableError(f"node {name!r} is not on the network")
            if name in self._down:
                return CoreDownError(f"node {name!r} is down")
        if src == dst:
            return None
        if (src, dst) in self._blocked:
            return CoreUnreachableError(f"link {src!r} -> {dst!r} is down")
        if self._partition_of:
            if self._partition_of.get(src) != self._partition_of.get(dst):
                return CoreUnreachableError(
                    f"nodes {src!r} and {dst!r} are in different partitions"
                )
        return None

    # -- accounting ----------------------------------------------------------

    def link_stats(self, src: str, dst: str) -> LinkStats:
        key = (src, dst)
        stats = self._link_stats.get(key)
        if stats is None:
            stats = self._link_stats.setdefault(key, LinkStats())
        return stats

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        """Injected latency only; real wire time is measured, not modelled."""
        if src == dst:
            return 0.0
        return self._latency.get((src, dst), 0.0)

    def _charge(self, src: str, dst: str, kind, nbytes: int, seconds: float) -> None:
        with self._stats_lock:
            self.stats.record(kind, nbytes, seconds)
            if src != dst:
                self.link_stats(src, dst).record(nbytes, seconds)

    # -- delivery: sending side ----------------------------------------------

    def send(self, envelope: Envelope, timeout: float | None = None) -> bytes:
        """Request/reply over the socket; blocks the calling thread."""
        request_id, data = self._outgoing(envelope)
        # The backstop bounds hangs when the caller sets no budget.
        limit = self._request_timeout if timeout is None or timeout == float("inf") else timeout
        started = time.monotonic()
        deadline = started + limit
        connection = self._acquire(envelope.dst, deadline)
        frame = None if connection is None else connection.request(request_id, data, deadline)
        if frame is None:
            raise DeadlineExceededError(
                f"{envelope.kind.value!r} call from {envelope.src!r} to "
                f"{envelope.dst!r} exceeded its {limit:.3f}s transport deadline"
            )
        elapsed = time.monotonic() - started
        self._charge(envelope.src, envelope.dst, envelope.kind, len(envelope.payload), elapsed)
        if frame.type == framing.ERROR:
            raise self._remote_refusal(envelope.dst, frame)
        self._charge(envelope.dst, envelope.src, envelope.kind, len(frame.payload), 0.0)
        return frame.payload

    def post(self, envelope: Envelope) -> None:
        """Fire-and-forget: blocks only until the frame is on the wire."""
        _request_id, data = self._outgoing(envelope, oneway=True)
        started = time.monotonic()
        connection = self._acquire(envelope.dst, started + self._request_timeout)
        if connection is None:
            raise DeadlineExceededError(f"cannot connect to node {envelope.dst!r} to post")
        connection.write(data)
        elapsed = time.monotonic() - started
        self._charge(envelope.src, envelope.dst, envelope.kind, len(envelope.payload), elapsed)

    def _outgoing(self, envelope: Envelope, oneway: bool = False) -> tuple[int, bytes]:
        """Refuse, delay (injected latency), trace and frame one envelope."""
        if self._closed:
            raise TransportError("transport is closed")
        if (error := self._refusal(envelope.src, envelope.dst)) is not None:
            raise error
        delay = self._latency.get((envelope.src, envelope.dst), 0.0)
        if delay > 0.0:
            time.sleep(delay)
        envelope.msg_id = next(self._msg_ids)
        self.trace.append(envelope)
        request_id = next(self._request_ids)
        return request_id, framing.encode_request(envelope, request_id, oneway=oneway)

    @staticmethod
    def _remote_refusal(dst: str, frame: framing.Frame) -> BaseException:
        error = framing.decode_error(frame.payload)
        if isinstance(error, (CoreError, TransportError)):
            return error
        return TransportError(f"transport-level failure at {dst!r}: {error!r}")

    def _acquire(self, dst: str, deadline: float) -> _Connection | None:
        """Cached connection to ``dst``, reconnecting under the RetryPolicy;
        None once ``deadline`` passes, backoff sleeps included."""
        with self._lock:
            connection = self._connections.get(dst)
        if connection is not None:
            if connection.alive():
                return connection
            connection.close(CoreUnreachableError(f"connection to node {dst!r} was lost"))
        address = self._peers.get(dst)
        if address is None:
            raise CoreUnreachableError(f"node {dst!r} is not on the network")
        attempt = 1
        while (remaining := deadline - time.monotonic()) > 0.0:
            try:
                sock = socket.create_connection(address, min(self._connect_timeout, remaining))
                break
            except OSError as exc:
                if attempt >= self._reconnect.max_attempts:
                    raise CoreUnreachableError(
                        f"cannot connect to node {dst!r} at "
                        f"{address[0]}:{address[1]} after {attempt} attempts: {exc!r}"
                    ) from exc
            time.sleep(max(0.0, min(self._reconnect.backoff(attempt), deadline - time.monotonic())))
            attempt += 1
        else:
            return None
        sock.settimeout(None)
        fresh = _Connection(dst, sock)
        with self._lock:
            connection = self._connections.get(dst)
            if not self._closed and (connection is None or connection.error is not None):
                self._connections[dst] = connection = fresh
        if connection is not fresh:  # closed meanwhile, or another sender won
            fresh.close()
            if self._closed or connection is None:
                raise TransportError("transport is closed")
        return connection

    def probe(self, dst: str, timeout: float | None = None) -> bool:
        """Try to establish (or reuse) a connection to ``dst``.

        Readiness check for process bring-up: True once the peer's
        listener accepts.  Never raises on ordinary connection failure.
        """
        deadline = time.monotonic() + (timeout or self._connect_timeout)
        try:
            return self._acquire(dst, deadline) is not None
        except (CoreError, TransportError):
            return False

    # -- delivery: receiving side --------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _address = listener.accept()
            except OSError as exc:
                if exc.errno not in (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM):
                    return  # the listener was shut down
                logger.warning("accept ran out of resources; retrying in 1s", exc_info=True)
                time.sleep(1.0)
                continue
            connection = _Connection("inbound", sock)
            with self._lock:
                if not self._closed:
                    self._accepted.add(connection)
                    self._workers.submit(self._serve, connection)
                    continue
            connection.close()

    def _serve(self, connection: _Connection) -> None:
        """Read a request, pass the read role on, and answer the request."""
        backlog = connection.backlog
        try:
            while not backlog:
                backlog.extend(connection.read_frames())
        except framing.FramingError:
            logger.warning("undecodable stream from peer; dropping connection", exc_info=True)
        except OSError:
            pass
        if backlog and not self._closed:
            frame = backlog.popleft()  # before the next reader can see the backlog
            self._workers.submit(self._serve, connection)
            self._dispatch_frame(frame, connection)
            return
        with self._lock:
            self._accepted.discard(connection)
        connection.close()

    def _dispatch_frame(self, frame: framing.Frame, connection: _Connection) -> None:
        """Run one incoming frame through its node handler; write the reply."""
        oneway = frame.type == framing.ONEWAY
        error: BaseException | None = self._refusal(frame.src, frame.dst)
        if error is None and frame.dst not in self._handlers:
            error = CoreUnreachableError(f"node {frame.dst!r} is not served by this transport")
        if error is None:
            envelope = frame.to_envelope()
            envelope.msg_id = next(self._msg_ids)
            self.trace.append(envelope)
            try:
                reply = self._handlers[frame.dst](envelope)
            except BaseException as exc:  # noqa: BLE001 - crossing by value
                # Node handlers (RpcEndpoint._dispatch) serialize their own
                # failures; anything escaping is a transport-level fault.
                if oneway:
                    logger.warning("one-way %s handler at %r failed",
                                   frame.kind, frame.dst, exc_info=True)
                error = exc
            else:
                if not isinstance(reply, bytes):
                    error = TransportError(
                        f"handler at {frame.dst!r} returned "
                        f"{type(reply).__name__}, expected bytes"
                    )
        if oneway:
            return
        try:
            connection.write(
                framing.encode_reply(frame.request_id, reply) if error is None
                else framing.encode_error(frame.request_id, error)
            )
        except CoreUnreachableError:
            pass  # the sender hung up; its own read reports the loss

    # -- chaos hooks -----------------------------------------------------------

    def set_node_down(self, name: str, down: bool = True) -> None:
        """Crash (or revive) a node as seen from this hub.

        For a local node this refuses incoming requests with
        :class:`~repro.errors.CoreDownError`; for a remote one it blocks
        outgoing traffic at the sender (a cluster-level injector
        broadcasts the mark to every hub).
        """
        if down:
            self._down.add(name)
        else:
            self._down.discard(name)

    def set_link(
        self,
        a: str,
        b: str,
        *,
        bandwidth: float | None = None,
        latency: float | None = None,
        up: bool | None = None,
        symmetric: bool = True,
    ) -> None:
        if bandwidth is not None:
            self._require("bandwidth", "bandwidth shaping")
        if latency is not None and latency < 0:
            raise ConfigurationError(f"latency must be non-negative, got {latency}")
        directions = [(a, b), (b, a)] if symmetric else [(a, b)]
        for key in directions:
            if latency is not None:
                self._latency[key] = latency
            if up is True:
                self._blocked.discard(key)
            elif up is False:
                self._blocked.add(key)

    def partition(self, *groups: set[str]) -> None:
        partition_of: dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                if name in partition_of:
                    raise ConfigurationError(f"node {name!r} appears in two partitions")
                partition_of[name] = index
        self._partition_of = partition_of

    def heal_partition(self) -> None:
        self._partition_of = {}

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Stop listeners, fail in-flight sends, and close every connection."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections = [*self._connections.values(), *self._accepted]
            self._connections.clear()
            self._accepted.clear()
        for name in list(self._listeners):
            self.deregister(name)
        for connection in connections:
            connection.close(TransportError("transport is closed"))
        self._workers.shutdown()
        self._handlers.clear()

    def __repr__(self) -> str:
        local = sorted(self._listeners)
        return f"<TcpTransport host={self._host} local={local} peers={len(self._peers)}>"
