"""The abstract Transport protocol: the pluggable substrate below RPC.

The paper runs Core-to-Core traffic on Java RMI over real sockets; this
reproduction historically ran everything over one in-process simulated
network.  This module is the seam that makes the substrate
interchangeable: :class:`Transport` names exactly the surface the
:class:`~repro.net.rpc.RpcEndpoint` and
:class:`~repro.net.peer.PeerInterface` depend on, and everything above
(invocation, movement, recovery, chaos) goes through it.

Two implementations ship:

- :class:`~repro.net.simnet.SimTransport` — the deterministic simulated
  network (virtual clock, configurable links, partitions).  Default
  backend for tests and benchmarks.
- :class:`~repro.net.tcp.TcpTransport` — real blocking TCP sockets with
  length-prefixed framing, so Cores run as separate OS processes on one
  or many hosts (see :mod:`repro.cluster.launch`).

A transport is a *hub*: one instance can carry several local nodes
(simnet carries the whole cluster; a TCP hub usually carries the one
Core of its process plus an address book of remote peers).  Failure
injection goes through the capability-gated chaos hooks — a knob a
backend does not model raises
:class:`~repro.errors.TransportCapabilityError` instead of silently
doing nothing, and callers that want to degrade gracefully check
:meth:`Transport.supports` first.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter, deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import TransportCapabilityError, TransportError
from repro.net.messages import Envelope, MessageKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.scheduler import Scheduler

#: Handler installed by each node: consumes an envelope, returns reply bytes.
NodeHandler = Callable[[Envelope], bytes]

#: Bandwidth meaning "effectively infinite" (loopback, un-modelled links).
UNLIMITED = float("inf")


# -- capability names ---------------------------------------------------------

#: Crash/revive a node without deregistering it (``set_node_down``).
CAP_NODE_DOWN = "node_down"
#: Cut and restore individual links (``set_link(up=...)``).
CAP_LINK_STATE = "link_state"
#: Inject per-link delivery delay (``set_link(latency=...)``).
CAP_LATENCY = "latency"
#: Model finite link bandwidth (``set_link(bandwidth=...)``).
CAP_BANDWIDTH = "bandwidth"
#: Split the node set into isolated groups (``partition``).
CAP_PARTITION = "partition"
#: Deliveries charge deterministic virtual time to the scheduler.
CAP_VIRTUAL_TIME = "virtual_time"


@dataclass(slots=True)
class LinkStats:
    """Cumulative accounting for one directed link."""

    messages: int = 0
    bytes: int = 0
    seconds: float = 0.0

    def record(self, nbytes: int, seconds: float) -> None:
        self.messages += 1
        self.bytes += nbytes
        self.seconds += seconds


@dataclass(slots=True)
class NetworkStats:
    """Global accounting across one transport."""

    messages: int = 0
    bytes: int = 0
    seconds: float = 0.0
    by_kind: Counter = field(default_factory=Counter)

    def record(self, kind: MessageKind, nbytes: int, seconds: float) -> None:
        self.messages += 1
        self.bytes += nbytes
        self.seconds += seconds
        self.by_kind[kind] += 1


class TraceLog:
    """Bounded log of recent envelopes, formatted lazily.

    Appending stores a small tuple; the human-readable line (the hot-path
    cost of string formatting per message) is only built when someone
    actually iterates the log.
    """

    __slots__ = ("_entries",)

    def __init__(self, capacity: int) -> None:
        self._entries: deque[tuple[int, str, str, str, int]] = deque(maxlen=capacity)

    def append(self, envelope: Envelope) -> None:
        self._entries.append(
            (envelope.msg_id, envelope.src, envelope.dst,
             envelope.kind.value, len(envelope.payload))
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        for msg_id, src, dst, kind, nbytes in self._entries:
            yield f"[{msg_id}] {src} -> {dst} {kind} ({nbytes}B)"

    def clear(self) -> None:
        self._entries.clear()


class Transport(ABC):
    """Abstract Core-to-Core message substrate (connect/listen/send/close).

    Concrete transports provide three things:

    - **attachment**: local nodes :meth:`register` a handler (this is the
      "listen" side; a TCP hub opens a listener socket per node, simnet
      adds a dispatch entry);
    - **delivery**: :meth:`send` is synchronous request/reply returning
      the destination handler's bytes, :meth:`post` is fire-and-forget;
    - **introspection**: peer addressing (:meth:`nodes`, :meth:`is_up`,
      :meth:`can_reach`) and accounting (:attr:`stats`,
      :meth:`link_stats`, :attr:`trace`) with identical meaning on every
      backend, so envelope spans and link counters work the same over
      simnet and TCP.

    The chaos hooks (:meth:`set_node_down`, :meth:`set_link`,
    :meth:`partition`, :meth:`heal_partition`) have capability-gated
    default implementations raising
    :class:`~repro.errors.TransportCapabilityError`; backends override
    the ones they model and advertise them in :attr:`CAPABILITIES`.
    """

    #: Chaos/modelling knobs this backend implements (see ``CAP_*``).
    CAPABILITIES: frozenset[str] = frozenset()

    #: Timer scheduler whose clock stamps durations (virtual for simnet,
    #: real for TCP).  Set by concrete ``__init__``.
    scheduler: "Scheduler"
    #: Global accounting for traffic through this hub.
    stats: NetworkStats
    #: Bounded log of recent envelopes.
    trace: TraceLog

    # -- attachment ---------------------------------------------------------

    @abstractmethod
    def register(self, name: str, handler: NodeHandler) -> None:
        """Attach a local node (a Core) and start listening for it."""

    @abstractmethod
    def deregister(self, name: str) -> None:
        """Detach a node permanently (Core shutdown completed)."""

    # -- delivery -----------------------------------------------------------

    @abstractmethod
    def send(self, envelope: Envelope, timeout: float | None = None) -> bytes:
        """Deliver ``envelope`` and return the destination's reply bytes.

        ``timeout`` bounds the round trip in *real* seconds where the
        backend can enforce it (TCP); the simulated network ignores it
        because virtual-time deadlines are checked by the RPC layer.
        """

    @abstractmethod
    def post(self, envelope: Envelope) -> None:
        """Deliver ``envelope`` one-way; any reply bytes are discarded."""

    # -- addressing / reachability ------------------------------------------

    @abstractmethod
    def nodes(self) -> list[str]:
        """Sorted names of every node this hub can address."""

    @abstractmethod
    def is_up(self, name: str) -> bool:
        """Whether ``name`` is attached and not known to be down."""

    @abstractmethod
    def can_reach(self, src: str, dst: str) -> bool:
        """Would a message from ``src`` to ``dst`` be deliverable now?"""

    # -- accounting ---------------------------------------------------------

    @abstractmethod
    def link_stats(self, src: str, dst: str) -> LinkStats:
        """Cumulative accounting for the directed link ``src`` → ``dst``."""

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        """Predicted one-way transfer seconds (0.0 when not modelled)."""
        return 0.0

    def reset_stats(self) -> None:
        """Zero the global accounting (per-experiment measurement)."""
        self.stats = NetworkStats()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Shut the whole transport down (listeners, connections, threads)."""

    # -- chaos hooks (capability-gated) -------------------------------------

    def capabilities(self) -> frozenset[str]:
        return self.CAPABILITIES

    def supports(self, capability: str) -> bool:
        return capability in self.capabilities()

    def _require(self, capability: str, knob: str) -> None:
        if capability not in self.capabilities():
            raise TransportCapabilityError(
                f"{type(self).__name__} does not support {knob} "
                f"(capability {capability!r}; available: "
                f"{sorted(self.capabilities()) or 'none'})"
            )

    def set_node_down(self, name: str, down: bool = True) -> None:
        """Crash (or revive) a node without deregistering it."""
        self._require(CAP_NODE_DOWN, "crashing nodes")
        raise NotImplementedError  # pragma: no cover - capability mismatch

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
        """Reconfigure the a→b link (and b→a unless ``symmetric=False``)."""
        if bandwidth is not None:
            self._require(CAP_BANDWIDTH, "bandwidth shaping")
        if latency is not None:
            self._require(CAP_LATENCY, "latency injection")
        if up is not None:
            self._require(CAP_LINK_STATE, "cutting links")
        raise NotImplementedError  # pragma: no cover - capability mismatch

    def partition(self, *groups: set[str]) -> None:
        """Split the network: traffic flows only within each group."""
        self._require(CAP_PARTITION, "partitions")
        raise NotImplementedError  # pragma: no cover - capability mismatch

    def heal_partition(self) -> None:
        """Remove any partition; link up/down state is unaffected."""
        self._require(CAP_PARTITION, "partitions")
        raise NotImplementedError  # pragma: no cover - capability mismatch


class TransportGroup(Transport):
    """Several per-node transports presented as one cluster-wide view.

    When every Core of a cluster runs its own hub (the TCP backend:
    one listener per Core), cluster-level code still wants one object to
    query reachability, aggregate accounting, and broadcast chaos to.
    The group routes :meth:`send`/:meth:`post` through the *source*
    node's hub, answers queries from the owning hub, and fans chaos
    hooks out to every member.
    """

    def __init__(self, members: dict[str, Transport]) -> None:
        if not members:
            raise TransportError("TransportGroup needs at least one member")
        #: node name -> the hub that owns (locally hosts) it.
        self._members = dict(members)
        first = next(iter(self._members.values()))
        self.scheduler = first.scheduler
        self.trace = first.trace

    def _owner(self, name: str) -> Transport:
        try:
            return self._members[name]
        except KeyError:
            raise TransportError(f"no transport in the group owns node {name!r}") from None

    def transports(self) -> list[Transport]:
        """The distinct member hubs (insertion order, deduplicated)."""
        seen: list[Transport] = []
        for transport in self._members.values():
            if all(transport is not other for other in seen):
                seen.append(transport)
        return seen

    # -- attachment: nodes attach to their own hub, not to the group --------

    def register(self, name: str, handler: NodeHandler) -> None:
        raise TransportError("register nodes on their own hub, not on the group")

    def deregister(self, name: str) -> None:
        self._owner(name).deregister(name)

    # -- delivery: route through the source's hub ---------------------------

    def send(self, envelope: Envelope, timeout: float | None = None) -> bytes:
        return self._owner(envelope.src).send(envelope, timeout)

    def post(self, envelope: Envelope) -> None:
        self._owner(envelope.src).post(envelope)

    # -- queries ------------------------------------------------------------

    def nodes(self) -> list[str]:
        names: set[str] = set()
        for transport in self.transports():
            names.update(transport.nodes())
        return sorted(names)

    def is_up(self, name: str) -> bool:
        if name in self._members:
            return self._members[name].is_up(name)
        return any(t.is_up(name) for t in self.transports())

    def can_reach(self, src: str, dst: str) -> bool:
        if src not in self._members:
            return False
        return self._members[src].can_reach(src, dst)

    def transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        if src in self._members:
            return self._members[src].transfer_time(src, dst, nbytes)
        return 0.0

    # -- accounting: aggregate over members ---------------------------------

    @property
    def stats(self) -> NetworkStats:  # type: ignore[override]
        merged = NetworkStats()
        for transport in self.transports():
            member = transport.stats
            merged.messages += member.messages
            merged.bytes += member.bytes
            merged.seconds += member.seconds
            merged.by_kind.update(member.by_kind)
        return merged

    def link_stats(self, src: str, dst: str) -> LinkStats:
        if src in self._members:
            return self._members[src].link_stats(src, dst)
        return LinkStats()

    def reset_stats(self) -> None:
        for transport in self.transports():
            transport.reset_stats()

    # -- chaos: broadcast to every member -----------------------------------

    def capabilities(self) -> frozenset[str]:
        members = self.transports()
        caps = members[0].capabilities()
        for transport in members[1:]:
            caps = caps & transport.capabilities()
        return caps

    def set_node_down(self, name: str, down: bool = True) -> None:
        for transport in self.transports():
            transport.set_node_down(name, down)

    def set_link(self, a: str, b: str, **kwargs) -> None:
        for transport in self.transports():
            transport.set_link(a, b, **kwargs)

    def partition(self, *groups: set[str]) -> None:
        for transport in self.transports():
            transport.partition(*groups)

    def heal_partition(self) -> None:
        for transport in self.transports():
            transport.heal_partition()

    def close(self) -> None:
        for transport in self.transports():
            transport.close()
