"""The Core: FarGo's stationary per-node runtime (Figure 1).

A Core hosts complets and provides the Core API of the paper: complet
instantiation (local and remote), movement, reference reflection
(``get_meta_ref``), naming, profiling, monitor events, and
administration.  Cores never move; complets move between them, and the
process boundaries of the application change as they do.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING

from repro.complet.anchor import Anchor, qualified_class_ref, resolve_class_ref
from repro.complet.marshal import CloneStreamCache
from repro.complet.continuation import Continuation
from repro.complet.metaref import MetaRef
from repro.complet.relocators import relocator_from_name
from repro.complet.stub import Stub, stub_class_for, stub_core, stub_meta, stub_target_id, stub_tracker
from repro.core.events import CALL_RETRIED, CORE_SHUTDOWN, ONEWAY_FAILED, EventBus
from repro.core.invocation import InvocationUnit
from repro.core.locator import LocationRegistry
from repro.core.movement import MovementUnit
from repro.core.naming import NamingService
from repro.core.references import ReferenceHandler
from repro.core.repository import Repository
from repro.errors import CompletError, CoreDownError, NotAStubError
from repro.metrics.registry import MetricsRegistry
from repro.monitor.events import MonitorEventEngine
from repro.monitor.profiler import Profiler
from repro.net.messages import Envelope, MessageKind
from repro.net.peer import PeerInterface
from repro.net.retry import RetryPolicy
from repro.net.transport import Transport
from repro.sim.scheduler import Scheduler
from repro.store.proxy import DEFAULT_OFFLOAD_THRESHOLD, StoreClient
from repro.store.store import ObjectStore
from repro.trace.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitizer import LayoutSanitizer
    from repro.monitor.profiler import ProfilingSession
    from repro.util.ids import CompletId


def _warn_profile_shim(name: str) -> None:
    import warnings

    warnings.warn(
        f"Core.{name}() is deprecated; use the session handle from "
        "Core.profile() instead",
        DeprecationWarning,
        stacklevel=3,
    )


class Core:
    """One stationary runtime node."""

    def __init__(
        self,
        name: str,
        transport: Transport,
        scheduler: Scheduler,
        *,
        eager_pointer_updates: bool = True,
        use_location_registry: bool = False,
        profile_cache_ttl: float = 1.0,
        retry_policy: RetryPolicy | None = None,
        rpc_timeout: float | None = None,
        tracing: bool = False,
        store: "ObjectStore | None" = None,
        store_threshold: int | None = None,
    ) -> None:
        self.name = name
        self.scheduler = scheduler
        #: Eagerly maintain distributed remote-pointer sets (tracker GC).
        self.eager_pointer_updates = eager_pointer_updates
        #: Resolve references through the home-based location registry
        #: (the paper's future-work naming scheme) before chain walking.
        self.use_location_registry = use_location_registry
        #: Default retry policy for this Core's outgoing cross-Core calls.
        self.retry_policy = retry_policy
        self.is_running = True

        self.peer = PeerInterface(name, transport)
        if retry_policy is not None:
            self.peer.configure_retry(retry_policy)
        if rpc_timeout is not None:
            self.peer.configure_timeout(rpc_timeout)
        #: Observability: span recorder + unified metrics, shared with the
        #: RPC endpoint so every cross-Core envelope carries trace context.
        self.tracer = Tracer(name, scheduler.clock, enabled=tracing)
        self.metrics = MetricsRegistry(name)
        self.peer.endpoint.tracer = self.tracer
        self.peer.endpoint.metrics = self.metrics
        #: Large-payload offloading: when a store is attached, the marshal
        #: layer ships payloads above the threshold as store proxies.
        self.store_client: StoreClient | None = None
        if store is not None:
            self.store_client = StoreClient(
                store,
                threshold=(
                    store_threshold
                    if store_threshold is not None
                    else DEFAULT_OFFLOAD_THRESHOLD
                ),
                metrics=self.metrics,
                tracer=self.tracer,
            )
        self.repository = Repository(self)
        #: Memoized clone streams keyed by (complet id, stamp mode); the
        #: marshal layer consults and fills this (see CloneStreamCache).
        self.marshal_cache = CloneStreamCache()
        self.events = EventBus(self)
        self.profiler = Profiler(self, cache_ttl=profile_cache_ttl)
        self.monitor = MonitorEventEngine(self)
        self.references = ReferenceHandler(self)
        self.locator = LocationRegistry(self)
        self.invocation = InvocationUnit(self)
        self.movement = MovementUnit(self)
        self.naming = NamingService(self)
        #: Heartbeat-based failure detector, attached by the recovery
        #: layer (:meth:`repro.cluster.Cluster.enable_recovery`).  Every
        #: Core answers heartbeats whether or not it runs a detector.
        self.detector: object | None = None
        #: Shared dynamic race detector, attached by the cluster when
        #: built with ``sanitize=True`` (:mod:`repro.analysis.sanitizer`).
        self.sanitizer: "LayoutSanitizer | None" = None
        #: Process supervisor, attached by
        #: :class:`repro.cluster.supervisor.Supervisor` to the Core it
        #: drives re-admission from (the multi-process driver).
        self.supervisor: object | None = None

        self.peer.register(MessageKind.HEARTBEAT, self._handle_heartbeat)
        self.peer.register_raw(MessageKind.INSTANTIATE, self._handle_instantiate)
        self.peer.register_raw(MessageKind.PROFILE_PROBE, self._handle_probe)
        self.peer.register(MessageKind.PROFILE_QUERY, self._handle_profile_query)
        self.peer.register(MessageKind.ADMIN_QUERY, self._handle_admin)
        self.peer.endpoint.on_oneway_error = self._on_oneway_error
        self.peer.endpoint.on_retry = self._on_call_retried

    # -- fault-tolerance events ------------------------------------------------------

    def _on_oneway_error(self, envelope: Envelope, error: BaseException) -> None:
        """A one-way message failed in one of this Core's handlers."""
        if envelope.kind is MessageKind.EVENT_NOTIFY:
            # Do not publish an event about a failed event delivery:
            # two Cores with broken listeners would ping-pong forever.
            return
        self.events.publish(
            ONEWAY_FAILED,
            kind=envelope.kind.value,
            source=envelope.src,
            error=repr(error),
        )

    def _on_call_retried(
        self,
        dst: str,
        kind: MessageKind,
        attempt: int,
        delay: float,
        error: BaseException,
    ) -> None:
        """An outgoing call failed and is about to be retried."""
        self.events.publish(
            CALL_RETRIED,
            destination=dst,
            kind=kind.value,
            attempt=attempt,
            delay=delay,
            error=repr(error),
        )

    # -- Core API: instantiation ---------------------------------------------------------

    def instantiate(self, anchor_cls: type[Anchor], *args, at: str | None = None, **kwargs) -> Stub:
        """Create a complet of ``anchor_cls`` and return a stub for it.

        ``at`` asks another Core to host the new complet (remote
        instantiation); constructor arguments then travel by value.
        """
        require_running(self)
        stub_cls = stub_class_for(anchor_cls)
        return stub_cls(*args, _core=self, _at=at, **kwargs)

    def instantiate_remote(
        self, anchor_cls: type[Anchor], at: str, args: tuple, kwargs: dict
    ) -> object:
        """Ask Core ``at`` to construct a complet; returns its wire token.

        Used by the stub constructor; applications normally call
        :meth:`instantiate` with ``at=``.
        """
        payload = self.invocation.marshaler.dumps(
            (qualified_class_ref(anchor_cls), args, kwargs)
        )
        reply = self.peer.request_raw(at, MessageKind.INSTANTIATE, payload)
        return pickle.loads(reply)

    def _handle_instantiate(self, src: str, payload: bytes) -> bytes:
        anchor_ref, args, kwargs = self.invocation.marshaler.loads(payload)  # type: ignore[misc]
        anchor_cls = resolve_class_ref(anchor_ref)
        if not (isinstance(anchor_cls, type) and issubclass(anchor_cls, Anchor)):
            raise CompletError(f"{anchor_ref!r} is not an anchor class")
        tracker = self.repository.install_new(anchor_cls, args, kwargs)
        from repro.complet.relocators import Link
        from repro.complet.tokens import RefToken

        token = RefToken(tracker.target_id, tracker.anchor_ref, tracker.address, Link())
        return pickle.dumps(token)

    # -- Core API: reflection --------------------------------------------------------------

    @staticmethod
    def get_meta_ref(stub: Stub) -> MetaRef:
        """The meta reference reifying ``stub``'s complet reference (§3.2)."""
        if not isinstance(stub, Stub):
            raise NotAStubError(
                f"get_meta_ref expects a complet reference, got {type(stub).__name__}"
            )
        return stub_meta(stub)

    def retype_reference(self, stub: Stub, relocator_name: str) -> None:
        """Change a reference's relocation type by name (shell/scripts)."""
        self.get_meta_ref(stub).set_relocator(relocator_from_name(relocator_name))

    @staticmethod
    def new_reference(stub: Stub) -> Stub:
        """A fresh, independent reference to the same complet.

        The new stub shares the Core-local tracker (one per target per
        Core) but has its own meta reference — default ``link`` type,
        zeroed statistics — so it can be retyped without affecting the
        original.  This is how a program holds two differently-typed
        references to one complet (e.g. a ``link`` master path and a
        ``duplicate`` replication path).
        """
        from repro.complet.relocators import Link

        if not isinstance(stub, Stub):
            raise NotAStubError(
                f"new_reference expects a complet reference, got {type(stub).__name__}"
            )
        return type(stub)._fargo_from_tracker(
            stub_core(stub), stub_tracker(stub), Link()
        )

    # -- Core API: movement -------------------------------------------------------------------

    def move(
        self,
        target: Stub | Anchor | "CompletId",
        destination: str,
        continuation: str | None = None,
        args: tuple = (),
        kwargs: dict | None = None,
    ) -> None:
        """Move a complet (§3.3), optionally with a continuation method."""
        require_running(self)
        cont = None
        if continuation is not None:
            cont = Continuation(continuation, tuple(args), dict(kwargs or {}))
        self.movement.move(target, destination, cont)

    # -- Core API: naming convenience -------------------------------------------------------------

    def bind(self, name: str, stub: Stub, *, replace: bool = False) -> None:
        self.naming.bind(name, stub, replace=replace)

    def lookup(self, name: str) -> Stub:
        return self.naming.lookup(name)

    # -- Core API: profiling convenience ---------------------------------------------------------

    def profile_instant(self, service: str, **params) -> float:
        return self.profiler.instant(service, **params)

    def profile(self, service: str, interval: float = 1.0, **params) -> "ProfilingSession":
        """Open a continuous-monitoring session (preferred API).

        Use as a context manager — ``with core.profile("coreCPU") as s:
        ... s.value`` — or call ``s.stop()`` explicitly.  Supersedes the
        :meth:`profile_start`/:meth:`profile_stop` pair.
        """
        return self.profiler.session(service, interval=interval, **params)

    def profile_start(self, service: str, interval: float = 1.0, **params) -> tuple:
        """Deprecated: use :meth:`profile` (returns a session handle)."""
        _warn_profile_shim("profile_start")
        return self.profiler.start(service, interval=interval, **params)

    def profile_get(self, service: str, **params) -> float:
        return self.profiler.get(service, **params)

    def profile_stop(self, service: str, **params) -> None:
        """Deprecated: use the session handle from :meth:`profile`."""
        _warn_profile_shim("profile_stop")
        self.profiler.stop(service, **params)

    # -- lifecycle -----------------------------------------------------------------------------------

    def shutdown(self) -> None:
        """Shut this Core down.

        Fires ``coreShutdown`` first — synchronously, so listeners (e.g.
        the reliability rule of §4.3) can still move complets off this
        Core — then cancels all profiling and leaves the network.
        """
        if not self.is_running:
            return
        self.events.publish(CORE_SHUTDOWN, core=self.name)
        if self.detector is not None:
            self.detector.stop()  # type: ignore[attr-defined]
        self.monitor.shutdown()
        self.profiler.shutdown()
        self.is_running = False
        self.peer.close()

    # -- administration (shell, viewer, scripts) ----------------------------------------------------

    def snapshot(self) -> dict:
        """Local layout snapshot: complets, names, trackers."""
        complets = []
        for complet_id in self.repository.complet_ids():
            complets.append(
                {
                    "id": str(complet_id),
                    "type": complet_id.type_name,
                    "short": complet_id.short(),
                }
            )
        return {
            "core": self.name,
            "complets": complets,
            "names": self.naming.names(),
            "tracker_count": self.repository.tracker_count(),
            "active_profiles": self.profiler.active_profiles(),
        }

    def hosted_trackers(self) -> dict:
        """CompletId -> local TrackerAddress for every complet hosted here."""
        hosted = {}
        for complet_id in self.repository.complet_ids():
            tracker = self.repository.existing_tracker(complet_id)
            if tracker is not None and tracker.is_local:
                hosted[complet_id] = tracker.address
        return hosted

    def store_view(self) -> dict:
        """This Core's object-store view: client counters + store entries."""
        if self.store_client is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "client": self.store_client.stats_snapshot(),
            "store": self.store_client.store.snapshot(),
        }

    def admin(self, core_name: str, operation: str, **kwargs) -> object:
        """Run an administration operation on this or a remote Core."""
        if core_name == self.name:
            return self._admin_op(operation, kwargs)
        return self.peer.request(core_name, MessageKind.ADMIN_QUERY, (operation, kwargs))

    def _handle_admin(self, src: str, body: object) -> object:
        operation, kwargs = body  # type: ignore[misc]
        return self._admin_op(operation, kwargs)

    def _handle_profile_query(self, src: str, body: object) -> float:
        service, params = body  # type: ignore[misc]
        return self.profiler.instant(service, **params)

    def _handle_probe(self, src: str, payload: bytes) -> bytes:
        # Echo probe: first 8 bytes carry the size already received; the
        # reply is intentionally tiny so the request leg dominates.
        return b"ok"

    def _handle_heartbeat(self, src: str, body: object) -> str:
        """Answer a failure-detector ping; reachability is the answer."""
        return self.name

    def _admin_op(self, operation: str, kwargs: dict) -> object:
        if operation == "snapshot":
            return self.snapshot()
        if operation == "complets":
            return [str(cid) for cid in self.repository.complet_ids()]
        if operation == "move":
            anchor = self.repository.find_by_str(kwargs["complet"])
            if anchor is None:
                raise CompletError(
                    f"Core {self.name!r} does not host complet {kwargs['complet']!r}"
                )
            self.move(anchor, kwargs["destination"])
            return None
        if operation == "watch":
            return self.monitor.watch(
                kwargs["service"],
                kwargs["op"],
                kwargs["threshold"],
                interval=kwargs.get("interval", 1.0),
                event_name=kwargs.get("event_name"),
                repeat=kwargs.get("repeat", False),
                **kwargs.get("params", {}),
            )
        if operation == "unwatch":
            self.monitor.unwatch(kwargs["watch_id"])
            return None
        if operation == "references":
            return self._admin_references(kwargs["complet"])
        if operation == "retype":
            return self._admin_retype(
                kwargs["complet"], kwargs["target"], kwargs["type"]
            )
        if operation == "collect_trackers":
            return self.repository.collect_trackers()
        if operation == "services":
            return self.profiler.services()
        if operation == "profile_instant":
            return self.profiler.instant(kwargs["service"], **kwargs.get("params", {}))
        if operation == "profile_start":
            return self.profiler.start(
                kwargs["service"],
                interval=kwargs.get("interval", 1.0),
                **kwargs.get("params", {}),
            )
        if operation == "profile_history":
            return self.profiler.history(kwargs["service"], **kwargs.get("params", {}))
        if operation == "store":
            return self.store_view()
        if operation == "metrics":
            return self.metrics.snapshot()
        if operation == "spans":
            return [span.to_dict() for span in self.tracer.spans()]
        if operation == "set_tracing":
            self.tracer.enabled = bool(kwargs["enabled"])
            return None
        if operation == "clear_spans":
            self.tracer.clear()
            return None
        if operation == "checkpoint":
            return self._admin_checkpoint(kwargs["complet"])
        if operation == "restore_complet":
            from repro.recovery.checkpoint import restore_checkpoint

            # keep_identity is strict here: a live copy is a typed error.
            new_id, _address, _kept = restore_checkpoint(
                self, kwargs["data"], keep_identity=kwargs.get("keep_identity", False),
                fallback=False,
            )
            return str(new_id)
        if operation == "detector":
            if self.detector is None:
                return {}
            return self.detector.state()  # type: ignore[attr-defined]
        if operation == "supervisor":
            if self.supervisor is None:
                return {}
            return self.supervisor.state()  # type: ignore[attr-defined]
        if operation == "hosted_trackers":
            return self.hosted_trackers()
        if operation == "add_peer":
            # Address-book update: a peer respawned (possibly on a fresh
            # port); stale pooled connections to it are invalidated.
            add_peer = getattr(self.peer.transport, "add_peer", None)
            if add_peer is None:
                raise CompletError(
                    f"transport of Core {self.name!r} has no address book"
                )
            add_peer(kwargs["peer"], tuple(kwargs["address"]))
            return None
        if operation == "repair_core":
            from repro.recovery.recovery import repair_core

            return repair_core(self, kwargs["failed"], kwargs["relocated"])
        if operation == "shutdown":
            # Remote shutdown (used by the multi-process launcher).  A
            # small delay lets this reply reach the requester before the
            # Core leaves the network and closes its listener.
            delay = float(kwargs.get("delay", 0.0))
            if delay > 0.0:
                self.scheduler.call_after(delay, self.shutdown)
            else:
                self.shutdown()
            return None
        raise CompletError(f"unknown admin operation {operation!r}")

    def _admin_checkpoint(self, complet_id_str: str) -> bytes:
        """Snapshot a hosted complet to portable bytes (shell/recovery)."""
        from repro.core import persistence

        anchor = self.repository.find_by_str(complet_id_str)
        if anchor is None:
            raise CompletError(
                f"Core {self.name!r} does not host complet {complet_id_str!r}"
            )
        return persistence.snapshot(self, anchor).to_bytes()

    def _outgoing_stubs(self, complet_id_str: str) -> list[Stub]:
        from repro.complet.closure import compute_closure

        anchor = self.repository.find_by_str(complet_id_str)
        if anchor is None:
            raise CompletError(
                f"Core {self.name!r} does not host complet {complet_id_str!r}"
            )
        return compute_closure(anchor).outgoing

    def _admin_references(self, complet_id_str: str) -> list[dict]:
        """Describe a hosted complet's outgoing references (viewer/shell)."""
        rows = []
        for stub in self._outgoing_stubs(complet_id_str):
            meta = stub_meta(stub)
            rows.append(
                {
                    "target": str(stub_target_id(stub)),
                    "type": meta.type_name,
                    "invocations": meta.invocation_count,
                    "bytes": meta.bytes_transferred,
                    "local": meta.is_local,
                }
            )
        return rows

    def _admin_retype(self, complet_id_str: str, target: str, type_name: str) -> bool:
        """Retype a hosted complet's outgoing reference by target id."""
        for stub in self._outgoing_stubs(complet_id_str):
            if str(stub_target_id(stub)) == target:
                stub_meta(stub).set_relocator(relocator_from_name(type_name))
                return True
        raise CompletError(
            f"complet {complet_id_str!r} has no reference to {target!r}"
        )

    def __repr__(self) -> str:
        state = "up" if self.is_running else "down"
        return f"<Core {self.name} ({state}, {len(self.repository)} complets)>"


def require_running(core: Core) -> None:
    """Guard helper for components that must not act on a stopped Core."""
    if not core.is_running:
        raise CoreDownError(f"Core {core.name!r} has been shut down")
