"""Span recording around the runtime's public entry points.

A traced run patches the classes listed in :func:`targets` with thin
wrappers that record a span per call: name, start, end and the index
of the enclosing span.  Only the thread that created the
:class:`Recorder` is recorded (the client thread); calls from the
supervisor, the asyncio loop or any other thread pass straight
through.  Spans stay in memory until the run reduces them.

Nothing under ``src/`` changes: the wrappers are installed on the
classes at run time and removed again by :meth:`Patches.undo`.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter_ns


class Recorder:
    """In-memory span log for one thread.

    ``spans`` holds ``(name, start_ns, end_ns, parent)`` tuples, where
    ``parent`` indexes the enclosing span (-1 for a root).  ``sizes``
    maps a span index to the byte count its wrapper observed, and
    ``tags`` to a message kind, when the wrapper reads one.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.sizes: dict[int, int] = {}
        self.tags: dict[int, str] = {}
        self._open: list[int] = []
        self._thread = threading.get_ident()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, perf_counter_ns(), 0, parent))
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        name, start, _end, parent = self.spans[index]
        self.spans[index] = (name, start, perf_counter_ns(), parent)
        self._open.pop()

    def records(self) -> bool:
        return threading.get_ident() == self._thread


def _wrap(recorder: Recorder, fn, name: str, observe=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.records():
            return fn(*args, **kwargs)
        index = recorder.open(name)
        try:
            if observe is not None:
                observe(recorder, index, args)
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return traced


class Patches:
    """Wrappers installed on classes and modules; :meth:`undo` restores them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``."""
        # Patch the class that defines the attribute, so subclasses that
        # inherit it see the wrapper and undo() restores the exact slot.
        if isinstance(owner, type):
            owner = next(klass for klass in owner.__mro__ if attr in vars(klass))
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr: str, recorder: Recorder, name: str, observe=None) -> None:
        self.replace(owner, attr, lambda fn: _wrap(recorder, fn, name, observe))

    def undo(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _request_size(recorder: Recorder, index: int, args: tuple) -> None:
    # PeerInterface.request_raw(self, dst, kind, payload, ...)
    recorder.tags[index] = args[2].value
    recorder.sizes[index] = len(args[3])


def _inject_context(recorder: Recorder, index: int, args: tuple) -> None:
    # Transport.send(self, envelope, ...): carry a trace context so the
    # receiving Core's tracer (when enabled) records a recv span whose
    # parent id names this send.
    from repro.net.messages import SPAN_ID_HEADER, TRACE_ID_HEADER

    headers = args[1].headers
    headers.setdefault(TRACE_ID_HEADER, "perfbench")
    headers.setdefault(SPAN_ID_HEADER, f"send-{index}")


def targets() -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span name, observer)`` for every layer boundary.

    The span name's prefix before ``:`` is the layer the reduction
    charges the span's self time to.
    """
    from repro.complet.marshal import (
        CloneStreamCache,
        InvocationMarshaler,
        MovementMarshaler,
        MovementUnmarshaler,
    )
    from repro.core.events import EventBus
    from repro.core.invocation import InvocationUnit
    from repro.core.movement import MovementUnit
    from repro.core.references import ReferenceHandler
    from repro.monitor.profiler import Profiler
    from repro.net import framing
    from repro.net.peer import PeerInterface
    from repro.net.rpc import RpcEndpoint
    from repro.net.serializer import Serializer
    from repro.net.simnet import SimNetwork
    from repro.net.tcp import TcpTransport
    from repro.sim.scheduler import Scheduler
    from repro.store.proxy import StoreClient

    return [
        (InvocationUnit, "invoke_stub", "invocation:invoke_stub", None),
        # _route is the one method both the caller and the serving side
        # of an invocation pass through; on the sim transport the serving
        # side runs nested inside the caller's send.
        (InvocationUnit, "_route", "invocation:route", None),
        (InvocationMarshaler, "dumps", "marshal.invoke:dumps", None),
        (InvocationMarshaler, "loads", "marshal.invoke:loads", None),
        (MovementMarshaler, "payload", "marshal.move:payload", None),
        (MovementUnmarshaler, "load", "marshal.move:load", None),
        (CloneStreamCache, "lookup", "marshal.move:clone_lookup", None),
        (Serializer, "dumps", "serializer:dumps", None),
        (Serializer, "loads", "serializer:loads", None),
        (PeerInterface, "request_raw", "rpc:request_raw", _request_size),
        (RpcEndpoint, "call", "rpc:call", None),
        (RpcEndpoint, "post", "rpc:post", None),
        (RpcEndpoint, "_handle", "rpc:serve", None),
        (TcpTransport, "send", "transport:send", _inject_context),
        (TcpTransport, "post", "transport:post", None),
        (SimNetwork, "send", "transport:send", None),
        (SimNetwork, "post", "transport:post", None),
        (framing, "encode_request", "framing:encode_request", None),
        (ReferenceHandler, "resolve_final", "references:resolve_final", None),
        (ReferenceHandler, "shorten", "references:shorten", None),
        (MovementUnit, "move", "movement:move", None),
        (StoreClient, "offload", "store:offload", None),
        (StoreClient, "resolve", "store:resolve", None),
        (EventBus, "publish", "events:publish", None),
        (Profiler, "instant", "monitor:instant", None),
        (Scheduler, "advance", "scheduler:advance", None),
    ]


def install(recorder: Recorder, extra: list[tuple[object, str, str]] = ()) -> Patches:
    """Wrap every layer boundary plus ``extra`` ``(owner, attr, name)`` triples."""
    patches = Patches()
    for owner, attr, name, observe in targets():
        patches.wrap(owner, attr, recorder, name, observe)
    for owner, attr, name in extra:
        patches.wrap(owner, attr, recorder, name)
    return patches


class TimerCount:
    """Counts scheduler timer firings from now on.

    Timers already queued are read from the scheduler's queue; timers
    created later register themselves through a wrapped
    ``Timer.__init__``.  Each timer keeps its own ``fired_count``.
    """

    def __init__(self, scheduler, patches: Patches) -> None:
        from repro.sim.scheduler import Timer

        self.timers = [entry.timer for entry in scheduler._heap]
        self.before = {id(timer): timer.fired_count for timer in self.timers}
        timers = self.timers

        def make_init(init):
            @functools.wraps(init)
            def registering_init(timer, *args, **kwargs):
                init(timer, *args, **kwargs)
                timers.append(timer)

            return registering_init

        patches.replace(Timer, "__init__", make_init)

    def fired(self) -> int:
        return sum(timer.fired_count - self.before.get(id(timer), 0) for timer in self.timers)
