"""TcpTransport: real sockets on loopback, within one process."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import (
    CoreDownError,
    CoreUnreachableError,
    DeadlineExceededError,
    DuplicateCoreError,
    TransportCapabilityError,
    TransportError,
)
from repro.net import Envelope, MessageKind, TcpTransport
from repro.net.retry import RetryPolicy

pytestmark = pytest.mark.tcp


def envelope(src: str, dst: str, payload: bytes = b"x") -> Envelope:
    return Envelope(src=src, dst=dst, kind=MessageKind.HEARTBEAT, payload=payload)


@pytest.fixture
def pair():
    """Two hubs, one node each, wired to each other."""
    hub_a = TcpTransport(request_timeout=10.0, connect_timeout=5.0)
    hub_b = TcpTransport(request_timeout=10.0, connect_timeout=5.0)
    hub_a.register("a", lambda env: b"a-got:" + env.payload)
    hub_b.register("b", lambda env: b"b-got:" + env.payload)
    hub_a.add_peer("b", hub_b.local_address("b"))
    hub_b.add_peer("a", hub_a.local_address("a"))
    yield hub_a, hub_b
    hub_a.close()
    hub_b.close()


class TestRequestReply:
    def test_round_trip(self, pair):
        hub_a, hub_b = pair
        assert hub_b.send(envelope("b", "a", b"ping")) == b"a-got:ping"
        assert hub_a.send(envelope("a", "b", b"pong")) == b"b-got:pong"

    def test_concurrent_senders_multiplex_one_connection(self, pair):
        _hub_a, hub_b = pair
        senders = 32
        results: list[bytes] = []
        errors: list[BaseException] = []

        def call(i: int) -> None:
            try:
                for round_ in range(5):
                    payload = b"%d.%d" % (i, round_)
                    reply = hub_b.send(envelope("b", "a", payload))
                    results.append(reply)
                    if reply != b"a-got:" + payload:
                        errors.append(AssertionError(f"{payload!r} answered with {reply!r}"))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the senders' read turns finely
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(senders)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 5 * senders
        assert len(hub_b._connections) == 1

    def test_nested_synchronous_callback(self, pair):
        """A handler that itself calls back over the network (A->B->A)."""
        hub_a, hub_b = pair
        hub_a.deregister("a")
        hub_a.register(
            "a", lambda env: b"a+" + hub_a.send(envelope("a", "b", b"nested"))
        )
        hub_b.add_peer("a", hub_a.local_address("a"))  # listener moved ports
        assert hub_b.send(envelope("b", "a")) == b"a+b-got:nested"

    def test_reentrant_chain_reuses_both_connections(self, pair):
        """b -> a -> b -> a ... six calls deep, over the same two connections."""
        hub_a, hub_b = pair

        def relay(hub, src, dst):
            def handler(env):
                depth = int(env.payload)
                if depth == 0:
                    return src.encode()
                inner = hub.send(envelope(src, dst, b"%d" % (depth - 1)))
                return src.encode() + inner
            return handler

        hub_a.deregister("a")
        hub_b.deregister("b")
        hub_a.register("a", relay(hub_a, "a", "b"))
        hub_b.register("b", relay(hub_b, "b", "a"))
        hub_a.add_peer("b", hub_b.local_address("b"))
        hub_b.add_peer("a", hub_a.local_address("a"))
        started = time.monotonic()
        assert hub_b.send(envelope("b", "a", b"5")) == b"ababab"
        assert hub_b.send(envelope("b", "a", b"5")) == b"ababab"
        assert time.monotonic() - started < 5.0
        assert list(hub_a._connections) == ["b"]
        assert list(hub_b._connections) == ["a"]

    def test_slow_request_does_not_block_the_connection(self, pair):
        hub_a, hub_b = pair
        entered = threading.Event()

        def handler(env):
            if env.payload == b"slow":
                entered.set()
                time.sleep(1.5)
            return b"done:" + env.payload

        hub_a.deregister("a")
        hub_a.register("a", handler)
        hub_b.add_peer("a", hub_a.local_address("a"))
        slow_reply: list[bytes] = []
        slow = threading.Thread(
            target=lambda: slow_reply.append(hub_b.send(envelope("b", "a", b"slow")))
        )
        slow.start()
        assert entered.wait(timeout=5)
        connection = hub_b._connections["a"]
        started = time.monotonic()
        assert hub_b.send(envelope("b", "a", b"fast")) == b"done:fast"
        assert time.monotonic() - started < 0.5
        assert hub_b._connections["a"] is connection
        slow.join(timeout=5)
        assert not slow.is_alive()
        assert slow_reply == [b"done:slow"]

    def test_late_reply_is_dropped(self, pair):
        """A reply arriving after its deadline is not taken as another's."""
        hub_a, hub_b = pair

        def handler(env):
            if env.payload == b"late":
                time.sleep(0.6)
            return b"re:" + env.payload

        hub_a.deregister("a")
        hub_a.register("a", handler)
        hub_b.add_peer("a", hub_a.local_address("a"))
        assert hub_b.send(envelope("b", "a", b"warm")) == b"re:warm"
        connection = hub_b._connections["a"]
        with pytest.raises(DeadlineExceededError):
            hub_b.send(envelope("b", "a", b"late"), timeout=0.2)
        time.sleep(0.8)  # the late reply is now waiting on the socket
        for i in range(5):
            assert hub_b.send(envelope("b", "a", b"%d" % i)) == b"re:%d" % i
        assert hub_b._connections["a"] is connection

    def test_oneway_post(self, pair):
        hub_a, hub_b = pair
        seen = threading.Event()
        hub_a.deregister("a")

        def handler(env):
            seen.set()
            return b""

        hub_a.register("a", handler)
        hub_b.add_peer("a", hub_a.local_address("a"))  # listener moved ports
        hub_b.post(envelope("b", "a", b"fire-and-forget"))
        assert seen.wait(timeout=10)

    def test_sender_side_stats(self, pair):
        _hub_a, hub_b = pair
        before = hub_b.stats.messages
        hub_b.send(envelope("b", "a", b"12345"))
        assert hub_b.stats.messages == before + 2  # request + reply
        assert hub_b.link_stats("b", "a").bytes >= 5

    def test_trace_records_envelopes(self, pair):
        _hub_a, hub_b = pair
        hub_b.send(envelope("b", "a"))
        assert any("b -> a" in line for line in hub_b.trace)


class TestErrors:
    def test_handler_exception_travels_back_typed(self, pair):
        hub_a, hub_b = pair
        hub_a.deregister("a")

        def failing(env):
            raise CoreDownError("synthetic failure inside handler")

        hub_a.register("a", failing)
        hub_b.add_peer("a", hub_a.local_address("a"))  # listener moved ports
        with pytest.raises(CoreDownError, match="synthetic"):
            hub_b.send(envelope("b", "a"))

    def test_unknown_destination(self, pair):
        _hub_a, hub_b = pair
        with pytest.raises(CoreUnreachableError):
            hub_b.send(envelope("b", "nowhere"))

    def test_connection_refused_maps_to_unreachable(self):
        hub = TcpTransport(
            reconnect=RetryPolicy(max_attempts=2, base_delay=0.01),
            connect_timeout=2.0,
        )
        try:
            hub.register("x", lambda env: b"")
            port = hub.local_address("x")[1]
            hub.add_peer("ghost", ("127.0.0.1", (port + 1) % 65535 or 1025))
            with pytest.raises(CoreUnreachableError):
                hub.send(envelope("x", "ghost"))
        finally:
            hub.close()

    def test_timeout_raises_deadline_exceeded(self, pair):
        import time

        hub_a, hub_b = pair
        hub_a.deregister("a")
        hub_a.register("a", lambda env: time.sleep(3.0) or b"late")
        with pytest.raises(DeadlineExceededError):
            hub_b.send(envelope("b", "a"), timeout=0.3)

    def test_duplicate_registration(self, pair):
        hub_a, _hub_b = pair
        with pytest.raises(DuplicateCoreError):
            hub_a.register("a", lambda env: b"")

    def test_deregistered_node_refuses_traffic(self, pair):
        hub_a, hub_b = pair
        hub_a.deregister("a")
        hub_a.register("a2", lambda env: b"")  # keep the hub alive
        # b's hub does not know "a" was deregistered; the remote hub
        # answers with the typed refusal.
        with pytest.raises((CoreDownError, CoreUnreachableError)):
            hub_b.send(envelope("b", "a"))


class TestReconnect:
    def test_reconnects_after_peer_restart(self):
        hub_a = TcpTransport()
        hub_b = TcpTransport()
        try:
            hub_a.register("a", lambda env: b"v1:" + env.payload)
            hub_b.register("b", lambda env: b"")
            hub_b.add_peer("a", hub_a.local_address("a"))
            hub_a.add_peer("b", hub_b.local_address("b"))
            assert hub_b.send(envelope("b", "a", b"one")) == b"v1:one"
            port = hub_a.local_address("a")[1]
            hub_a.close()

            # Restart "a" on the same port in a fresh hub.
            hub_a2 = TcpTransport(ports={"a": port})
            try:
                hub_a2.register("a", lambda env: b"v2:" + env.payload)
                hub_a2.add_peer("b", hub_b.local_address("b"))
                # The cached connection is stale; the transport-level
                # invalidation plus an RPC-style retry recovers.
                policy = RetryPolicy(max_attempts=4, base_delay=0.05)

                def attempt():
                    return hub_b.send(envelope("b", "a", b"two"))

                result = policy.run(hub_b.scheduler, attempt)
                assert result == b"v2:two"
            finally:
                hub_a2.close()
        finally:
            hub_b.close()


class TestChaos:
    def test_node_down_refuses_at_sender(self, pair):
        _hub_a, hub_b = pair
        hub_b.set_node_down("a")
        assert not hub_b.is_up("a")
        assert not hub_b.can_reach("b", "a")
        with pytest.raises(CoreDownError):
            hub_b.send(envelope("b", "a"))
        hub_b.set_node_down("a", down=False)
        assert hub_b.send(envelope("b", "a", b"back")) == b"a-got:back"

    def test_local_node_down_refuses_at_receiver(self, pair):
        hub_a, hub_b = pair
        hub_a.set_node_down("a")  # only a's own hub knows
        with pytest.raises(CoreDownError):
            hub_b.send(envelope("b", "a"))
        hub_a.set_node_down("a", down=False)

    def test_link_cut(self, pair):
        _hub_a, hub_b = pair
        hub_b.set_link("b", "a", up=False)
        with pytest.raises(CoreUnreachableError):
            hub_b.send(envelope("b", "a"))
        hub_b.set_link("b", "a", up=True)
        assert hub_b.send(envelope("b", "a", b"healed")) == b"a-got:healed"

    def test_partition(self, pair):
        _hub_a, hub_b = pair
        hub_b.partition({"a"}, {"b"})
        assert not hub_b.can_reach("b", "a")
        with pytest.raises(CoreUnreachableError):
            hub_b.send(envelope("b", "a"))
        hub_b.heal_partition()
        assert hub_b.can_reach("b", "a")

    def test_injected_latency_is_reported(self, pair):
        _hub_a, hub_b = pair
        hub_b.set_link("b", "a", latency=0.01)
        assert hub_b.transfer_time("b", "a", 100) == pytest.approx(0.01)
        assert hub_b.send(envelope("b", "a", b"slow")) == b"a-got:slow"

    def test_bandwidth_knob_is_simnet_only(self, pair):
        _hub_a, hub_b = pair
        with pytest.raises(TransportCapabilityError):
            hub_b.set_link("b", "a", bandwidth=1000.0)


class TestLifecycle:
    def test_close_is_idempotent(self):
        hub = TcpTransport()
        hub.register("x", lambda env: b"")
        hub.close()
        hub.close()

    def test_close_fails_an_inflight_send_typed(self, pair):
        hub_a, hub_b = pair
        entered = threading.Event()
        release = threading.Event()

        def handler(env):
            entered.set()
            release.wait(10)
            return b"too late"

        hub_a.deregister("a")
        hub_a.register("a", handler)
        hub_b.add_peer("a", hub_a.local_address("a"))
        outcome: list[BaseException | bytes] = []

        def call() -> None:
            try:
                outcome.append(hub_b.send(envelope("b", "a")))
            except BaseException as exc:  # noqa: BLE001 - the type is the point
                outcome.append(exc)

        sender = threading.Thread(target=call)
        sender.start()
        try:
            assert entered.wait(timeout=5)
            hub_b.close()
            sender.join(timeout=1.0)
            assert not sender.is_alive()
        finally:
            release.set()
            sender.join(timeout=10)
        assert len(outcome) == 1
        assert isinstance(outcome[0], (TransportError, CoreUnreachableError))

    def test_unclosed_hubs_do_not_block_interpreter_exit(self):
        script = (
            "from repro.net import Envelope, MessageKind, TcpTransport\n"
            "a, b = TcpTransport(), TcpTransport()\n"
            "a.register('a', lambda env: b'ok')\n"
            "b.register('b', lambda env: b'ok')\n"
            "a.add_peer('b', b.local_address('b'))\n"
            "b.add_peer('a', a.local_address('a'))\n"
            "env = Envelope(src='b', dst='a', kind=MessageKind.HEARTBEAT, payload=b'x')\n"
            "assert b.send(env) == b'ok'\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], timeout=30, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
        )
        assert done.returncode == 0, done.stderr

    def test_send_after_close_fails(self):
        hub = TcpTransport()
        hub.register("x", lambda env: b"")
        hub.close()
        with pytest.raises(TransportError):
            hub.send(envelope("x", "x"))

    def test_listener_port_released_after_close(self):
        import socket

        hub = TcpTransport()
        hub.register("x", lambda env: b"")
        port = hub.local_address("x")[1]
        hub.close()
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", port))  # must not raise

    def test_probe(self, pair):
        _hub_a, hub_b = pair
        assert hub_b.probe("a", timeout=5.0)
        assert not hub_b.probe("nonexistent", timeout=1.0)
