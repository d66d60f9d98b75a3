"""Integration: the same application scenarios over both transports.

Every test here is parametrized over the transport backend — the
deterministic simnet and the real TCP hubs (one per Core,
in-process, real sockets on loopback).  The application code is
byte-for-byte identical; only the ``transport=`` knob differs, which is
the point of the pluggable transport seam.
"""

from __future__ import annotations

import pytest

from repro import Carrier, Cluster
from repro.errors import CoreError, RelocationError
from tests.anchors import Failing, Holder, Probe

BACKENDS = [
    pytest.param("sim", id="sim"),
    pytest.param("tcp", id="tcp", marks=pytest.mark.tcp),
]


@pytest.fixture(params=BACKENDS)
def cluster(request):
    cluster = Cluster(["alpha", "beta", "gamma"], transport=request.param)
    yield cluster
    cluster.close()


class TestRpc:
    def test_remote_invocation(self, cluster):
        probe = Probe(_core=cluster["alpha"])
        Carrier.move(probe, "beta")
        probe.note("over-the-wire")
        assert "over-the-wire" in probe.get_history()

    def test_application_exception_propagates_by_value(self, cluster):
        failing = Failing(_core=cluster["alpha"], _at="beta")
        with pytest.raises(ValueError, match="boom"):
            failing.boom()

    def test_complet_reference_as_argument_and_result(self, cluster):
        probe = Probe(_core=cluster["alpha"], _at="beta")
        holder = Holder(_core=cluster["alpha"])
        holder.set_ref(probe)
        Carrier.move(holder, "gamma")
        returned = holder.get_ref()
        returned.note("via-returned-ref")
        assert "via-returned-ref" in probe.get_history()


class TestMovement:
    def test_move_then_invoke(self, cluster):
        probe = Probe(_core=cluster["alpha"])
        Carrier.move(probe, "beta")
        assert cluster.locate(probe) == "beta"
        Carrier.move(probe, "gamma")
        assert cluster.locate(probe) == "gamma"
        history = probe.get_history()
        assert history.count("pre_departure:beta") == 1
        assert "post_arrival:gamma" in history

    def test_move_to_unknown_core_is_refused(self, cluster):
        probe = Probe(_core=cluster["alpha"])
        with pytest.raises((RelocationError, CoreError)):
            Carrier.move(probe, "nowhere")
        assert cluster.locate(probe) == "alpha"


class TestRemoteInstantiation:
    def test_instantiate_at(self, cluster):
        probe = Probe(_core=cluster["alpha"], _at="gamma")
        assert cluster.locate(probe) == "gamma"
        assert "post_arrival:gamma" not in probe.get_history()  # born there

    def test_state_survives_round_trip(self, cluster):
        probe = Probe(_core=cluster["alpha"], _at="beta")
        probe.note("first")
        Carrier.move(probe, "alpha")
        Carrier.move(probe, "beta")
        assert "first" in probe.get_history()


class TestNaming:
    def test_locate_tracks_movement(self, cluster):
        probe = Probe(_core=cluster["alpha"])
        assert cluster.locate(probe) == "alpha"
        Carrier.move(probe, "beta")
        assert cluster.locate(probe) == "beta"

    def test_stale_tracker_chases_forwarding_pointers(self, cluster):
        """A reference held at gamma keeps working as the target roams."""
        probe = Probe(_core=cluster["alpha"])
        holder = Holder(_core=cluster["alpha"], _at="gamma")
        holder.set_ref(probe)
        Carrier.move(probe, "beta")
        holder.get_ref().note("chased")
        assert "chased" in probe.get_history()
        assert cluster.locate(probe) == "beta"


class TestAccounting:
    def test_traffic_is_metered_on_both_backends(self, cluster):
        probe = Probe(_core=cluster["alpha"], _at="beta")
        cluster.reset_stats()
        probe.note("metered")
        stats = cluster.stats
        assert stats.messages >= 2  # at least request + reply
        assert stats.bytes > 0

    def test_tracing_is_identical_surface(self, cluster):
        probe = Probe(_core=cluster["alpha"], _at="beta")
        probe.note("traced")
        trace = list(cluster.transport.trace)
        assert any("alpha" in line and "beta" in line for line in trace)
