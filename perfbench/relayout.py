"""relayout: the layout machinery's CPU cost, in-process on the sim transport.

Four Cores share one ``Cluster`` on the virtual clock with the memory
object store on.  Each round of the seeded schedule issues one burst
from the affinity client, driver calls (a quarter to a complet
colocated with the driver's Core c0, the rest remote), and maybe a
pull-group move, two host-driven hops followed by a call through the
now stale reference, a 256 KiB ``DataSource`` move and a ``duplicate``
move, then advances the cluster by one virtual second.  A
``methodInvokeRate`` script colocates the client with whichever server
its affinity flipped to.

No sockets are involved: movement, marshal, references, store, monitor,
script and scheduler do the work, and moves (layout writes) sit beside
calls (layout reads).
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from zlib import crc32

from perfbench import anchors
from perfbench.harness import Tally, Window, latency_metrics, registry_delta, registry_ext
from perfbench.schedule import (
    BURST_CALLS,
    GROUP_MEMBERS,
    LIBRARIES,
    MEMBER_BYTES,
    RELAYOUT_CORES,
    RelayoutSchedule,
    Round,
    relayout_schedule,
    seed_problems,
)
from perfbench.tracing import Patches, TimerCount
from perfbench.workload import Workload

HOME = "c0"
SERVER_CORES = ("c1", "c2")
#: Rounds whose network time defines layout_net_ms_per_call.
PREFIX_ROUNDS = 24
#: Rounds generated per second of window: a run consumes about 100, so
#: the runtime may get four times faster before a run exhausts them.
ROUNDS_PER_SECOND = 400
#: Simulated per-message latency, seconds.  Small, so that a round takes
#: just over one virtual second and no one-second monitor sample ever
#: holds two bursts.
LATENCY = 0.001
#: Invocations per virtual second above which the rules fire, about
#: half the burst rate: the monitor smooths rates with alpha 0.3, so
#: from rest the affinity server's rate passes this within two to four
#: one-second samples, well inside a phase.
RATE_THRESHOLD = 12

SCRIPT = f"""
$client = %1
$first = %2
$second = %3
on methodInvokeRate({RATE_THRESHOLD}) from $client to $first do
  move $client to coreOf $first
end
on methodInvokeRate({RATE_THRESHOLD}) from $client to $second do
  move $client to coreOf $second
end
"""


@dataclass
class Deployment:
    cluster: object
    local: object
    remote: object
    client: object
    head: object
    big: object
    big_crc: int
    libraries: list
    holders: list
    hopper: object
    #: Expected (revision, crc) of each library.
    digests: list
    #: Affinity phases ended, and those that ended with the client away
    #: from the phase's server.  A rate rule that follows the client back
    #: to a Core it visited before reads the rate frozen there since that
    #: visit; once that rate is above the threshold the rules bounce the
    #: client between the servers.  Counted and printed, not hidden: it
    #: is the runtime's doing, not a wrong result of the client's calls.
    phases: int = 0
    misplaced: int = 0


def round_ops(rnd: Round, number: int) -> list[tuple]:
    """One tuple per logical operation of round ``number``."""
    # The burst opens the round, so bursts are at least the one virtual
    # second of each round's advance apart.
    ops: list[tuple] = [("burst", rnd.affinity)]
    ops.extend(("call", remote, index) for remote, index in rnd.driver_calls())
    if rnd.group_to is not None:
        ops.append(("group", rnd.group_to))
    if rnd.hop_via is not None:
        ops.append(("hop", rnd.hop_via))
    if rnd.big_to is not None:
        ops.append(("big", rnd.big_to))
    if rnd.dup is not None:
        ops.append(("dup", rnd.dup, number))
    ops.append(("advance", rnd.affinity, rnd.phase_end))
    return ops


def schedule_ops(schedule: RelayoutSchedule):
    """The schedule's operations in order, rounds laid end to end.

    Made one round at a time, so that only the compact rounds stay in
    memory.
    """
    for number, rnd in enumerate(schedule.rounds):
        yield from round_ops(rnd, number)


def build(schedule: RelayoutSchedule) -> Deployment:
    from repro.cluster.cluster import Cluster
    from repro.script.interpreter import ScriptEngine

    cluster = Cluster(RELAYOUT_CORES, latency=LATENCY, store="memory")
    home = cluster[HOME]
    local = anchors.Echo(_core=home)
    remote = anchors.Echo(_core=home, _at="c1")
    first = anchors.Echo(_core=home, _at=SERVER_CORES[0])
    second = anchors.Echo(_core=home, _at=SERVER_CORES[1])
    client = anchors.Affine(first, second, _core=home)
    members = [anchors.Member(MEMBER_BYTES, k, _core=home) for k in range(GROUP_MEMBERS)]
    head = anchors.GroupHead(_core=home)
    head.attach(members)
    big = anchors.DataSource(schedule.big_blob, _core=home, _at="c1")
    libraries = [anchors.Library(data, _core=home, _at="c3") for data in schedule.library_data]
    holders = [anchors.Holder(_core=home) for _ in range(LIBRARIES)]
    hopper = anchors.Echo(_core=home, _at="c3")
    # The engine registers itself with the cluster, which keeps it alive.
    ScriptEngine(cluster, home=HOME).run(SCRIPT, (client, first, second))
    # Warm-up: every complet answers once, and one virtual second passes
    # so the monitor's samplers have started.
    payload = schedule.payloads[0]
    for echo in (local, remote, first, second, hopper):
        echo.echo(payload)
    head.where()
    big.checksum()
    for library, holder in zip(libraries, holders, strict=True):
        holder.rebind(library)
        holder.digest()
    cluster.advance(1.0)
    return Deployment(
        cluster, local, remote, client, head, big,
        crc32(schedule.big_blob), libraries, holders, hopper,
        [(0, crc32(data)) for data in schedule.library_data],
    )


def make_step(deployment: Deployment, schedule: RelayoutSchedule):
    """The step function; it takes the schedule's operations in order."""
    d = deployment
    cluster = d.cluster
    payloads = schedule.payloads
    ops = schedule_ops(schedule)

    def step(i: int, tally: Tally) -> None:
        op = next(ops, None)
        if op is None:
            raise RuntimeError("relayout schedule exhausted; raise ROUNDS_PER_SECOND")
        kind = op[0]
        if kind == "call":
            payload = payloads[op[2]]
            target = d.remote if op[1] else d.local
            tally.expect(tally.call(target.echo, payload) == payload, "echo changed its payload")
        elif kind == "burst":
            _probe_link(d, op[1], tally)
            done = tally.call(d.client.burst, op[1], BURST_CALLS, payloads[1])
            tally.expect(done == BURST_CALLS, f"burst returned {done}")
        elif kind == "group":
            tally.move(cluster.move, d.head, op[1])
            where = tally.call(d.head.where)
            tally.expect(where == [op[1]] * len(where), f"pull group split: {where}")
        elif kind == "hop":
            for destination in op[1]:
                tally.move(cluster.move_via_host, d.hopper, destination)
            payload = payloads[2]
            tally.expect(tally.call(d.hopper.echo, payload) == payload, "stale-reference echo")
        elif kind == "big":
            tally.move(cluster.move, d.big, op[1])
            tally.expect(tally.call(d.big.checksum) == d.big_crc, "DataSource checksum changed")
        elif kind == "dup":
            (index, mutate, destination), number = op[1], op[2]
            library, holder = d.libraries[index], d.holders[index]
            if mutate:
                data = schedule.writes[number % len(schedule.writes)]
                revision = tally.call(library.write, data)
                d.digests[index] = (revision, crc32(data))
            tally.call(holder.rebind, library)
            tally.move(cluster.move, holder, destination)
            digest = tally.call(holder.digest)
            tally.expect(digest == d.digests[index], f"duplicate read {digest}")
        else:
            _probe_link(d, op[1], tally)
            cluster.advance(1.0)
            if op[2]:
                d.phases += 1
                if cluster.locate(d.client) != SERVER_CORES[op[1]]:
                    d.misplaced += 1

    return step


def _probe_link(d: Deployment, affinity: int, tally: Tally) -> None:
    """A policy's instant read of the link toward the affinity server.

    Read at the start and at the end of each round, well inside the
    profiler's one-second cache lifetime, so the second read can be
    served from the cache.
    """
    home = d.cluster[HOME]
    bandwidth = home.profile_instant("bandwidth", peer=SERVER_CORES[affinity])
    tally.expect(bandwidth > 0, f"bandwidth toward {SERVER_CORES[affinity]} read {bandwidth}")


def check_end_state(deployment: Deployment) -> list[str]:
    """Whole-deployment checks after the window; returns problems found."""
    d = deployment
    problems = []
    where = d.head.where()
    if len(set(where)) != 1:
        problems.append(f"pull group not colocated with its head: {where}")
    if d.big.checksum() != d.big_crc:
        problems.append("DataSource checksum changed")
    for index, holder in enumerate(d.holders):
        if holder.digest() != d.digests[index]:
            problems.append(f"holder {index} reads a stale library copy")
    return problems


def prefix_ops(schedule: RelayoutSchedule) -> int:
    """Number of operations in the first PREFIX_ROUNDS rounds."""
    if len(schedule.rounds) < PREFIX_ROUNDS:
        raise ValueError("schedule shorter than the prefix")
    return sum(
        len(round_ops(rnd, number)) for number, rnd in enumerate(schedule.rounds[:PREFIX_ROUNDS])
    )


def layout_net_ms_per_call(seed: int) -> float:
    """Simulated network ms per executed invocation over the prefix rounds.

    Runs the seed's first PREFIX_ROUNDS rounds on a fresh deployment.
    The figure is deterministic only in a fresh process: the runtime's
    identifiers grow longer as a process creates complets, and so do
    the messages that carry them.  :func:`layout_in_child` runs it so.
    """
    schedule = relayout_schedule(seed, PREFIX_ROUNDS)
    deployment = build(schedule)
    try:
        cluster = deployment.cluster
        seconds, executed = cluster.stats.seconds, _executed(cluster)
        step, tally = make_step(deployment, schedule), Tally()
        for i in range(prefix_ops(schedule)):
            step(i, tally)
        return (cluster.stats.seconds - seconds) * 1e3 / (_executed(cluster) - executed)
    finally:
        deployment.cluster.close()


def layout_in_child(seed: int) -> float:
    """:func:`layout_net_ms_per_call` in a child Python process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(path for path in sys.path if path)
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.relayout", str(seed)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"layout run exited with {done.returncode}: {done.stderr[-500:]}")
    return float(done.stdout.split()[-1])


def _executed(cluster) -> float:
    return cluster.metrics_snapshot()["cluster"]["counters"].get("invocation.executed", 0.0)


class Relayout(Workload):
    name = "relayout"
    stubs = (
        anchors.Echo, anchors.Affine, anchors.GroupHead, anchors.Member,
        anchors.DataSource, anchors.Library, anchors.Holder,
    )

    def prepare(self, seed: int, seconds: float) -> list[str]:
        self.seed = seed
        self.schedule = relayout_schedule(seed, int(seconds * ROUNDS_PER_SECOND) + 1)
        return seed_problems(relayout_schedule, seed, self.schedule)

    def build(self) -> Deployment:
        return build(self.schedule)

    def close(self, deployment: Deployment) -> None:
        deployment.cluster.close()

    def step_fn(self, deployment: Deployment):
        return make_step(deployment, self.schedule)

    def trace_targets(self) -> list[tuple[object, str, str]]:
        # Anchor bodies run in this process: time them as exec spans.
        return super().trace_targets() + [
            (anchor, name, f"exec:{name}") for anchor, name in anchors.LEAF_METHODS
        ]

    def begin_trace(self, deployment: Deployment, patches: Patches) -> None:
        self.timer_count = TimerCount(deployment.cluster.scheduler, patches)

    def readings(self, deployment: Deployment) -> dict:
        from repro.net.serializer import STATS

        cluster = deployment.cluster
        cores = list(cluster)
        return {
            "registry": cluster.metrics_snapshot()["cluster"],
            "clone_hits": sum(core.marshal_cache.hits for core in cores),
            "clone_misses": sum(core.marshal_cache.misses for core in cores),
            "serializer": STATS.snapshot(),
            "net": (cluster.stats.bytes, cluster.stats.messages),
            "timers": self.timer_count.fired(),
        }

    def layer_ext(self, deployment, before: dict, after: dict, window: Window) -> dict:
        return sim_ext(before, after)

    def end_checks(self, deployment: Deployment) -> list[str]:
        return check_end_state(deployment)

    def report(self, deployment: Deployment, window: Window) -> tuple[dict, list[str]]:
        problems = []
        # Two fresh processes, each with its own string-hash seed, must
        # agree to the last digit.
        first, second = layout_in_child(self.seed), layout_in_child(self.seed)
        if first != second:
            problems.append(f"layout_net_ms_per_call not deterministic: {first!r} then {second!r}")
        figures = latency_metrics(window, "move")
        figures["layout_net_ms_per_call"] = (first, "virtual ms")
        figures["misplaced_phases"] = (
            deployment.misplaced, f"of {deployment.phases} affinity phases"
        )
        return figures, problems


def sim_ext(before: dict, after: dict) -> dict:
    """Per-layer inputs the spans cannot see, from two :meth:`readings`."""
    delta = registry_delta(before["registry"], after["registry"])
    ser_before, ser_after = before["serializer"], after["serializer"]
    return {
        **registry_ext(delta),
        "clone_hits": after["clone_hits"] - before["clone_hits"],
        "clone_misses": after["clone_misses"] - before["clone_misses"],
        "ser_bytes": ser_after["bytes_out"] - ser_before["bytes_out"],
        "ser_buffers": ser_after["buffers_allocated"] - ser_before["buffers_allocated"],
        "net_bytes": after["net"][0] - before["net"][0],
        "net_messages": after["net"][1] - before["net"][1],
        "timers_fired": after["timers"] - before["timers"],
    }


if __name__ == "__main__":
    print(repr(layout_net_ms_per_call(int(sys.argv[1]))))
