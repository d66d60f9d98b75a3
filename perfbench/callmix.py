"""call-mix: the steady-state RPC path across real processes.

``CoreProcesses(["alpha", "beta"])`` runs two child Cores over TCP on
loopback; the driver Core lives in this process.  The seeded mix is
about 70% 64 B echoes to alpha, 20% 16 KiB echoes to alpha and 10%
chained calls: a relay complet on alpha forwards the payload to an echo
complet on beta.  There are no moves, monitors or scripts, so
transport, framing, the caller's hop into the asyncio loop, and
marshal/serializer do nearly all the work.

The deployment is supervised the way a production one is: a
``Supervisor`` watches both children and every child durably
checkpoints its complets in the background.  No child is killed, so
these layers show what supervision and checkpoints cost a healthy
deployment (and ``setup_s`` includes launching the children).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

from perfbench import anchors
from perfbench.harness import Tally, Window, counter_sum
from perfbench.procs import (
    WORK,
    awake_cpus,
    begin_child_tracing,
    driver_readings,
    exec_us,
    served_us,
    tcp_ext,
)
from perfbench.schedule import call_mix_schedule, seed_problems
from perfbench.stats import median
from perfbench.workload import Workload

#: Calls generated per second of window; several times what a run consumes.
CALLS_PER_SECOND = 6_000
WARMUP_CALLS = 20
CHECKPOINT_INTERVAL = 0.5


@dataclass
class Deployment:
    procs: object
    supervisor: object
    directory: str
    echo: object
    far_echo: object
    relay: object


class CallMix(Workload):
    name = "call-mix"
    stubs = (anchors.Echo, anchors.Relay)

    def prepare(self, seed: int, seconds: float) -> list[str]:
        self.schedule = call_mix_schedule(seed, int(seconds * CALLS_PER_SECOND) + 1)
        #: Seconds from spawning the children until both answer, per set-up.
        self.launch_s: list[float] = []
        return seed_problems(call_mix_schedule, seed, self.schedule)

    def environment(self):
        return awake_cpus()

    def build(self) -> Deployment:
        from repro.cluster.launch import CoreProcesses
        from repro.cluster.supervisor import Supervisor

        os.makedirs(WORK, exist_ok=True)
        directory = os.path.join(WORK, f"call-mix-{os.getpid()}-{perf_counter_ns()}")
        procs = CoreProcesses(
            ["alpha", "beta"], checkpoint_dir=directory, checkpoint_interval=CHECKPOINT_INTERVAL
        )
        launched = perf_counter()
        supervisor = None
        try:
            procs.start()
            self.launch_s.append(perf_counter() - launched)
            supervisor = Supervisor(procs).start()
            driver = procs.driver
            echo = anchors.Echo(_core=driver, _at="alpha")
            far_echo = anchors.Echo(_core=driver, _at="beta")
            relay = anchors.Relay(far_echo, _core=driver, _at="alpha")
            small, large = self.schedule.small[0], self.schedule.large[0]
            for _ in range(WARMUP_CALLS):
                echo.echo(small)
                echo.echo(large)
                relay.relay(small)
        except BaseException:
            _stop(supervisor, procs, directory)
            raise
        return Deployment(procs, supervisor, directory, echo, far_echo, relay)

    def close(self, deployment: Deployment) -> None:
        _stop(deployment.supervisor, deployment.procs, deployment.directory)

    def step_fn(self, deployment: Deployment):
        schedule = self.schedule
        d = deployment

        def step(i: int, tally: Tally) -> None:
            if i >= len(schedule):
                raise RuntimeError("call-mix schedule exhausted; raise CALLS_PER_SECOND")
            kind = schedule.kind(i)
            payload = schedule.payload(i)
            # Looked up per call, so that a traced half sees its wrappers.
            target = d.relay.relay if kind == "chain" else d.echo.echo
            result = tally.call(target, payload)
            tally.expect(result == payload, f"{kind} echo changed its payload")

        return step

    def child_pids(self, deployment: Deployment) -> list[int]:
        return [process.pid for process in deployment.procs.processes.values()]

    def begin_trace(self, deployment: Deployment, patches) -> None:
        begin_child_tracing(deployment.procs)
        deployment.echo.set_timing(True)
        deployment.far_echo.set_timing(True)

    def readings(self, deployment: Deployment) -> dict:
        return driver_readings(deployment.procs)

    def layer_ext(self, deployment: Deployment, before: dict, after: dict, window: Window) -> dict:
        ext = tcp_ext(before, after)
        ext["remote_us"] = served_us(deployment.procs)
        ext["exec_us"] = exec_us([deployment.echo, deployment.far_echo])
        ext["spawn_to_ready_s"] = median(self.launch_s)
        return ext

    def end_checks(self, deployment: Deployment) -> list[str]:
        # Nothing kills a child here: a restart means the supervisor
        # took a healthy child for a dead one.
        counters = deployment.procs.driver.metrics.snapshot()["counters"]
        restarts = counter_sum(counters, "supervisor.restarts")
        if restarts:
            return [f"the supervisor restarted a healthy child {restarts:g} times"]
        return []


def _stop(supervisor, procs, directory: str) -> None:
    """Stop supervising first, so that the shutdown is not taken for a crash."""
    try:
        if supervisor is not None:
            supervisor.stop()
        procs.stop()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another deployment's directory is still there
