"""Readings shared by the workloads that run Cores as OS processes.

Inside the driver process the span wrappers see everything; inside a
child they see nothing.  The traced half therefore also reads, through
the public admin operations:

- every Core's metrics registry (``metrics``), before and after;
- the children's own ``recv:invoke`` spans (``set_tracing`` then
  ``spans``): the driver's send wrapper carries a trace context whose
  span id starts with ``send-``, so a child records how long it spent
  serving each request the driver sent;

and, through the benchmark's anchors, how long their method bodies ran.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys

from perfbench.harness import registry_delta, registry_ext

#: Root of the checkout; the benchmark writes only below it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space for durable checkpoints, removed after each set-up.
WORK = os.path.join(ROOT, ".perfbench_work")


#: Body of a process that keeps one CPU out of idle.  SCHED_IDLE runs it
#: only when nothing else wants the CPU; it exits once orphaned.
_SPIN = """
import os
parent = os.getppid()
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


@contextlib.contextmanager
def awake_cpus():
    """Keep every CPU this process may use busy at the lowest priority.

    A call between processes wakes a thread in another process several
    times.  On a virtual machine, waking a thread on an idle virtual CPU
    goes through the hypervisor, and what that costs swings with the
    load other guests put on the host: run to run, call-mix throughput
    moved by more than a third.  With no CPU idle, a wake-up preempts
    a spinner instead, and the calls measure the runtime rather than the
    host.  The spinners yield to every other process.
    """
    spinners = [
        subprocess.Popen(
            [sys.executable, "-c", _SPIN],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for _cpu in os.sched_getaffinity(0)
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def registry(procs) -> dict:
    """Merged registry snapshot of the driver and every live child."""
    from repro.metrics.registry import merge_snapshots

    snapshots = [procs.driver.metrics.snapshot()]
    snapshots += [procs.driver.admin(name, "metrics") for name in procs.names]
    return merge_snapshots(snapshots)


def begin_child_tracing(procs) -> None:
    for name in procs.names:
        procs.driver.admin(name, "clear_spans")
        procs.driver.admin(name, "set_tracing", enabled=True)


def served_us(procs) -> float | None:
    """Mean µs a child spent serving one driver request, or None.

    Children keep a bounded span buffer, so this is the mean over the
    most recent requests each still holds.
    """
    durations = []
    for name in procs.names:
        for span in procs.driver.admin(name, "spans"):
            parent = span.get("parent_id") or ""
            if span["name"] == "recv:invoke" and parent.startswith("send-"):
                durations.append(span["end"] - span["start"])
        procs.driver.admin(name, "set_tracing", enabled=False)
    return sum(durations) / len(durations) * 1e6 if durations else None


def driver_readings(procs) -> dict:
    from repro.net.serializer import STATS

    stats = procs.transport.stats
    return {
        "registry": registry(procs),
        "serializer": STATS.snapshot(),
        "net": (stats.bytes, stats.messages),
    }


def tcp_ext(before: dict, after: dict) -> dict:
    """Per-layer inputs from two :func:`driver_readings` (driver-side serializer)."""
    delta = registry_delta(before["registry"], after["registry"])
    ser_before, ser_after = before["serializer"], after["serializer"]
    return {
        **registry_ext(delta),
        "ser_bytes": ser_after["bytes_out"] - ser_before["bytes_out"],
        "ser_buffers": ser_after["buffers_allocated"] - ser_before["buffers_allocated"],
        "net_bytes": after["net"][0] - before["net"][0],
        "net_messages": after["net"][1] - before["net"][1],
    }


def exec_us(stubs) -> float | None:
    """Mean µs per timed anchor-method body across ``stubs``."""
    total_ns = count = 0
    for stub in stubs:
        ns, calls = stub.exec_totals()
        total_ns += ns
        count += calls
    return total_ns / count / 1e3 if count else None
