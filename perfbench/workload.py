"""The run sequence every workload follows, and the hooks it fills in.

``--trace 0``: build the deployment again and again for about
SETUP_BUDGET_S seconds, run one untraced window of ``--seconds`` in
SETUP_MOMENTS parts with more such set-ups of throw-away deployments
between them (the median of all set-ups is ``setup_s``), and report
the end-to-end metrics.

``--trace 1``: set up once as before, then run half the window
untraced and half traced on the same deployment.  The traced half gives the per-layer
metrics; the ratio of the halves' throughput gives
``trace_overhead_frac``.
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass, field

from perfbench.harness import (
    SETUP_MOMENTS,
    Tally,
    Window,
    latency_metrics,
    peak_rss_mb,
    run_window,
    timed_setups,
)
from perfbench.reduce import layer_metrics, reduce
from perfbench.stats import median
from perfbench.tracing import Patches, Recorder, install


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    #: The metrics of the last output line: name -> (value, unit).
    metrics: dict
    #: Further figures printed above it for people: name -> (value, unit).
    report: dict = field(default_factory=dict)
    #: Wrong results and failed checks; any of them makes the run incorrect.
    problems: list[str] = field(default_factory=list)
    #: Errors of operations that raised (each also makes the run
    #: incorrect), and of set-ups that were retried.
    errors: list[str] = field(default_factory=list)


class Workload:
    """Hooks a workload provides; the defaults suit a workload without them."""

    name = ""
    #: Stub classes whose generated methods the traced half times.
    stubs: tuple = ()

    def prepare(self, seed: int, seconds: float) -> list[str]:
        """Generate the schedule; return problems found checking it."""
        raise NotImplementedError

    def environment(self):
        """Context manager around the whole run, set-ups included."""
        return contextlib.nullcontext()

    def build(self):
        raise NotImplementedError

    def close(self, deployment) -> None:
        raise NotImplementedError

    def step_fn(self, deployment):
        raise NotImplementedError

    def child_pids(self, deployment) -> list[int]:
        return []

    def trace_targets(self) -> list[tuple[object, str, str]]:
        """Extra ``(owner, attr, span name)`` wrappers for a traced half."""
        return [
            (stub, name, f"stub:{name}")
            for stub in self.stubs
            for name, member in vars(stub).items()
            if callable(member) and not name.startswith("_")
        ]

    def begin_trace(self, deployment, patches: Patches) -> None:
        """Switch on what the traced half reads beyond the span wrappers;
        anything patched goes through ``patches`` so that it is undone."""

    def readings(self, deployment) -> dict:
        """Counters read before and after the traced half."""
        return {}

    def layer_ext(self, deployment, before: dict, after: dict, window: Window) -> dict:
        """The ``ext`` input of :func:`perfbench.reduce.layer_metrics`."""
        return {}

    def end_checks(self, deployment) -> list[str]:
        return []

    def report(self, deployment, window: Window) -> tuple[dict, list[str]]:
        """Workload-specific end-to-end figures (moves, layout), and the
        problems checking them found.  Called after the last window and
        after ``peak_rss_mb`` is read, so it may build deployments of
        its own."""
        return {}, []


def execute(workload: Workload, seed: int, seconds: float, trace: bool) -> Result:
    with workload.environment():
        return _execute(workload, seed, seconds, trace)


def _execute(workload: Workload, seed: int, seconds: float, trace: bool) -> Result:
    problems = workload.prepare(seed, seconds)
    # The schedule and the other set-up data live through the window:
    # keep their objects out of the runtime's garbage collections.
    gc.collect()
    gc.freeze()
    setup_failures: list[str] = []
    setup_times: list[float] = []

    def set_up(keep: bool):
        return timed_setups(
            workload.build, workload.close, setup_times, setup_failures, keep=keep
        )

    deployment = set_up(keep=True)
    #: Call-latency figures printed beside the metrics but not gated.
    calls: dict = {}
    try:
        step = workload.step_fn(deployment)
        if trace:
            windows, metrics = _traced(workload, deployment, step, seconds)
        else:
            window, _next = run_window(
                step, seconds, Tally(), None, 0,
                parts=SETUP_MOMENTS, between=lambda: set_up(keep=False),
            )
            windows = [window]
            calls = latency_metrics(window, "call")
            metrics = {
                "setup_s": (median(setup_times), "s"),
                "ops_per_s": (window.ops_per_s, "ops/s"),
                "call_p50_us": calls.pop("call_p50_us"),
                "peak_rss_mb": (peak_rss_mb(workload.child_pids(deployment)), "MiB"),
            }
        problems += workload.end_checks(deployment)
        report, found = workload.report(deployment, windows[-1])
        problems += found
    finally:
        workload.close(deployment)
    completed = sum(w.tally.ops for w in windows)
    failed = sum(w.tally.failed for w in windows)
    attempted = completed + failed
    errors = list(setup_failures)
    for w in windows:
        problems += w.tally.wrong
        errors += w.tally.errors
    report = {**calls, **report}
    report["failed_frac"] = (failed / attempted, f"of {attempted} ops")
    report["setup_failures"] = (
        len(setup_failures), f"of {len(setup_failures) + len(setup_times)} set-ups"
    )
    return Result(
        correct=failed == 0 and not problems,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        report=report,
        problems=problems,
        errors=errors,
    )


def _traced(workload: Workload, deployment, step, seconds: float):
    half = seconds / 2
    plain, next_op = run_window(step, half, Tally(), None, 0)
    recorder = Recorder()
    patches = install(recorder, workload.trace_targets())
    try:
        workload.begin_trace(deployment, patches)
        before = workload.readings(deployment)
        traced, _next = run_window(step, half, Tally(), recorder, next_op)
        after = workload.readings(deployment)
    finally:
        patches.undo()
    ext = workload.layer_ext(deployment, before, after, traced)
    metrics = layer_metrics(reduce(recorder), ext)
    metrics["trace_overhead_frac"] = (1.0 - traced.ops_per_s / plain.ops_per_s, "fraction")
    return [plain, traced], metrics
