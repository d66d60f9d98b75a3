"""What every workload shares: the closed-loop window, timing, tallies,
repeated set-ups and registry arithmetic."""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

from perfbench.stats import median, read_hwm_kib, tail_percentile
from perfbench.tracing import Recorder

#: A run times set-ups at this many moments: before its window and
#: between equal parts of it.  The host's speed drifts over seconds, so
#: set-ups made in one burst would all sample one moment of it.
SETUP_MOMENTS = 5
#: At each moment the deployment is built again until the set-ups have
#: taken this many seconds (at least once); setup_s is the median of
#: all of a run's set-ups.  A set-up of a few milliseconds is so timed
#: over a hundred times, and no single stall of the host decides it.
SETUP_BUDGET_S = 0.2


class WrongResult(Exception):
    """An operation returned something other than what it must return."""


@dataclass
class Tally:
    """Per-window counts and latency samples (microseconds)."""

    #: Operations that completed correctly, and those that did not.
    ops: int = 0
    failed: int = 0
    call_us: list[float] = field(default_factory=list)
    move_us: list[float] = field(default_factory=list)
    #: First few wrong results and errors, for the report; all count in
    #: ``failed``.
    wrong: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def call(self, fn, *args):
        start = perf_counter_ns()
        result = fn(*args)
        self.call_us.append((perf_counter_ns() - start) / 1e3)
        return result

    def move(self, fn, *args) -> None:
        start = perf_counter_ns()
        fn(*args)
        self.move_us.append((perf_counter_ns() - start) / 1e3)

    def expect(self, condition: bool, detail: str) -> None:
        if not condition:
            raise WrongResult(detail)

    def note_wrong(self, detail: str) -> None:
        if len(self.wrong) < 5:
            self.wrong.append(detail)

    def note_error(self, detail: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(detail)


@dataclass
class Window:
    tally: Tally
    seconds: float
    recorder: Recorder | None = None

    @property
    def ops_per_s(self) -> float:
        """Operations completed correctly per second."""
        return self.tally.ops / self.seconds


def run_window(
    step,
    seconds: float,
    tally: Tally,
    recorder: Recorder | None,
    start_at: int,
    *,
    parts: int = 1,
    between=None,
):
    """Issue operations back to back until ``seconds`` have passed.

    ``step(i, tally)`` performs logical operation ``i`` (one call
    outstanding at a time: the closed loop).  A :class:`WrongResult`
    or an error the step lets escape counts the operation as failed,
    and any failed operation makes the run incorrect.  With ``parts``
    the window is cut into that many equal parts and ``between()`` runs
    between two parts, outside the window's time.  Returns the window
    and the index of the next operation.
    """
    i = start_at
    elapsed = 0.0
    for part in range(parts):
        if part:
            between()
        started = perf_counter()
        i = _issue(step, started + seconds / parts, tally, recorder, i)
        elapsed += perf_counter() - started
    return Window(tally, elapsed, recorder), i


def _issue(step, deadline: float, tally: Tally, recorder: Recorder | None, i: int) -> int:
    while perf_counter() < deadline:
        span = recorder.open(f"op:{i}") if recorder is not None else -1
        try:
            step(i, tally)
        except WrongResult as wrong:
            tally.failed += 1
            tally.note_wrong(f"op {i}: {wrong}")
        except Exception as exc:  # noqa: BLE001 - counted and reported, never hidden
            tally.failed += 1
            tally.note_error(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            tally.ops += 1
        finally:
            if recorder is not None:
                recorder.close(span)
        i += 1
    return i


#: Attempts at one set-up before the run gives up.
SETUP_ATTEMPTS = 3


def timed_setups(build, close, times: list[float], failures: list[str], *, keep: bool):
    """Build the deployment until SETUP_BUDGET_S is spent at this moment.

    Appends each set-up's seconds to ``times``.  Returns the last
    deployment when ``keep``, else closes it too and returns None.  A
    set-up that raises is retried (up to SETUP_ATTEMPTS times) and
    recorded in ``failures``; only successful set-ups are timed.
    """
    spent = 0.0
    while True:
        repeat = len(times)
        for attempt in range(1, SETUP_ATTEMPTS + 1):
            start = perf_counter()
            try:
                deployment = build()
            except Exception as exc:
                failures.append(
                    f"set-up {repeat + 1} attempt {attempt}: {type(exc).__name__}: {exc}"
                )
                if attempt == SETUP_ATTEMPTS:
                    raise
                continue
            times.append(perf_counter() - start)
            spent += times[-1]
            break
        if spent >= SETUP_BUDGET_S and keep:
            return deployment
        close(deployment)
        if spent >= SETUP_BUDGET_S:
            return None


def latency_metrics(window: Window, kind: str) -> dict:
    """``<kind>_p50_us`` and the tail with its sample count.

    The tail is named after the percentile it is: ``<kind>_p99_us`` once
    a window holds 1000 samples, a lower one (``_p90_us``) before that.
    """
    samples = window.tally.call_us if kind == "call" else window.tally.move_us
    pct, tail = tail_percentile(samples)
    return {
        f"{kind}_p50_us": (median(samples), "us"),
        f"{kind}_p{pct:g}_us": (tail, "us"),
        f"{kind}_samples": (len(samples), "count"),
    }


def peak_rss_mb(child_pids: list[int]) -> float:
    """Peak RSS of this process plus the given live children, MiB."""
    return (read_hwm_kib() + sum(read_hwm_kib(pid) for pid in child_pids)) / 1024.0


def registry_delta(before: dict, after: dict) -> dict[str, float]:
    """Counter deltas between two merged registry snapshots.

    Histogram ``count`` and ``sum`` appear as ``<name>.count`` and
    ``<name>.sum`` so that means over the window can be formed.
    """
    out: dict[str, float] = {}
    counters_before = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        out[name] = value - counters_before.get(name, 0.0)
    hist_before = before.get("histograms", {})
    for name, hist in after.get("histograms", {}).items():
        prior = hist_before.get(name, {"count": 0, "sum": 0.0})
        out[f"{name}.count"] = hist["count"] - prior["count"]
        out[f"{name}.sum"] = hist["sum"] - prior["sum"]
    return out


def counter_sum(delta: dict[str, float], name: str) -> float:
    """Sum of every labelled variant of counter ``name`` in a delta."""
    return sum(
        value for key, value in delta.items() if key == name or key.startswith(name + "{")
    )


def registry_ext(delta: dict[str, float]) -> dict:
    """The registry-counter part of ``layer_metrics``' ``ext``."""
    return {
        "forwarded": counter_sum(delta, "invocation.forwarded"),
        "moves": counter_sum(delta, "movement.moves_sent"),
        "aborted": counter_sum(delta, "movement.moves_aborted"),
        "offloads": counter_sum(delta, "store.offloads"),
        "resolves": counter_sum(delta, "store.resolves"),
        "store_cache_hits": counter_sum(delta, "store.cache_hits"),
        "published": counter_sum(delta, "events.published"),
        "profiler_cache_hits": counter_sum(delta, "profiler.cache_hits"),
        "rpc_retries": counter_sum(delta, "rpc.retries"),
        "restarts": counter_sum(delta, "supervisor.restarts"),
        "checkpoints": counter_sum(delta, "checkpoint.taken"),
    }
