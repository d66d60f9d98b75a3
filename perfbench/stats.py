"""Pure helpers: percentiles, span-tree self times, memory readings.

Nothing here imports the runtime, so the helper tests run without it.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail metric may report, highest first.  ``p99`` is the
#: highest on purpose: the end-to-end tail metrics are named after it.
TAIL_LADDER = (99.0, 90.0, 50.0)

#: Samples that must lie strictly beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def nearest_rank(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """``(pct, value)`` for the highest percentile with ten samples beyond it.

    With 1000 or more samples this is p99; with fewer it falls back down
    :data:`TAIL_LADDER`.  Raises when not even the median qualifies.
    """
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        if beyond(len(ordered), pct) >= TAIL_MIN_BEYOND:
            return pct, nearest_rank(ordered, pct)
    raise ValueError(
        f"{len(ordered)} samples: no percentile has {TAIL_MIN_BEYOND} samples beyond it"
    )


def median(samples: list[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def self_times(spans: list[tuple]) -> list[int]:
    """Self time of each span: its duration minus its children's.

    ``spans`` holds ``(name, start, end, parent)`` tuples where
    ``parent`` is the index of the enclosing span or -1.  Spans come from
    one thread, so children nest inside their parent and never overlap
    one another; summing their durations is the covered interval.
    """
    result = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def layer_of(name: str) -> str:
    """``"rpc:call"`` -> ``"rpc"``."""
    return name.split(":", 1)[0]


def read_hwm_kib(pid: int | str = "self") -> int:
    """Peak resident set (``VmHWM``) of a process, in KiB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
