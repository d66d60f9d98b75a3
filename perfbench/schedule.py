"""Seeded operation schedules, generated before any deployment exists.

Every workload draws its whole input from ``--seed`` here: op kinds,
payloads, move targets.  The runtime receives only these generated
values.  A schedule is longer than any run can consume, so how far a
run gets depends on speed but never what it is asked to do.

Payloads are drawn first and operations after them, one at a time, so
the schedule of ``n`` operations (or rounds) is the first ``n`` of any
longer schedule of the same seed: a run checks determinism on a short
prefix instead of generating its whole schedule twice.  Schedules are
kept compact, because they stay alive in the benchmark process through
the timed window, where their memory would count in ``peak_rss_mb``
and their objects in every garbage collection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

# -- call-mix -----------------------------------------------------------------

SMALL_BYTES = 64
LARGE_BYTES = 16 * 1024
#: (kind, share) of the call-mix; "chain" crosses two child processes.
CALL_MIX = (("small", 0.70), ("large", 0.20), ("chain", 0.10))
#: Distinct payloads per size; calls cycle through them.
PAYLOAD_POOL = 32


@dataclass(frozen=True)
class CallMixSchedule:
    #: One byte per call: the kind's index in CALL_MIX.
    kind_codes: bytes
    #: One byte per call: the payload's index in its pool.
    payload_index: bytes
    small: tuple[bytes, ...]
    large: tuple[bytes, ...]

    def __len__(self) -> int:
        return len(self.kind_codes)

    def kind(self, i: int) -> str:
        return CALL_MIX[self.kind_codes[i]][0]

    def payload(self, i: int) -> bytes:
        pool = self.large if self.kind(i) == "large" else self.small
        return pool[self.payload_index[i]]

    def prefix(self, length: int) -> "CallMixSchedule":
        return CallMixSchedule(
            self.kind_codes[:length], self.payload_index[:length], self.small, self.large
        )


def call_mix_schedule(seed: int, length: int) -> CallMixSchedule:
    rng = random.Random(f"call-mix/{seed}")
    small = tuple(rng.randbytes(SMALL_BYTES) for _ in range(PAYLOAD_POOL))
    large = tuple(rng.randbytes(LARGE_BYTES) for _ in range(PAYLOAD_POOL))
    kinds = bytearray(length)
    index = bytearray(length)
    for i in range(length):
        draw = rng.random()
        for code, (_name, share) in enumerate(CALL_MIX):
            draw -= share
            if draw < 0:
                break
        kinds[i] = code
        index[i] = rng.randrange(PAYLOAD_POOL)
    return CallMixSchedule(bytes(kinds), bytes(index), small, large)


# -- relayout -------------------------------------------------------------------

RELAYOUT_CORES = ("c0", "c1", "c2", "c3")
#: Calls per round from the driver (Core c0) to echo complets, and the
#: share of them that go to the remote echo.  Colocated calls take about
#: half as long as remote ones; with three in four remote, the median
#: call latency falls inside the remote calls' cluster rather than on
#: the edge between the two, where it would jump from run to run.
CALLS_PER_ROUND = 12
P_REMOTE = 0.75
#: Affinity phases last this many rounds, bounds inclusive.  The rate
#: rule needs two to four monitor samples to fire, so six rounds always
#: let the client settle before the next flip.
PHASE_ROUNDS = (6, 9)
#: Calls the client makes to its current server per round.
BURST_CALLS = 25
LIBRARIES = 6
LIBRARY_BYTES = 2_048
GROUP_MEMBERS = 3
MEMBER_BYTES = 4_096
BIG_BYTES = 256 * 1024
#: Per-round probabilities of the optional operations.
P_GROUP, P_HOP, P_BIG, P_DUP = 0.5, 0.5, 0.25, 0.6
#: Share of duplicate moves preceded by a write to the library.
P_MUTATE = 0.3


#: Bit set in a packed driver call when the call is remote.
REMOTE_BIT = 0x80


@dataclass(frozen=True, slots=True)
class Round:
    #: One byte per driver call: the payload index, with REMOTE_BIT set
    #: for a remote call (to c1).
    calls: bytes
    #: Server index (0 or 1) the client's burst targets this round.
    affinity: int
    #: True on the last round of an affinity phase.
    phase_end: bool
    group_to: str | None
    hop_via: tuple[str, str] | None
    big_to: str | None
    #: ``(library index, mutate first, destination)`` or None.
    dup: tuple[int, bool, str] | None

    def driver_calls(self) -> list[tuple[bool, int]]:
        """``(remote, payload index)`` per driver call."""
        return [(bool(call & REMOTE_BIT), call & ~REMOTE_BIT) for call in self.calls]


@dataclass(frozen=True)
class RelayoutSchedule:
    rounds: tuple[Round, ...]
    payloads: tuple[bytes, ...]
    big_blob: bytes
    library_data: tuple[bytes, ...]
    #: Data written into libraries, cycled through by mutating dups.
    writes: tuple[bytes, ...]

    def __len__(self) -> int:
        return len(self.rounds)

    def prefix(self, rounds: int) -> "RelayoutSchedule":
        return replace(self, rounds=self.rounds[:rounds])


def relayout_schedule(seed: int, rounds: int) -> RelayoutSchedule:
    rng = random.Random(f"relayout/{seed}")
    payloads = tuple(rng.randbytes(SMALL_BYTES) for _ in range(PAYLOAD_POOL))
    big_blob = rng.randbytes(BIG_BYTES)
    library_data = tuple(rng.randbytes(LIBRARY_BYTES) for _ in range(LIBRARIES))
    writes = tuple(rng.randbytes(LIBRARY_BYTES) for _ in range(PAYLOAD_POOL))
    others = RELAYOUT_CORES[1:]
    out: list[Round] = []
    affinity = 0
    left = rng.randint(*PHASE_ROUNDS)
    for _ in range(rounds):
        calls = bytes(
            (REMOTE_BIT if rng.random() < P_REMOTE else 0) | rng.randrange(PAYLOAD_POOL)
            for _ in range(CALLS_PER_ROUND)
        )
        left -= 1
        phase_end = left == 0
        group_to = rng.choice(RELAYOUT_CORES) if rng.random() < P_GROUP else None
        hop_via = tuple(rng.sample(others, 2)) if rng.random() < P_HOP else None
        big_to = rng.choice(RELAYOUT_CORES) if rng.random() < P_BIG else None
        dup = None
        if rng.random() < P_DUP:
            dup = (
                rng.randrange(LIBRARIES),
                rng.random() < P_MUTATE,
                rng.choice(RELAYOUT_CORES[:3]),
            )
        out.append(Round(calls, affinity, phase_end, group_to, hop_via, big_to, dup))
        if phase_end:
            affinity = 1 - affinity
            left = rng.randint(*PHASE_ROUNDS)
    return RelayoutSchedule(tuple(out), payloads, big_blob, library_data, writes)


# -- determinism ------------------------------------------------------------------

#: Operations (call-mix) or rounds (relayout) a run generates again to
#: check that its schedule depends on the seed alone.
CHECK_LENGTH = 2_000


def seed_problems(generate, seed: int, schedule) -> list[str]:
    """Check, on a prefix, that ``generate(seed, n)`` is a function of the seed."""
    length = min(CHECK_LENGTH, len(schedule))
    again = generate(seed, length)
    problems = []
    if again != schedule.prefix(length):
        problems.append("the same seed generated two different schedules")
    if generate(seed + 1, length) == again:
        problems.append("two seeds generated the same schedule")
    return problems
