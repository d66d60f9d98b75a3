"""Tests of the benchmark's own helpers; none of them starts the runtime.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pytest

from perfbench.reduce import layer_metrics, reduce
from perfbench.schedule import (
    CALL_MIX,
    CALLS_PER_ROUND,
    LARGE_BYTES,
    PAYLOAD_POOL,
    PHASE_ROUNDS,
    SMALL_BYTES,
    call_mix_schedule,
    relayout_schedule,
    seed_problems,
)
from perfbench.stats import beyond, self_times, tail_percentile
from perfbench.tracing import Recorder


class TestTailPercentile:
    def test_p99_needs_ten_samples_beyond_it(self):
        # 1000 samples: p99 is the 990th value and ten lie beyond it.
        samples = list(range(1, 1001))
        assert tail_percentile(samples) == (99.0, 990)
        assert beyond(1000, 99.0) == 10

    def test_falls_back_to_p90_below_a_thousand_samples(self):
        # 999 samples leave only nine beyond p99; p90 has 99 beyond it.
        samples = list(range(1, 1000))
        assert beyond(999, 99.0) == 9
        assert tail_percentile(samples) == (90.0, 900)

    def test_falls_back_to_the_median(self):
        samples = list(range(1, 31))
        assert beyond(30, 90.0) == 3
        assert tail_percentile(samples) == (50.0, 15)

    def test_order_of_samples_does_not_matter(self):
        samples = list(range(1, 2001))
        assert tail_percentile(list(reversed(samples))) == tail_percentile(samples)

    def test_too_few_samples_for_any_percentile(self):
        # 19 samples: nine lie beyond the median.
        with pytest.raises(ValueError):
            tail_percentile(list(range(19)))


class TestSelfTimes:
    # op [0, 100]
    #   stub [10, 90]
    #     invocation [15, 85]
    #       marshal [20, 30]
    #         serializer [22, 28]
    #       rpc [40, 80]
    #         transport [45, 75]
    SPANS = [
        ("op:0", 0, 100, -1),
        ("stub:echo", 10, 90, 0),
        ("invocation:invoke_stub", 15, 85, 1),
        ("marshal.invoke:dumps", 20, 30, 2),
        ("serializer:dumps", 22, 28, 3),
        ("rpc:call", 40, 80, 2),
        ("transport:send", 45, 75, 5),
    ]

    def test_self_time_is_duration_minus_children(self):
        assert self_times(self.SPANS) == [20, 10, 20, 4, 6, 10, 30]

    def test_self_times_add_up_to_the_root(self):
        assert sum(self_times(self.SPANS)) == 100

    def test_layer_totals_merge_spans_of_one_layer(self):
        recorder = Recorder()
        recorder.spans = self.SPANS + [("marshal.invoke:loads", 86, 89, 1)]
        red = reduce(recorder)
        assert red.layer_self_ns["marshal.invoke"] == 4 + 3
        assert red.layer_self_ns["stub"] == 10 - 3
        assert red.op_self_ns + sum(red.layer_self_ns.values()) == 100

    def test_nested_spans_of_the_same_layer(self):
        recorder = Recorder()
        recorder.spans = [("op:0", 0, 50, -1), ("rpc:call", 0, 50, 0), ("rpc:serve", 10, 40, 1)]
        red = reduce(recorder)
        assert red.op_self_ns == 0
        assert red.layer_self_ns == {"rpc": 50}


class TestReduce:
    def test_only_spans_under_operations_count(self):
        recorder = Recorder()
        recorder.spans = [
            ("op:0", 0, 1_000, -1),
            ("rpc:call", 100, 900, 0),
            ("transport:send", 200, 800, 1),
            ("rpc:serve", 300, 700, 2),
            # An admin read between operations: not the system's work.
            ("rpc:call", 2_000, 3_000, -1),
            ("op:1", 4_000, 5_000, -1),
        ]
        red = reduce(recorder)
        assert red.ops == 2
        assert red.op_wall_ns == 2_000
        assert red.op_self_ns == 200 + 1_000
        assert red.layer_self_ns == {"rpc": 200 + 400, "transport": 200}
        assert red.count("rpc:call") == 1
        assert red.served_in_send_ns == 400
        metrics = layer_metrics(red, {})
        assert metrics["transport.send_us"] == (0.6, "us")
        assert metrics["transport.remote_us"] == (0.4, "us")
        assert metrics["unattributed_frac"] == (0.6, "fraction")


class TestSchedules:
    def test_call_mix_is_reproducible_and_seed_dependent(self):
        assert call_mix_schedule(7, 500) == call_mix_schedule(7, 500)
        assert call_mix_schedule(7, 500) != call_mix_schedule(8, 500)

    def test_call_mix_shares_and_sizes(self):
        schedule = call_mix_schedule(3, 20_000)
        kinds = [schedule.kind(i) for i in range(len(schedule))]
        for kind, share in CALL_MIX:
            observed = kinds.count(kind) / len(kinds)
            assert abs(observed - share) < 0.02, kind
        sizes = {len(schedule.payload(i)) for i in range(200)}
        assert sizes == {SMALL_BYTES, LARGE_BYTES}
        for i in range(200):
            expected = LARGE_BYTES if kinds[i] == "large" else SMALL_BYTES
            assert len(schedule.payload(i)) == expected

    def test_a_shorter_schedule_is_a_prefix_of_a_longer_one(self):
        assert call_mix_schedule(4, 3_000).prefix(100) == call_mix_schedule(4, 100)
        assert relayout_schedule(4, 300).prefix(10) == relayout_schedule(4, 10)

    def test_seed_problems_pass_a_generated_schedule(self):
        assert seed_problems(call_mix_schedule, 9, call_mix_schedule(9, 2_500)) == []
        assert seed_problems(relayout_schedule, 9, relayout_schedule(9, 2_500)) == []

    def test_seed_problems_catch_a_schedule_of_another_seed(self):
        problems = seed_problems(call_mix_schedule, 9, call_mix_schedule(10, 2_500))
        assert problems == ["the same seed generated two different schedules"]

    def test_relayout_is_reproducible_and_seed_dependent(self):
        assert relayout_schedule(5, 50) == relayout_schedule(5, 50)
        assert relayout_schedule(5, 50) != relayout_schedule(6, 50)

    def test_relayout_phases_alternate_within_bounds(self):
        rounds = relayout_schedule(11, 400).rounds
        lengths, run = [], 0
        for previous, current in zip(rounds, rounds[1:], strict=False):
            run += 1
            if previous.phase_end:
                assert current.affinity == 1 - previous.affinity
                lengths.append(run)
                run = 0
            else:
                assert current.affinity == previous.affinity
        assert lengths
        assert all(PHASE_ROUNDS[0] <= n <= PHASE_ROUNDS[1] for n in lengths)

    def test_relayout_hops_visit_two_distinct_cores(self):
        for rnd in relayout_schedule(2, 200).rounds:
            if rnd.hop_via is not None:
                assert len(set(rnd.hop_via)) == 2

    def test_relayout_driver_calls_unpack(self):
        calls = [call for rnd in relayout_schedule(3, 200).rounds for call in rnd.driver_calls()]
        assert len(calls) == 200 * CALLS_PER_ROUND
        remote = sum(1 for is_remote, _index in calls if is_remote) / len(calls)
        assert 0.7 < remote < 0.8
        assert {index for _remote, index in calls} == set(range(PAYLOAD_POOL))
