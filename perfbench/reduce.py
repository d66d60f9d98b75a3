"""Reduce a traced window to the per-layer metrics.

Only spans inside an ``op:*`` root count: admin reads and checks the
benchmark makes between operations are not the system's work.  A
layer's ``*.self_us`` is its self time per logical operation, so the
layers' self times plus the unattributed remainder add up to the mean
wall time of an operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from perfbench.stats import layer_of, self_times
from perfbench.tracing import Recorder


@dataclass
class Reduction:
    ops: int = 0
    op_wall_ns: int = 0
    op_self_ns: int = 0
    layer_self_ns: dict[str, int] = field(default_factory=dict)
    #: span name -> (count, inclusive ns)
    by_name: dict[str, list[int]] = field(default_factory=dict)
    #: Serving-side time inside sends (sim): rpc:serve under transport:send.
    served_in_send_ns: int = 0
    #: movement:move spans with a scheduler:advance ancestor.
    moves_in_advance: int = 0
    move_bytes: list[int] = field(default_factory=list)

    def count(self, name: str) -> int:
        return self.by_name.get(name, (0, 0))[0]

    def mean_us(self, *names: str) -> float:
        count = sum(self.count(name) for name in names)
        total = sum(self.by_name.get(name, (0, 0))[1] for name in names)
        return total / count / 1e3 if count else 0.0

    def per_op(self, value: float) -> float:
        return value / self.ops if self.ops else 0.0

    def self_us_per_op(self, layer: str) -> float:
        return self.per_op(self.layer_self_ns.get(layer, 0) / 1e3)


def reduce(recorder: Recorder) -> Reduction:
    spans = recorder.spans
    own = self_times(spans)
    red = Reduction()
    root = [0] * len(spans)
    in_advance = [False] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            root[i] = i
        else:
            root[i] = root[parent]
            parent_name = spans[parent][0]
            in_advance[i] = in_advance[parent] or parent_name == "scheduler:advance"
        if not spans[root[i]][0].startswith("op:"):
            continue
        if parent < 0:
            red.ops += 1
            red.op_wall_ns += end - start
            red.op_self_ns += own[i]
            continue
        layer = layer_of(name)
        red.layer_self_ns[layer] = red.layer_self_ns.get(layer, 0) + own[i]
        slot = red.by_name.setdefault(name, [0, 0])
        slot[0] += 1
        slot[1] += end - start
        if name == "rpc:serve" and spans[parent][0] == "transport:send":
            red.served_in_send_ns += end - start
        if name == "movement:move" and in_advance[i]:
            red.moves_in_advance += 1
        if recorder.tags.get(i) == "move_complet":
            red.move_bytes.append(recorder.sizes[i])
    return red


def layer_metrics(red: Reduction, ext: dict) -> dict:
    """Every per-layer metric, from the span reduction plus ``ext``.

    ``ext`` carries what spans cannot see, gathered by the workload:
    registry counter deltas (``forwarded``, ``moves``, ``aborted``,
    ``offloads``, ``resolves``, ``store_cache_hits``, ``published``,
    ``profiler_cache_hits``, ``rpc_retries``), clone-cache
    ``clone_hits``/``clone_misses``, serializer ``ser_bytes`` and
    ``ser_buffers``, transport ``net_bytes``/``net_messages``,
    ``remote_us`` (None: take it from the spans), ``exec_us`` (None:
    spans), ``timers_fired``, supervisor ``restarts``, children's
    ``checkpoints`` and the launch's ``spawn_to_ready_s``.  A layer the
    workload does not run reads 0.
    """
    invoke_calls = red.count("invocation:invoke_stub")
    sends = red.count("transport:send")
    send_us = red.mean_us("transport:send")
    if ext.get("remote_us") is not None:
        remote_us = ext["remote_us"]
    else:
        remote_us = red.served_in_send_ns / sends / 1e3 if sends else 0.0
    exec_us = ext["exec_us"] if ext.get("exec_us") is not None else red.mean_us(
        *[name for name in red.by_name if name.startswith("exec:")]
    )
    lookups = ext.get("clone_hits", 0) + ext.get("clone_misses", 0)
    instants = red.count("monitor:instant")
    resolves = ext.get("resolves", 0)
    return {
        "stub.self_us": (red.self_us_per_op("stub"), "us/op"),
        "invocation.calls": (red.per_op(invoke_calls), "1/op"),
        "invocation.self_us": (red.self_us_per_op("invocation"), "us/op"),
        "invocation.forwarded_per_call": (
            ext.get("forwarded", 0) / invoke_calls if invoke_calls else 0.0, "ratio"),
        "marshal.invoke_us": (red.self_us_per_op("marshal.invoke"), "us/op"),
        "marshal.move_us": (red.self_us_per_op("marshal.move"), "us/op"),
        "marshal.clone_cache_hit_ratio": (
            ext.get("clone_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "serializer.us_per_op": (red.self_us_per_op("serializer"), "us/op"),
        "serializer.bytes_per_op": (red.per_op(ext.get("ser_bytes", 0)), "B/op"),
        "serializer.buffers": (red.per_op(ext.get("ser_buffers", 0)), "1/op"),
        "rpc.self_us": (red.self_us_per_op("rpc"), "us/op"),
        "rpc.retries": (ext.get("rpc_retries", 0), "count"),
        "transport.sends_per_op": (
            red.per_op(sends + red.count("transport:post")), "1/op"),
        "transport.bytes_per_send": (
            ext["net_bytes"] / ext["net_messages"] if ext.get("net_messages") else 0.0, "B"),
        "transport.send_us": (send_us, "us"),
        "transport.remote_us": (remote_us, "us"),
        "transport.wire_us": (send_us - remote_us if sends else 0.0, "us"),
        "framing.us_per_frame": (red.mean_us("framing:encode_request"), "us"),
        "exec.us": (exec_us, "us"),
        "references.resolve_final_calls": (
            red.per_op(red.count("references:resolve_final")), "1/op"),
        "references.shortens": (red.per_op(red.count("references:shorten")), "1/op"),
        "movement.moves": (red.per_op(ext.get("moves", 0)), "1/op"),
        "movement.self_us": (red.self_us_per_op("movement"), "us/op"),
        "movement.bytes_per_move": (
            sum(red.move_bytes) / len(red.move_bytes) if red.move_bytes else 0.0, "B"),
        "movement.aborted": (ext.get("aborted", 0), "count"),
        "store.offloads": (red.per_op(ext.get("offloads", 0)), "1/op"),
        "store.resolve_us": (red.mean_us("store:resolve"), "us"),
        "store.cache_hit_ratio": (
            ext.get("store_cache_hits", 0) / resolves if resolves else 0.0, "ratio"),
        "events.published": (red.per_op(ext.get("published", 0)), "1/op"),
        "monitor.instant_us": (red.mean_us("monitor:instant"), "us"),
        "profiler.cache_hit_ratio": (
            ext.get("profiler_cache_hits", 0) / instants if instants else 0.0, "ratio"),
        "script.moves_fired": (red.moves_in_advance, "count"),
        "scheduler.advance_us": (red.mean_us("scheduler:advance"), "us"),
        "scheduler.timers_fired": (ext.get("timers_fired", 0), "count"),
        "supervisor.restarts": (ext.get("restarts", 0), "count"),
        "launch.spawn_to_ready_s": (ext.get("spawn_to_ready_s", 0.0), "s"),
        "checkpoint.taken": (ext.get("checkpoints", 0), "count"),
        "unattributed_frac": (
            red.op_self_ns / red.op_wall_ns if red.op_wall_ns else 0.0, "fraction"),
    }
