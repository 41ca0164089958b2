"""One benchmark run: set up, drive the load, check every output, summarize.

An untraced phase gives the end-to-end metrics.  With tracing on, the run
splits its time: an untraced half, then a traced half whose spans and
counter deltas give the per-layer metrics; the ratio of the two halves'
median latencies is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.groups.precompute import precompute_stats
from repro.mathutils.backends import backend_info
from repro.sim.metrics import (
    latency_fairness_index,
    latency_percentile,
    residual_delay_factor,
)
from repro.telemetry import default_registry

from cluster import PARTIES, THRESHOLD, Cluster, start_cluster
from spans import Tracer
from workloads import Workload

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Longest wait for an open loop's last requests after the window closes.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Counters:
    """Process and node counters read at the edges of a phase."""

    net_msgs: float
    net_bytes: float
    tob_msgs: float
    fixedbase_hits: float
    fixedbase_misses: float
    aborts: float
    lag_counts: list[int]
    cpu_s: float
    wall_s: float

    @classmethod
    def read(cls, cluster: Cluster) -> "Counters":
        registry = default_registry()
        fixed = precompute_stats()
        lag = [_lag_child(node) for node in cluster.nodes]
        return cls(
            net_msgs=_counter_sum(registry, "repro_network_messages_total",
                                  channel="local", direction="sent"),
            net_bytes=_counter_sum(registry, "repro_network_bytes_total",
                                   channel="local", direction="sent"),
            tob_msgs=_counter_sum(registry, "repro_network_messages_total",
                                  channel="tob", direction="sent"),
            fixedbase_hits=fixed["hits"],
            fixedbase_misses=fixed["misses"],
            aborts=sum(_counter_sum(node.registry, "repro_instance_aborts_total")
                       for node in cluster.nodes),
            lag_counts=[child.count if child else 0 for child in lag],
            cpu_s=time.process_time(),
            wall_s=time.monotonic(),
        )


def _counter_sum(registry, name: str, **match: str) -> float:
    family = registry.get(name)
    if family is None:
        return 0.0
    return sum(
        child.value for child in family.children()
        if all(dict(child.label_items).get(k) == v for k, v in match.items())
    )


def _lag_child(node):
    family = node.registry.get("repro_event_loop_lag_seconds")
    children = family.children() if family is not None else []
    return children[0] if children else None


@dataclass
class Phase:
    """Everything one measured window produced."""

    t0: float = 0.0
    outcomes: list = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    attempted: int = 0
    before: Counters | None = None
    after: Counters | None = None
    loop_lag: list[float] = field(default_factory=list)

    def ok(self, failures: dict) -> list:
        return [o for o in self.outcomes if id(o) not in failures]

    def latencies(self, failures: dict) -> list[float]:
        return [o.first_finish - o.due for o in self.ok(failures)]


async def drive(cluster: Cluster, workload: Workload, seconds: float,
                inputs: random.Random, schedule: random.Random,
                first_index: int) -> Phase:
    """Send the workload's load for ``seconds``; wait for the last replies."""
    loop = asyncio.get_running_loop()
    phase = Phase()
    if workload.open_loop_rps is not None:
        offsets = workload.arrivals(seconds, schedule)
        keys = workload.composition(len(offsets), schedule)
        requests = [cluster.make_request(first_index + i, key, inputs)
                    for i, key in enumerate(keys)]
        phase.before = Counters.read(cluster)
        phase.t0 = loop.time() + 0.05
        tasks = []
        for offset, request in zip(offsets, requests):
            due = phase.t0 + offset
            wait = due - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            phase.lateness.append(max(0.0, loop.time() - due))
            tasks.append(loop.create_task(cluster.run(request, due)))
        phase.attempted = len(tasks)
        done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        phase.outcomes = [task.result() for task in tasks if task in done]
    else:
        (key,) = workload.keys
        phase.before = Counters.read(cluster)
        phase.t0 = loop.time()
        end = phase.t0 + seconds
        index = first_index
        while loop.time() < end:
            request = cluster.make_request(index, key, inputs)
            index += 1
            phase.outcomes.append(await cluster.run(request, loop.time()))
        phase.attempted = len(phase.outcomes)
    phase.after = Counters.read(cluster)
    for node, count in zip(cluster.nodes, phase.before.lag_counts):
        child = _lag_child(node)
        new = child.count - count if child else 0
        if new > 0:
            phase.loop_lag.extend(child.samples()[-new:])
    return phase


def check_outputs(cluster: Cluster, phases: list[Phase]) -> dict:
    """``{id(outcome): reason}`` for every failed or wrong request."""
    failures = {}
    for phase in phases:
        for outcome in phase.outcomes:
            problem = cluster.check(outcome)
            if problem is not None:
                failures[id(outcome)] = problem
    return failures


def _p(values: list[float], k: float) -> float:
    return latency_percentile(values, k) if values else 0.0


def end_to_end(phase: Phase, failures: dict, setup_s: float) -> dict:
    latencies = phase.latencies(failures)
    ok = phase.ok(failures)
    last = max((o.first_finish for o in ok), default=phase.t0)
    window = max(last - phase.t0, 1e-9)
    return {
        "latency_p50_s": (_p(latencies, 50), "s"),
        "latency_p90_s": (_p(latencies, 90), "s"),
        "throughput_rps": (len(ok) / window, "1/s"),
        "success_ratio": (len(ok) / max(phase.attempted, 1), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def per_layer(phase: Phase, untraced: Phase, failures: dict, tracer: Tracer,
              setups: list[dict]) -> dict:
    ok = phase.ok(failures)
    done = max(len(ok), 1)
    totals = tracer.layer_totals()

    def total(name: str, key: str) -> float:
        return totals[name][key] if name in totals else 0.0

    def per_req(name: str, key: str) -> float:
        return total(name, key) / done

    before, after = phase.before, phase.after
    hits = after.fixedbase_hits - before.fixedbase_hits
    misses = after.fixedbase_misses - before.fixedbase_misses
    # A node needs t peer shares for a one-round scheme and all n-1 for FROST.
    needed = sum(
        (PARTIES - 1 if o.request.scheme == "kg20" else THRESHOLD) * PARTIES
        for o in ok
    )
    verified = total("scheme.verify_share", "calls")
    phases = tracer.phases()

    def phase_p50(key: str) -> float:
        return statistics.median(p[key] for p in phases) if phases else 0.0

    node_latency = {}
    for o in ok:
        for node_id, finished in o.node_finished.items():
            node_latency.setdefault(node_id, []).append(
                finished - o.node_started[node_id]
            )
    node_l95 = [latency_percentile(v, 95) for v in node_latency.values()]
    l_theta = latency_percentile(node_l95, 100.0 * (THRESHOLD + 1) / PARTIES)
    l95_net = latency_percentile(node_l95, 95)
    traced_p50 = _p(phase.latencies(failures), 50)
    untraced_p50 = _p(untraced.latencies(failures), 50)

    metrics = {
        "primitive.pairing.calls_per_req": (per_req("primitive.pairing", "calls"), "count/req"),
        "primitive.pairing.self_s_per_req": (per_req("primitive.pairing", "self_s"), "s/req"),
        "primitive.modexp.calls_per_req": (per_req("primitive.modexp", "calls"), "count/req"),
        "primitive.modexp.self_s_per_req": (per_req("primitive.modexp", "self_s"), "s/req"),
        "primitive.fixedbase_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "scheme.share.self_s_per_req": (per_req("scheme.share", "self_s"), "s/req"),
        "scheme.verify_share.calls_per_req": (per_req("scheme.verify_share", "calls"), "count/req"),
        "scheme.verify_share.self_s_per_req": (per_req("scheme.verify_share", "self_s"), "s/req"),
        "scheme.check_input.self_s_per_req": (per_req("scheme.check_input", "self_s"), "s/req"),
        "scheme.combine.self_s_per_req": (per_req("scheme.combine", "self_s"), "s/req"),
        "scheme.verify_useful_ratio": (needed / verified if verified else 0.0, "ratio"),
        "protocol.do_round.self_s_per_req": (per_req("protocol.do_round", "self_s"), "s/req"),
        "protocol.update.calls_per_req": (per_req("protocol.update", "calls"), "count/req"),
        "protocol.update.self_s_per_req": (per_req("protocol.update", "self_s"), "s/req"),
        "protocol.finalize.self_s_per_req": (per_req("protocol.finalize", "self_s"), "s/req"),
        "phase.queue_s": (phase_p50("queue_s"), "s"),
        "phase.share_gen_s": (phase_p50("share_gen_s"), "s"),
        "phase.verify_s": (phase_p50("verify_s"), "s"),
        "phase.combine_s": (phase_p50("combine_s"), "s"),
        "phase.await_quorum_s": (phase_p50("await_quorum_s"), "s"),
        # Messages a node received but never fed to update(): they arrived
        # after its instance finished, or sat unread in its inbox then.
        "orchestration.residual_msgs_per_req": (
            (tracer.handled_msgs - total("protocol.update", "calls")) / done, "count/req"),
        "orchestration.buffered_msgs_per_req": (tracer.buffered_msgs / done, "count/req"),
        "orchestration.aborts": (after.aborts - before.aborts, "count"),
        "network.msgs_per_req": ((after.net_msgs - before.net_msgs) / done, "count/req"),
        "network.bytes_per_req": ((after.net_bytes - before.net_bytes) / done, "B/req"),
        "network.tob_msgs_per_req": ((after.tob_msgs - before.tob_msgs) / done, "count/req"),
        "storage.wal_appends_per_req": (per_req("storage.wal_append", "calls"), "count/req"),
        "storage.wal_append.self_s_per_req": (per_req("storage.wal_append", "self_s"), "s/req"),
        "storage.result_put.self_s_per_req": (per_req("storage.result_put", "self_s"), "s/req"),
        "service.node_latency_p50_s": (phase_p50("node_latency_s"), "s"),
        "service.loop_lag_p99_s": (_p(phase.loop_lag, 99), "s"),
        "cluster.l_theta_s": (l_theta, "s"),
        "cluster.delta_res": (residual_delay_factor(l_theta, l95_net), "ratio"),
        "cluster.eta_theta": (latency_fairness_index(l_theta, l95_net), "ratio"),
        "setup.deal_s": (statistics.median(s["deal_s"] for s in setups), "s"),
        "setup.start_s": (statistics.median(s["start_s"] for s in setups), "s"),
        "setup.warmup_s": (statistics.median(s["warmup_s"] for s in setups), "s"),
        "loadgen.lateness_p99_s": (_p(phase.lateness, 99), "s"),
        "host.loop_busy_ratio": (busy_ratio(phase), "ratio"),
        "trace.overhead_ratio": (traced_p50 / untraced_p50 if untraced_p50 else 0.0, "ratio"),
    }
    return metrics


def busy_ratio(phase: Phase) -> float:
    """Process CPU time over wall time of the phase: the loop's utilisation."""
    wall = max(phase.after.wall_s - phase.before.wall_s, 1e-9)
    return (phase.after.cpu_s - phase.before.cpu_s) / wall


def host_shape(workload: Workload, args, phase: Phase) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    lateness = _p(phase.lateness, 99)
    spacing = 1.0 / workload.open_loop_rps if workload.open_loop_rps else None
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "math_backend": backend_info(),
        "one_way_delay_s": workload.one_way_delay_s,
        "loop": "open" if spacing else "closed",
        "open_loop_rps": workload.open_loop_rps,
        "generator_lateness_p99_s": lateness,
        # The open-loop generator fell behind when requests left later than
        # one arrival spacing: the offered rate was not the stated one.
        "valid": spacing is None or lateness <= spacing,
        "loop_busy_ratio": busy_ratio(phase),
    }


async def run(workload: Workload, args, work_root: Path) -> tuple[dict, dict]:
    """One run: the result object the command prints last, and the host shape."""
    # Inputs and schedule come from two independent streams of the seed, so
    # the payloads do not change when the arrival pattern does.
    inputs = random.Random(f"{args.seed}/inputs")
    schedule = random.Random(f"{args.seed}/schedule")
    setups, cluster = [], None
    for attempt in range(SETUPS):
        data_root = work_root / f"setup{attempt}" if workload.durable else None
        cluster, timings = await start_cluster(
            workload.keys, workload.one_way_delay_s, data_root, inputs
        )
        setups.append(timings)
        if attempt < SETUPS - 1:
            await cluster.stop()
    try:
        if args.trace:
            half = args.seconds / 2
            untraced = await drive(cluster, workload, half, inputs, schedule, 0)
            tracer = Tracer()
            tracer.install(cluster)
            try:
                traced = await drive(cluster, workload, half, inputs, schedule,
                                     untraced.attempted)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
        else:
            phases = [await drive(cluster, workload, args.seconds, inputs,
                                  schedule, 0)]
        coalesced = cluster.coalesced()
        # A result-cache hit or in-flight join is not a protocol run: such a
        # run is wrong as a whole, and its outputs need no further checks.
        failures = (
            {id(o): "coalesced" for phase in phases for o in phase.outcomes}
            if coalesced else check_outputs(cluster, phases)
        )
    finally:
        await cluster.stop()
    measured = phases[-1]
    if args.trace:
        metrics = per_layer(measured, phases[0], failures, tracer, setups)
        spans_file = tracer.write(
            work_root.parent / "spans" / f"{workload.name}-seed{args.seed}.jsonl"
        )
        print(f"spans written to {spans_file}", file=sys.stderr)
    else:
        metrics = end_to_end(
            measured, failures, statistics.median(s["setup_s"] for s in setups)
        )
    attempted = sum(p.attempted for p in phases)
    failed = attempted - sum(len(p.ok(failures)) for p in phases)
    for reason in sorted(set(failures.values()))[:5]:
        print(f"failed request: {reason}", file=sys.stderr)
    if coalesced:
        print(f"{coalesced:.0f} requests were coalesced; every payload must "
              "run the protocol", file=sys.stderr)
    host = host_shape(workload, args, measured)
    host["error_rate"] = failed / max(attempted, 1)
    host["requests_completed"] = len(measured.ok(failures))
    result = {
        "correct": failed == 0 and coalesced == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, host
