"""Pre-bound instrument bundles for the three layers of the stack.

Naming follows the Prometheus conventions (``repro_`` namespace, ``_total``
for counters, base-unit ``_seconds``/``_bytes`` suffixes).  Two scopes:

* **Process scope** (the default registry): network transports — which may
  be constructed outside any node, e.g. a :class:`LocalHub` endpoint — and
  the process-wide crypto caches.  These carry a ``node`` label so several
  in-process nodes stay distinguishable.
* **Node scope** (a per-node registry): RPC and core/TRI metrics, created
  unlabeled-by-node because the registry itself is the node boundary — a
  Prometheus server scraping each node separately sees exactly its own
  numbers, as in the paper's per-node co-located setup.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import contextmanager

from .registry import MetricRegistry, default_registry

# Buckets for network send operations: these are queue/syscall latencies,
# far below protocol latencies, so the ladder starts at 10 µs.
NETWORK_SEND_BUCKETS: tuple[float, ...] = tuple(1e-05 * (2**i) for i in range(16))

# Buckets for event-loop scheduling lag: a healthy loop sits under 1 ms,
# an inline pairing product pushes it into the 100 ms+ decades.
LOOP_LAG_BUCKETS: tuple[float, ...] = tuple(1e-04 * (2**i) for i in range(16))


class ChannelMetrics:
    """Messages/bytes sent+received and send latency for one transport.

    Instantiated by every transport (`tcp`, `local`, `gossip`, `tob`, and
    the manager's logical `p2p` dispatch channel) against the process-global
    registry.
    """

    def __init__(
        self, node_id: int, channel: str, registry: MetricRegistry | None = None
    ):
        registry = registry if registry is not None else default_registry()
        labels = ("node", "channel", "direction")
        self._messages = registry.counter(
            "repro_network_messages_total",
            "Protocol frames sent/received per transport channel.",
            labels,
        )
        self._bytes = registry.counter(
            "repro_network_bytes_total",
            "Payload bytes sent/received per transport channel.",
            labels,
        )
        self._send_seconds = registry.histogram(
            "repro_network_send_seconds",
            "Latency of one send operation per transport channel.",
            ("node", "channel"),
            buckets=NETWORK_SEND_BUCKETS,
        )
        node = str(node_id)
        self._sent_messages = self._messages.labels(node, channel, "sent")
        self._sent_bytes = self._bytes.labels(node, channel, "sent")
        self._recv_messages = self._messages.labels(node, channel, "received")
        self._recv_bytes = self._bytes.labels(node, channel, "received")
        self._send_latency = self._send_seconds.labels(node, channel)

    def sent(self, nbytes: int, messages: int = 1) -> None:
        self._sent_messages.inc(messages)
        self._sent_bytes.inc(nbytes)

    def received(self, nbytes: int, messages: int = 1) -> None:
        self._recv_messages.inc(messages)
        self._recv_bytes.inc(nbytes)

    @contextmanager
    def time_send(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self._send_latency.observe(time.perf_counter() - started)


class RpcMetrics:
    """Service-layer instruments (held by :class:`RpcServer`)."""

    def __init__(self, registry: MetricRegistry):
        self.requests = registry.counter(
            "repro_rpc_requests_total",
            "RPC requests by method and outcome (ok/error/internal).",
            ("method", "outcome"),
        )
        self.latency = registry.histogram(
            "repro_rpc_latency_seconds",
            "Server-side RPC handling latency by method.",
            ("method",),
        )
        self.inflight = registry.gauge(
            "repro_rpc_inflight",
            "RPC requests currently being handled.",
        )
        self.connections = registry.counter(
            "repro_rpc_connections_total",
            "RPC client connections accepted.",
        )


class CoreMetrics:
    """Core-layer instruments (held by :class:`InstanceManager` and shared
    with every :class:`ProtocolExecutor` it launches)."""

    def __init__(self, registry: MetricRegistry):
        self.round_seconds = registry.histogram(
            "repro_tri_round_seconds",
            "Duration of one TRI round (local compute + waiting for the "
            "quorum of shares), by scheme and round index.",
            ("scheme", "round"),
        )
        self.messages = registry.counter(
            "repro_tri_messages_total",
            "Protocol messages delivered to executors: accepted shares vs "
            "rejected (invalid proof/share) ones.",
            ("scheme", "outcome"),
        )
        self.instances = registry.counter(
            "repro_instances_total",
            "Protocol instances terminated, by scheme and final status.",
            ("scheme", "status"),
        )
        self.instance_seconds = registry.histogram(
            "repro_instance_seconds",
            "Server-side instance latency (creation to finalization), by "
            "scheme; backs the stats() latency summary.",
            ("scheme",),
        )
        self.inflight = registry.gauge(
            "repro_instances_inflight",
            "Protocol instances currently created or running.",
        )
        self.backlog_buffered = registry.counter(
            "repro_backlog_buffered_total",
            "Early protocol messages buffered before instance creation.",
        )
        self.backlog_dropped = registry.counter(
            "repro_backlog_dropped_total",
            "Early protocol messages dropped on backlog overflow.",
        )
        self.aborts = registry.counter(
            "repro_instance_aborts_total",
            "Failed protocol instances by scheme and structured abort "
            "reason (timeout / insufficient_shares / byzantine_detected / "
            "aborted / internal).",
            ("scheme", "reason"),
        )
        self.rebroadcasts = registry.counter(
            "repro_round_rebroadcasts_total",
            "Watchdog re-broadcasts of this node's current-round messages "
            "for instances that stalled short of the timeout.",
            ("scheme",),
        )
        self.rejected = registry.counter(
            "repro_instance_rejected_total",
            "Submissions rejected before an executor was created, by "
            "structured reason (overloaded = pending-instance backlog full).",
            ("reason",),
        )
        self.coalesced_requests = registry.counter(
            "repro_requests_coalesced_total",
            "Duplicate-payload requests served without creating a new "
            "instance: joined one already in flight (inflight) or answered "
            "from the idempotent result cache (result_cache).",
            ("source",),
        )


class StorageMetrics:
    """Durability/recovery instruments (held by :class:`ThetacryptNode`
    when ``NodeConfig.data_dir`` is set; see docs/robustness.md)."""

    def __init__(self, registry: MetricRegistry):
        self.recoveries = registry.counter(
            "repro_recovery_runs_total",
            "Recovery passes executed at node start (one per boot of a "
            "node with a data_dir).",
        )
        self.recovered_keys = registry.gauge(
            "repro_recovery_keys",
            "Key shares reloaded from the durable keystore during the most "
            "recent recovery pass.",
        )
        self.recovered_instances = registry.counter(
            "repro_recovery_instances_total",
            "Instances restored during recovery, by outcome: finalized "
            "(served from the durable result cache) or aborted (in-flight "
            "at crash time, marked crash_recovery).",
            ("outcome",),
        )


class CryptoPoolMetrics:
    """Worker-pool instruments (held by :class:`repro.workers.CryptoPool`).

    ``outcome`` taxonomy of ``repro_crypto_pool_tasks_total``: ``ok`` (ran
    in a worker), ``error`` (ran in a worker and failed cryptographically,
    mirroring the inline failure), ``fallback`` (infrastructure failure —
    crash/pickling/disabled — so the caller re-ran the work inline),
    ``spilled`` (the pool's backlog was full, so the caller ran it inline
    without submitting).
    """

    def __init__(self, registry: MetricRegistry):
        self.tasks = registry.counter(
            "repro_crypto_pool_tasks_total",
            "Crypto-pool tasks by operation and outcome "
            "(ok / error / fallback / spilled).",
            ("op", "outcome"),
        )
        self.queue_depth = registry.gauge(
            "repro_crypto_pool_queue_depth",
            "Crypto-pool tasks submitted and not yet completed.",
        )
        self.task_seconds = registry.histogram(
            "repro_crypto_pool_task_seconds",
            "Wall-clock latency of one crypto-pool task (submit to "
            "result, queueing included), by operation.",
            ("op",),
        )
        self.workers = registry.gauge(
            "repro_crypto_pool_workers",
            "Configured worker processes of the live executor (0 when "
            "the pool is idle, disabled, or closed).",
        )
        self.blob_cache = registry.counter(
            "repro_crypto_pool_blob_cache_total",
            "Content-addressed key-blob cache events: retry = a task was "
            "re-run once with blobs attached after a worker-side miss.",
            ("event",),
        )


class PrecomputeMetrics:
    """Precompute-pipeline instruments (held by
    :class:`repro.core.orchestration.precompute.PrecomputeService`).

    ``source`` taxonomy of ``repro_precompute_served_total``: ``pool`` (the
    request consumed staged material — a pooled share or an eagerly
    pipelined instance), ``inline`` (nothing staged; the on-demand path
    ran).  ``outcome`` taxonomy of ``repro_precompute_refills_total``:
    ``ok`` / ``error`` / ``deferred`` (announce beyond the pool depth).
    """

    def __init__(self, registry: MetricRegistry):
        self.depth = registry.gauge(
            "repro_precompute_pool_depth",
            "Staged-but-unconsumed precompute entries per key and "
            "operation (kg20 nonce sets report op=\"kg20-nonce\").",
            ("key", "op"),
        )
        self.served = registry.counter(
            "repro_precompute_served_total",
            "Client requests by operation and serving source "
            "(pool / inline).",
            ("op", "source"),
        )
        self.refill_seconds = registry.histogram(
            "repro_precompute_refill_seconds",
            "Latency of one background refill (announce to staged), by "
            "operation.",
            ("op",),
        )
        self.refills = registry.counter(
            "repro_precompute_refills_total",
            "Background refill jobs by operation and outcome "
            "(ok / error / deferred).",
            ("op", "outcome"),
        )


class RouterMetrics:
    """Front-end router instruments (held by :class:`repro.router.core.Router`).

    One registry per router instance, mirroring the per-node registries:
    a Prometheus server scraping each router sees exactly its own
    traffic.  ``repro_router_requests_total`` is the scrapeable per-shard
    throughput breakdown — its per-``group`` rate is each shard's served
    request rate through this router.
    """

    def __init__(self, registry: MetricRegistry):
        self.requests = registry.counter(
            "repro_router_requests_total",
            "Requests forwarded to a threshold group, by owning group, "
            "method and outcome (ok / error / unroutable).",
            ("group", "method", "outcome"),
        )
        self.upstream_seconds = registry.histogram(
            "repro_router_upstream_seconds",
            "Upstream latency of one routed request (fan-out to the "
            "first group answer, redirects included), by group.",
            ("group",),
        )
        self.inflight = registry.gauge(
            "repro_router_inflight",
            "Routed requests currently in flight, by owning group.",
            ("group",),
        )
        self.redirects = registry.counter(
            "repro_router_redirects_total",
            "wrong_group redirects followed to the owning group named in "
            "the error payload, by who followed them (router / client).",
            ("source",),
        )


def client_redirects_counter():
    """The topology-aware client's share of ``repro_router_redirects_total``.

    Lives in the default registry (clients have no registry of their
    own), labeled ``source="client"`` so router- and client-side
    redirect-following stay distinguishable in one exposition.
    """
    return default_registry().counter(
        "repro_router_redirects_total",
        "wrong_group redirects followed to the owning group named in "
        "the error payload, by who followed them (router / client).",
        ("source",),
    ).labels("client")


class EventLoopLagSampler:
    """Heartbeat measuring asyncio scheduling delay.

    Sleeps ``interval`` seconds in a loop and records how much *later*
    than requested each wake-up lands in the
    ``repro_event_loop_lag_seconds`` histogram.  That lag is exactly the
    time the loop spent blocked in inline computation — the direct
    before/after metric for moving crypto onto the worker pool.
    """

    def __init__(self, registry: MetricRegistry, interval: float = 0.05):
        self._interval = interval
        self.histogram = registry.histogram(
            "repro_event_loop_lag_seconds",
            "Scheduling delay of a periodic heartbeat: how long past its "
            "deadline the event loop got around to running it.",
            buckets=LOOP_LAG_BUCKETS,
        )
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            deadline = loop.time() + self._interval
            await asyncio.sleep(self._interval)
            self.histogram.observe(max(0.0, loop.time() - deadline))


def crypto_cache_snapshot() -> dict:
    """Live counters of the process-wide crypto caches (one source of truth
    for ``stats()``, the registry collector, and the benchmark suites)."""
    from ..groups.precompute import precompute_stats
    from ..mathutils.lagrange import lagrange_cache_stats

    return {"fixed_base": precompute_stats(), "lagrange": lagrange_cache_stats()}


def register_crypto_cache_collector(
    registry: MetricRegistry | None = None,
) -> None:
    """Expose the PR-1 crypto-cache counters as registry gauges.

    Pull-style: the gauges are refreshed from the caches at collect time,
    so the caches themselves stay instrumentation-free. Idempotent per
    registry (keyed on the family's presence).
    """
    registry = registry if registry is not None else default_registry()
    if registry.get("repro_crypto_cache") is not None:
        return
    family = registry.gauge(
        "repro_crypto_cache",
        "Precompute-cache counters (fixed-base tables, Lagrange "
        "coefficients) mirrored from the live caches at scrape time.",
        ("cache", "stat"),
    )

    def collect() -> None:
        for cache_name, stats in crypto_cache_snapshot().items():
            for stat, value in stats.items():
                family.labels(cache_name, stat).set(value)

    registry.register_collector(collect)


#: Fixed-base table-lifecycle gauge names, in ``precompute_stats()`` order.
_FIXEDBASE_GAUGES = (
    ("repro_fixedbase_tables_built_total", "tables_built",
     "Fixed-base tables built from scratch in this process."),
    ("repro_fixedbase_tables_hits_total", "hits",
     "Fixed-base cache hits: exponentiations answered from a table."),
    ("repro_fixedbase_tables_promotions_total", "promotions",
     "Bases promoted to a table after recurring past the threshold."),
    ("repro_fixedbase_tables_loaded_total", "loads",
     "Fixed-base tables installed pre-built (disk persistence or "
     "worker warm-start) instead of being rebuilt."),
)


def register_fixedbase_collector(registry: MetricRegistry | None = None) -> None:
    """Expose the fixed-base table lifecycle as dedicated scrape series.

    The aggregate ``repro_crypto_cache`` family already mirrors these
    counters as labels; these flat series exist so dashboards and the
    restart smoke test can assert on them directly (a warm restart shows
    ``loaded`` rising while ``built`` stays flat).  Pull-style and
    idempotent per registry, like the cache collector.
    """
    registry = registry if registry is not None else default_registry()
    if registry.get(_FIXEDBASE_GAUGES[0][0]) is not None:
        return
    gauges = [
        (registry.gauge(name, help_text), stat)
        for name, stat, help_text in _FIXEDBASE_GAUGES
    ]

    def collect() -> None:
        from ..groups.precompute import precompute_stats

        stats = precompute_stats()
        for gauge, stat in gauges:
            gauge.set(stats[stat])

    registry.register_collector(collect)


def register_math_backend_collector(
    registry: MetricRegistry | None = None,
) -> None:
    """Expose the active math backend as an info-style metric.

    ``repro_math_backend_info{backend=...} 1`` — the label identifies
    which primitive substrate this process computes with
    (docs/performance.md, "Math backends"); refreshed at collect time so
    a temporary ``use_backend`` switch shows up on the next scrape.
    """
    registry = registry if registry is not None else default_registry()
    if registry.get("repro_math_backend_info") is not None:
        return
    family = registry.gauge(
        "repro_math_backend_info",
        "Active math backend (constant 1; identity is in the labels).",
        ("backend",),
    )

    seen: set[str] = set()

    def collect() -> None:
        from ..mathutils.backends import backend_info

        current = backend_info()["name"]
        seen.add(current)
        for name in seen:  # zero stale series after a mid-run switch
            family.labels(name).set(1 if name == current else 0)

    registry.register_collector(collect)
