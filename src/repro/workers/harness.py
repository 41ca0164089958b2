"""Workers-on/off ablation harness: a real cluster, not the simulator.

Boots an n-node Thetacrypt cluster on a :class:`LocalHub` transport inside
one process — the configuration where inline crypto hurts most, because
all n nodes contend for a single event loop, exactly like n instances
contending for one node's loop under heavy traffic.  ``workers > 0``
attaches one shared :class:`CryptoPool` to every node (the in-process
nodes share this host's cores, so sharing the pool models one node with
that many cores), built by the same core-count rule a node applies to
its own pool (:func:`~repro.workers.pool.host_pool`): a 1-core host runs
the workers-on configuration inline.

Used by ``benchmarks/bench_fig4_capacity.py`` (the ablation panel) and
``tools/bench_smoke.py`` (the persisted ``BENCH_offload.json`` baseline).
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass, field

from ..network.local import LocalHub
from ..schemes import generate_keys
from ..schemes.base import get_scheme
from ..service.config import make_local_configs
from ..service.node import ThetacryptNode
from ..telemetry import summarize
from .pool import host_pool


@dataclass
class AblationResult:
    """One (scheme, deployment, workers) measurement."""

    scheme: str
    parties: int
    threshold: int
    workers: int
    requests: int
    duration: float
    ops_per_sec: float
    latency_p50: float
    latency_p99: float
    loop_lag_p99: float
    pool: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = asdict(self)
        # Worker pids are process-local trivia, useless in a persisted
        # baseline and different on every run.
        payload["pool"].pop("worker_pids", None)
        return payload


def _build_requests(
    scheme: str, material, count: int, tag: str
) -> list[tuple[str, bytes, bytes]]:
    """(kind, data, label) per request, encryption done up-front so the
    measured window times the threshold protocol only."""
    requests = []
    for i in range(count):
        blob = f"offload-{tag}-{i}".encode()
        if scheme in ("sg02", "bz03"):
            ciphertext = get_scheme(scheme).encrypt(
                material.public_key, blob, b"bench"
            )
            requests.append(("decrypt", ciphertext.to_bytes(), b""))
        elif scheme == "cks05":
            requests.append(("coin", blob, b""))
        else:
            requests.append(("sign", blob, b""))
    return requests


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (
        position - low
    )


async def run_capacity(
    scheme: str = "bls04",
    parties: int = 16,
    threshold: int = 3,
    requests: int = 6,
    workers: int = 0,
    material=None,
    instance_timeout: float = 300.0,
) -> AblationResult:
    """Drive ``requests`` concurrent cluster-wide operations and measure.

    Pass the same ``material`` to the workers-on and workers-off runs so
    the ablation compares execution, not key generation randomness.
    """
    if material is None:
        material = generate_keys(scheme, threshold, parties)
    configs = make_local_configs(
        parties,
        threshold,
        transport="local",
        rpc_base_port=0,
        instance_timeout=instance_timeout,
    )
    hub = LocalHub()
    pool, pool_reason = host_pool(workers)
    nodes = [
        ThetacryptNode(
            config, transport=hub.endpoint(config.node_id), crypto_pool=pool
        )
        for config in configs
    ]
    for node in nodes:
        node.install_key(
            scheme,
            scheme,
            material.public_key,
            material.share_for(node.config.node_id),
        )
    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    try:
        for node in nodes:
            await node.start()

        async def run_one(kind: str, data: bytes, label: bytes) -> None:
            started = loop.time()
            await asyncio.gather(
                *(node.run_request(kind, scheme, data, label) for node in nodes)
            )
            latencies.append(loop.time() - started)

        # Warm-up request: spawns + warms pool workers, promotes the
        # parent-side precompute caches; excluded from the measurement.
        for kind, data, label in _build_requests(scheme, material, 1, "warmup"):
            await run_one(kind, data, label)
        latencies.clear()

        batch = _build_requests(scheme, material, requests, "bench")
        started = loop.time()
        await asyncio.gather(
            *(run_one(kind, data, label) for kind, data, label in batch)
        )
        duration = loop.time() - started
        # All in-process nodes share one event loop, so any node's
        # heartbeat histogram describes the loop they all live on.
        lag = summarize(nodes[0].registry.get("repro_event_loop_lag_seconds"))
        pool_stats = (
            pool.stats() if pool is not None else {"enabled": False, "workers": 0}
        )
        pool_stats["reason"] = pool_reason
    finally:
        for node in nodes:
            await node.stop()
        if pool is not None:
            await pool.close()
    latencies.sort()
    return AblationResult(
        scheme=scheme,
        parties=parties,
        threshold=threshold,
        workers=workers,
        requests=requests,
        duration=duration,
        ops_per_sec=requests / duration if duration > 0 else 0.0,
        latency_p50=_quantile(latencies, 0.5),
        latency_p99=_quantile(latencies, 0.99),
        loop_lag_p99=float(lag.get("p99", 0.0)),
        pool=pool_stats,
    )


async def run_ablation(
    scheme: str = "bls04",
    parties: int = 16,
    threshold: int = 3,
    requests: int = 6,
    workers: int = 2,
) -> tuple[AblationResult, AblationResult]:
    """(workers-off, workers-on) pair over identical key material."""
    offs, ons = await run_ablation_series(
        scheme, parties, threshold, requests, workers=workers
    )
    return offs[0], ons[0]


async def run_ablation_series(
    scheme: str = "bls04",
    parties: int = 16,
    threshold: int = 3,
    requests: int = 6,
    workers: int = 2,
    repeats: int = 1,
) -> tuple[list[AblationResult], list[AblationResult]]:
    """``repeats`` interleaved (off, on) pairs over identical key material.

    Interleaving matters when the comparison is an *equivalence* gate
    (1-core hosts: workers-on builds no pool and must match workers-off
    within noise): single runs drift a few percent over a process's
    lifetime — allocator growth, cache pressure, CPU contention — so an
    off-then-on pair systematically penalizes whichever run goes second.  Alternating
    the two configurations and comparing means cancels that drift.
    """
    material = generate_keys(scheme, threshold, parties)
    offs: list[AblationResult] = []
    ons: list[AblationResult] = []
    for _ in range(max(1, repeats)):
        offs.append(
            await run_capacity(
                scheme, parties, threshold, requests, workers=0, material=material
            )
        )
        ons.append(
            await run_capacity(
                scheme,
                parties,
                threshold,
                requests,
                workers=workers,
                material=material,
            )
        )
    return offs, ons
