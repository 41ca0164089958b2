"""Federation scale-out: aggregate throughput of sharded groups.

The router tier's capacity claim (docs/federation.md): G independent
threshold groups behind stateless routers should deliver close to G× the
aggregate ops/s of a single group, because groups share no transport, no
instance state, and — with crypto worker pools — no interpreter lock.

This bench drives identical per-shard workloads (SG02 threshold
decryptions of pre-dealt ciphertexts, every request a distinct instance)
through a router against a 1-group and a 3-group federation and compares
aggregate throughput.  Results, including the per-shard breakdown from
the router's ``repro_router_requests_total`` counter, persist to
``BENCH_federation.json`` at the repo root.

Like the fig4 offload ablation, the speedup gate is host-gated: the
≥2.2× assertion needs at least 4 cores (one per group's workers plus the
event loop); on smaller hosts the run is informational and only the
JSON is produced.  ``REPRO_FAST=1`` shrinks the request count.
"""

from __future__ import annotations

import asyncio
import json
import platform
import time
from pathlib import Path

import pytest

from repro.router.federation import FederatedCluster
from repro.schemes import generate_keys

from _common import fast_mode, host_cores, print_table, requires_cores

OUT = Path(__file__).resolve().parent.parent / "BENCH_federation.json"

#: Per-group shape: a 2-of-2 group keeps the in-process node count low
#: (the bench runs up to 3 groups × 2 nodes on one event loop).
PARTIES, THRESHOLD = 2, 1

#: Keep a bounded trajectory of prior runs in the JSON, like BENCH_offload.
HISTORY_LIMIT = 20


async def _run_shape(
    group_ids: tuple[str, ...],
    material,
    requests_per_group: int,
    concurrency: int,
    workers: int,
) -> dict:
    """One federation shape: returns aggregate ops/s + per-shard stats."""
    key_ids = {gid: f"{gid}/sg02" for gid in group_ids}
    cluster = FederatedCluster(
        group_ids=group_ids,
        parties=PARTIES,
        threshold=THRESHOLD,
        routers=1,
        assignments={key_id: gid for gid, key_id in key_ids.items()},
        crypto_workers=workers,
    )
    await cluster.start({key_id: material for key_id in key_ids.values()})
    client = cluster.client(max_retries=5)
    try:
        # Deal the work up front (encryption is local and untimed): every
        # ciphertext is distinct, so every decrypt is a fresh instance.
        ciphertexts = {
            gid: [
                await client.encrypt(
                    key_ids[gid], f"{gid}-{i}".encode(), b"bench"
                )
                for i in range(requests_per_group)
            ]
            for gid in group_ids
        }
        semaphores = {gid: asyncio.Semaphore(concurrency) for gid in group_ids}

        async def decrypt(gid: str, index: int) -> None:
            async with semaphores[gid]:
                plaintext = await client.decrypt(
                    key_ids[gid], ciphertexts[gid][index], b"bench"
                )
                assert plaintext == f"{gid}-{index}".encode()

        started = time.perf_counter()
        await asyncio.gather(
            *(
                decrypt(gid, i)
                for gid in group_ids
                for i in range(requests_per_group)
            )
        )
        duration = time.perf_counter() - started
        total = requests_per_group * len(group_ids)
        router = cluster.routers[0].router
        shards = router.stats()["shards"]
        # Per-method per-shard counts (the untimed encrypts go through the
        # router too; the gate below wants the decrypts alone).
        by_method: dict[str, dict[str, float]] = {}
        family = router.registry.get("repro_router_requests_total")
        for child in family.children() if family is not None else ():
            labels = dict(child.label_items)
            shard = by_method.setdefault(labels["group"], {})
            shard[labels["method"]] = (
                shard.get(labels["method"], 0) + child.value
            )
        return {
            "groups": list(group_ids),
            "parties": PARTIES,
            "threshold": THRESHOLD,
            "crypto_workers": workers,
            "requests_per_group": requests_per_group,
            "concurrency_per_group": concurrency,
            "total_requests": total,
            "duration": duration,
            "ops_per_sec": total / duration if duration else 0.0,
            "shards": shards,
            "shard_methods": by_method,
        }
    finally:
        await client.close()
        await cluster.stop()


def _load_history() -> list[dict]:
    if not OUT.exists():
        return []
    try:
        prior = json.loads(OUT.read_text())
    except (OSError, ValueError):
        return []
    history = list(prior.get("history", []))
    if "speedup" in prior:
        history.append(
            {
                "timestamp": prior.get("timestamp"),
                "host": prior.get("host"),
                "single_ops_per_sec": prior.get("single", {}).get("ops_per_sec"),
                "federated_ops_per_sec": prior.get("federated", {}).get(
                    "ops_per_sec"
                ),
                "speedup": prior.get("speedup"),
            }
        )
    return history[-HISTORY_LIMIT:]


def test_federation_scaling(benchmark):
    """3-group aggregate vs 1-group baseline through a router."""
    requests = 2 if fast_mode() else 6
    concurrency = 2 if fast_mode() else 4
    cores = host_cores()
    # Worker pools only help with spare cores; on small hosts they cost
    # throughput, so the bench (like a real deployment) keeps crypto
    # inline there and records an unscaled, GIL-bound comparison.
    workers = 1 if cores >= 4 else 0
    material = generate_keys("sg02", THRESHOLD, PARTIES)
    results = {}

    def run():
        async def both():
            single = await _run_shape(
                ("solo",), material, requests, concurrency, workers
            )
            federated = await _run_shape(
                ("alpha", "beta", "gamma"),
                material,
                requests,
                concurrency,
                workers,
            )
            return single, federated

        results["single"], results["federated"] = asyncio.run(both())

    benchmark.pedantic(run, rounds=1, iterations=1)
    single, federated = results["single"], results["federated"]
    speedup = (
        federated["ops_per_sec"] / single["ops_per_sec"]
        if single["ops_per_sec"]
        else 0.0
    )

    rows = [
        [
            "+".join(shape["groups"]),
            f"{shape['total_requests']}",
            f"{shape['duration']:.2f}",
            f"{shape['ops_per_sec']:.2f}",
            " ".join(
                f"{gid}:{int(stats['requests'].get('ok', 0))}"
                for gid, stats in shape["shards"].items()
            ),
        ]
        for shape in (single, federated)
    ]
    print_table(
        f"Federation scale-out: sg02 decrypt, {PARTIES}-node groups, "
        f"{cores} cores, crypto_workers={workers} (speedup {speedup:.2f}x)",
        ["groups", "requests", "duration (s)", "ops/s", "per-shard ok"],
        rows,
    )

    payload = {
        "benchmark": "federation_scaling",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "cores": cores,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "fast_mode": fast_mode(),
        },
        "single": single,
        "federated": federated,
        "speedup": speedup,
        "history": _load_history(),
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT}")

    # Correctness on every host: the router spread the load exactly as
    # dealt — each shard decrypted only its own keyspace.
    for gid, methods in federated["shard_methods"].items():
        assert methods.get("decrypt", 0) == requests, (
            f"shard {gid} served {methods} of {requests} decrypts"
        )
    assert "error" not in {
        outcome
        for stats in federated["shards"].values()
        for outcome in stats["requests"]
    }

    # The scale-out claim needs real parallelism: one core per group's
    # crypto worker plus the shared event loop.
    if requires_cores(4):
        assert speedup >= 2.2, (
            f"3-group federation {federated['ops_per_sec']:.2f} ops/s is only "
            f"{speedup:.2f}x the single group's "
            f"{single['ops_per_sec']:.2f} ops/s on a {cores}-core host"
        )
