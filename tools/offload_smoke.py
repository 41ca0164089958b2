#!/usr/bin/env python3
"""Worker-pool offload smoke gate (``make offload-smoke``).

The docs/performance.md contract, exercised end to end on real daemon
processes:

* deal keys for a 4-node (t = 1) TCP cluster and start each daemon with
  ``--crypto-workers 2`` — on a multi-core host every node owns a
  2-process crypto pool that takes every offloadable op;
* finalize one SG02 encrypt→decrypt round trip and one BLS04 signature
  cluster-wide (both schemes offload share creation *and* batched share
  verification);
* on a multi-core host (``cpu_count >= 2``), assert via ``node_stats``
  that every node's pool ran tasks without inline fallbacks, and via the
  Prometheus scrape that ``repro_crypto_pool_tasks_total{outcome="ok"}``
  counted them; on a 1-core host, assert the opposite — the node built
  no pool and kept every op inline (``node_stats`` reports the pool
  disabled with reason ``few_cores``, zero pool tasks scraped, no workers
  spawned);
* either way, the ``repro_event_loop_lag_seconds`` heartbeat must be live;
* SIGTERM the daemons and assert none of the previously reported worker
  pids survives teardown — a daemon must not orphan its pool processes.

Exit status 0 on success; prints the offending assertion otherwise.
"""

from __future__ import annotations

import asyncio
import os
import sys
import tempfile
from pathlib import Path

if __package__ is None and __name__ == "__main__":  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service.client import ThetacryptClient  # noqa: E402
from repro.telemetry import parse_text, sample_sum  # noqa: E402
from repro.testing import DaemonCluster, live_pids  # noqa: E402

PARTIES, THRESHOLD = 4, 1
# Distinct from metrics-smoke/chaos-smoke/recovery-smoke port ranges so the
# gates can run back to back (TIME_WAIT) or even concurrently.
BASE_PORT, RPC_BASE_PORT = 22100, 22200
CRYPTO_WORKERS = 2


async def drive(client: ThetacryptClient) -> list[int]:
    """Run pooled requests, check stats + scrape; return all worker pids."""
    print(f"  {PARTIES} daemons up with --crypto-workers {CRYPTO_WORKERS}")

    # SG02: threshold decryption (share creation + batched verification in
    # the pool on every node).
    plaintext = b"offload smoke plaintext"
    ciphertext = await client.encrypt("sg02", plaintext, b"smoke")
    decrypted = await client.decrypt("sg02", ciphertext, b"smoke")
    assert decrypted == plaintext, "sg02 round trip failed"
    print("  sg02 encrypt -> threshold decrypt OK")

    # BLS04: threshold signature (pairing work in the pool).
    message = b"offload smoke message"
    signature = await client.sign("bls04", message)
    assert await client.verify_signature("bls04", message, signature)
    print("  bls04 threshold signature OK")

    cores = os.cpu_count() or 1
    worker_pids: list[int] = []
    for node_id in range(1, PARTIES + 1):
        stats = await client.node_stats(node_id)
        pool = stats.get("crypto_pool", {})
        assert pool.get("fallbacks", 0) == 0, (
            f"node {node_id}: pooled crypto fell back inline: {pool}"
        )
        pids = pool.get("worker_pids", [])
        parsed = parse_text(await client.metrics(node_id))
        pool_ok = sample_sum(parsed, "repro_crypto_pool_tasks_total", outcome="ok")
        if cores >= 2:
            # Multi-core host: the node's own pool takes every op.
            assert pool.get("enabled") and pool.get("reason") == "configured", (
                f"node {node_id}: pool not enabled: {pool}"
            )
            assert pool.get("tasks_ok", 0) >= 1, (
                f"node {node_id}: pool ran no tasks: {pool}"
            )
            assert len(pids) >= 1, f"node {node_id}: no worker pids: {pool}"
            assert pool_ok >= 1, (
                f"node {node_id}: repro_crypto_pool_tasks_total ok={pool_ok}"
            )
        else:
            # 1-core host: the node must build no pool and keep every op
            # inline — no pool tasks, no worker processes, and the reason
            # reported in node_stats.
            assert not pool.get("enabled") and pool.get("reason") == "few_cores", (
                f"node {node_id}: pool built on a 1-core host: {pool}"
            )
            assert pool.get("tasks_ok", 0) == 0, (
                f"node {node_id}: pool ran tasks on a 1-core host: {pool}"
            )
            assert not pids, (
                f"node {node_id}: pool spawned workers on a 1-core host: {pids}"
            )
            assert pool_ok == 0, (
                f"node {node_id}: repro_crypto_pool_tasks_total ok={pool_ok}"
            )
        worker_pids.extend(pids)
        lag_samples = sample_sum(parsed, "repro_event_loop_lag_seconds_count")
        assert lag_samples >= 1, f"node {node_id}: loop-lag heartbeat silent"
    print(
        f"  pool stats + scrape OK on all nodes "
        f"({cores} cores, {len(worker_pids)} workers)"
    )
    dead = set(worker_pids) - set(live_pids(worker_pids))
    assert not dead, f"reported worker pids not alive: {sorted(dead)}"
    return worker_pids


async def main() -> None:
    with tempfile.TemporaryDirectory(prefix="offload-smoke-") as tmp:
        print(f"dealing keys for a ({THRESHOLD}, {PARTIES}) network ...")
        async with DaemonCluster(
            tmp,
            ["sg02", "bls04"],
            PARTIES,
            THRESHOLD,
            base_port=BASE_PORT,
            rpc_base_port=RPC_BASE_PORT,
            daemon_args=["--crypto-workers", str(CRYPTO_WORKERS)],
        ) as cluster:
            worker_pids = await drive(cluster.client())

        # The orphan check: a SIGTERM'd daemon must take its pool down
        # with it.
        leaked = live_pids(worker_pids, grace=10.0)
        assert not leaked, f"worker processes survived daemon shutdown: {leaked}"
        print(f"  all {len(worker_pids)} worker processes gone after SIGTERM")
    print("offload smoke OK")

if __name__ == "__main__":
    asyncio.run(main())
