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
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if __package__ is None and __name__ == "__main__":  # pragma: no cover
    sys.path.insert(0, str(REPO / "src"))

from repro.errors import RpcError  # noqa: E402
from repro.service.client import ThetacryptClient  # noqa: E402
from repro.telemetry import parse_text  # noqa: E402

PARTIES, THRESHOLD = 4, 1
# Distinct from metrics-smoke/chaos-smoke/recovery-smoke port ranges so the
# gates can run back to back (TIME_WAIT) or even concurrently.
BASE_PORT, RPC_BASE_PORT = 22100, 22200
CRYPTO_WORKERS = 2

#: Environment for child processes: the daemons import ``repro`` from src.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=str(REPO / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""),
)


def spawn_daemon(out: Path, node_id: int) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service.daemon",
            "--config", str(out / f"node{node_id}" / "config.json"),
            "--keystore", str(out / f"node{node_id}" / "keystore.json"),
            "--crypto-workers", str(CRYPTO_WORKERS),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=CHILD_ENV,
    )


async def wait_for_ping(client: ThetacryptClient, node_id: int) -> None:
    for _ in range(150):
        try:
            await client.call(node_id, "ping", {})
            return
        except (OSError, RpcError):
            await asyncio.sleep(0.2)
    raise AssertionError(f"daemon {node_id} never answered ping")


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, owned elsewhere
        return True
    return True


async def drive(client: ThetacryptClient) -> list[int]:
    """Run pooled requests, check stats + scrape; return all worker pids."""
    for node_id in range(1, PARTIES + 1):
        await wait_for_ping(client, node_id)
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
        pool_ok = sum(
            value
            for (name, labels), value in parsed.items()
            if name == "repro_crypto_pool_tasks_total"
            and dict(labels).get("outcome") == "ok"
        )
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
        lag_samples = sum(
            value
            for (name, _), value in parsed.items()
            if name == "repro_event_loop_lag_seconds_count"
        )
        assert lag_samples >= 1, f"node {node_id}: loop-lag heartbeat silent"
    print(
        f"  pool stats + scrape OK on all nodes "
        f"({cores} cores, {len(worker_pids)} workers)"
    )
    for pid in worker_pids:
        assert pid_alive(pid), f"reported worker pid {pid} not alive"
    return worker_pids


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="offload-smoke-") as tmp:
        out = Path(tmp)
        print(f"dealing keys for a ({THRESHOLD}, {PARTIES}) network ...")
        deal = subprocess.run(
            [
                sys.executable,
                str(REPO / "tools" / "deal_keys.py"),
                "--parties", str(PARTIES),
                "--threshold", str(THRESHOLD),
                "--schemes", "sg02,bls04",
                "--base-port", str(BASE_PORT),
                "--rpc-base-port", str(RPC_BASE_PORT),
                "--out", str(out),
            ],
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert deal.returncode == 0, deal.stderr
        daemons = [spawn_daemon(out, i) for i in range(1, PARTIES + 1)]
        worker_pids: list[int] = []
        try:

            async def run() -> list[int]:
                addresses = {
                    i: ("127.0.0.1", RPC_BASE_PORT + i)
                    for i in range(1, PARTIES + 1)
                }
                client = ThetacryptClient(addresses)
                try:
                    return await drive(client)
                finally:
                    await client.close()

            worker_pids = asyncio.run(run())
        finally:
            for daemon in daemons:
                if daemon.poll() is None:
                    daemon.terminate()
            for daemon in daemons:
                try:
                    daemon.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    daemon.kill()

        # The orphan check: a SIGTERM'd daemon must take its pool down
        # with it.  Workers exit asynchronously after the parent joins
        # them, so poll briefly before declaring leakage.
        deadline = time.monotonic() + 10.0
        leaked = [pid for pid in worker_pids if pid_alive(pid)]
        while leaked and time.monotonic() < deadline:
            time.sleep(0.2)
            leaked = [pid for pid in leaked if pid_alive(pid)]
        assert not leaked, f"worker processes survived daemon shutdown: {leaked}"
        print(f"  all {len(worker_pids)} worker processes gone after SIGTERM")
    print("offload smoke OK")


if __name__ == "__main__":
    main()
