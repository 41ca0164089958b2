"""Crypto dispatch rules, blob caching, and pool healing.

The layers of the pooled path, each tested at its own seam:

* the two dispatch rules — a node builds its own pool only on a
  multi-core host (:func:`host_pool`), and a pool whose backlog is full
  spills ops inline, counted as ``outcome="spilled"``;
* :mod:`repro.workers.blobs` — content-addressed key-material caching,
  so exports cross the process boundary once per worker, not per task;
* digest-referencing task specs — in-process miss/install semantics,
  plus the pool's one-retry-with-blobs behaviour end to end;
* the instance manager's identical-request folding counter;
* :class:`CryptoPool` healing — a SIGKILLed worker observed by several
  in-flight tasks counts *one* crash, and ``worker_pids`` never raises.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time

import pytest

from repro.network.local import LocalHub
from repro.schemes import generate_keys
from repro.schemes.keystore import export_key_share, export_public_key
from repro.service.config import make_local_configs
from repro.service.node import ThetacryptNode
from repro.telemetry import MetricRegistry, parse_text, render_text, sample_sum
from repro.testing import LocalCluster
from repro.workers import (
    BlobCacheMissError,
    BlobStore,
    CryptoPool,
    CryptoPoolUnavailable,
    content_digest,
    host_pool,
    parent_store,
    register_export,
)
from repro.workers import tasks as pool_tasks
from repro.workers.pool import MAX_QUEUE_PER_WORKER


async def _flip(cluster: LocalCluster, name: bytes) -> set[bytes]:
    async with cluster:
        return set(await cluster.run_request("coin", "cks05", name))


# ---------------------------------------------------------------------------
# The two dispatch rules.
# ---------------------------------------------------------------------------


class TestDispatchRules:
    def test_one_core_host_builds_no_pool(self, monkeypatch, keys_cks05):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        children_before = set(multiprocessing.active_children())
        cluster = LocalCluster({"cks05": keys_cks05}, latency=0.0, crypto_workers=2)
        assert all(node.crypto_pool is None for node in cluster.nodes)
        stats = cluster.nodes[0].stats()["crypto_pool"]
        assert stats == {"enabled": False, "workers": 0, "reason": "few_cores"}
        assert len(asyncio.run(_flip(cluster, b"one core coin"))) == 1
        assert set(multiprocessing.active_children()) <= children_before

    def test_host_pool_rules(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert host_pool(0) == (None, "disabled")
        pool, reason = host_pool(2, registry=MetricRegistry())
        assert reason == "configured" and pool.workers == 2
        assert pool.worker_pids == []  # lazy: nothing spawned yet
        pool.close_sync()
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert host_pool(2) == (None, "few_cores")

    def test_injected_pool_is_always_used(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        pool = CryptoPool(1, registry=MetricRegistry())
        config = make_local_configs(4, 1, transport="local", rpc_base_port=0)[0]
        node = ThetacryptNode(
            config, transport=LocalHub().endpoint(1), crypto_pool=pool
        )
        assert node.crypto_pool is pool
        assert node.stats()["crypto_pool"]["reason"] == "injected"
        pool.close_sync()

    def test_backlogged_pool_spills_inline(self, keys_cks05):
        """A pool held at its backlog limit runs every op inline."""
        registry = MetricRegistry()
        pool = CryptoPool(1, registry=registry)
        pool._pending = MAX_QUEUE_PER_WORKER  # held: nothing ever drains
        cluster = LocalCluster({"cks05": keys_cks05}, latency=0.0, crypto_pool=pool)
        assert len(asyncio.run(_flip(cluster, b"spilled coin"))) == 1
        stats = pool.stats()
        assert stats["spills"] > 0
        assert stats["tasks_ok"] == 0 and stats["fallbacks"] == 0
        assert pool.worker_pids == [] and not stats["running"]
        parsed = parse_text(render_text(registry))
        spilled = sample_sum(parsed, "repro_crypto_pool_tasks_total", outcome="spilled")
        assert spilled == stats["spills"]
        pool.close_sync()


# ---------------------------------------------------------------------------
# Content-addressed blobs.
# ---------------------------------------------------------------------------


class TestBlobStore:
    def test_put_and_get_round_trip(self):
        store = BlobStore(capacity=4)
        digest = store.put(b"blob bytes")
        assert digest == content_digest(b"blob bytes")
        assert digest in store
        assert store.get_blob(digest) == b"blob bytes"
        stats = store.stats()
        assert stats["hits"] == 1 and stats["installs"] == 1

    def test_miss_and_eviction_counters(self):
        store = BlobStore(capacity=2)
        first = store.put(b"one")
        store.put(b"two")
        store.put(b"three")  # evicts "one" (LRU-oldest)
        assert store.get_blob(first) is None
        stats = store.stats()
        assert stats["size"] == 2
        assert stats["evictions"] == 1
        assert stats["misses"] == 1

    def test_get_blob_refreshes_lru_position(self):
        store = BlobStore(capacity=2)
        first = store.put(b"one")
        second = store.put(b"two")
        store.get_blob(first)  # "one" becomes most-recent
        store.put(b"three")  # evicts "two", not "one"
        assert store.get_blob(first) == b"one"
        assert store.get_blob(second) is None

    def test_get_object_parses_once_per_residency(self):
        store = BlobStore(capacity=2)
        digest = store.put(b"payload")
        calls = []

        def loader(blob: bytes) -> str:
            calls.append(blob)
            return blob.decode()

        assert store.get_object(digest, loader) == "payload"
        assert store.get_object(digest, loader) == "payload"
        assert len(calls) == 1
        # Eviction drops the parsed copy with the blob.
        store.put(b"a")
        store.put(b"b")
        assert store.get_object(digest, loader) is None

    def test_register_export_serializes_once_per_object(self):
        # Fresh material: a session-scoped share may already be memoised by
        # any earlier test that ran a pooled cluster over it.
        calls = []
        share = generate_keys("bls04", 1, 4).share_for(4)

        def exporter() -> bytes:
            calls.append(1)
            return export_key_share("bls04", share)

        first = register_export("share", "bls04", share, exporter)
        second = register_export("share", "bls04", share, exporter)
        assert first == second
        assert len(calls) == 1
        assert parent_store().get_blob(first) is not None


# ---------------------------------------------------------------------------
# Digest-referencing task specs (in-process: pure logic, no pool).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def digest_material():
    """Fresh key material with unregistered export blobs.

    The worker-side blob cache (``tasks._worker_blobs``) is process-global
    and entries persist across tests, so the cache-miss assertions need
    digests no earlier test can have installed — fresh keys guarantee it.
    """
    material = generate_keys("bls04", 1, 3)
    public_blob = export_public_key("bls04", material.public_key)
    share_blobs = {
        party: export_key_share("bls04", material.share_for(party))
        for party in (1, 2, 3)
    }
    return material, public_blob, share_blobs


def _digest_spec(public_blob: bytes, share_blob: bytes | None, data: bytes) -> dict:
    spec = {
        "scheme": "bls04",
        "public_digest": content_digest(public_blob),
        "kind": "sign",
        "data": data,
    }
    if share_blob is not None:
        spec["share_digest"] = content_digest(share_blob)
    return spec


class TestDigestSpecs:
    def test_miss_then_piggyback_install_then_hit(self, digest_material):
        material, public_blob, share_blobs = digest_material
        message = b"digest spec round trip"
        spec = _digest_spec(public_blob, share_blobs[1], message)
        with pytest.raises(BlobCacheMissError) as excinfo:
            pool_tasks.create_share(spec)
        assert sorted(excinfo.value.digests) == sorted(
            [spec["public_digest"], spec["share_digest"]]
        )
        blobs = {
            spec["public_digest"]: public_blob,
            spec["share_digest"]: share_blobs[1],
        }
        pooled = pool_tasks.create_share(spec, blobs=blobs)
        # The piggybacked blobs are now cached: same spec, no blobs needed.
        assert pool_tasks.create_share(spec) == pooled
        # Bit-identity with the legacy inline-blob spec.
        legacy = pool_tasks.create_share(
            {
                "scheme": "bls04",
                "public": public_blob,
                "kind": "sign",
                "data": message,
                "share": share_blobs[1],
            }
        )
        assert pooled == legacy


@pytest.mark.slow
class TestPoolBlobRetry:
    def test_cache_miss_retries_once_with_blobs(self):
        """A digest registered *after* worker spawn round-trips via one
        retry; a digest nobody holds degrades to inline fallback."""
        registry = MetricRegistry()
        pool = CryptoPool(1, registry=registry)

        async def scenario():
            # Spawn + warm first: the warm install snapshots the parent
            # store *now*, so anything registered later is missing.
            await pool.run("health", pool_tasks.worker_health)
            material = generate_keys("bls04", 1, 3)
            public_digest = register_export(
                "public",
                "bls04",
                material.public_key,
                lambda: export_public_key("bls04", material.public_key),
            )
            share = material.share_for(1)
            share_digest = register_export(
                "share",
                "bls04",
                share,
                lambda: export_key_share("bls04", share),
            )
            spec = {
                "scheme": "bls04",
                "public_digest": public_digest,
                "kind": "sign",
                "data": b"late key install",
                "share_digest": share_digest,
            }
            payload = await pool.run(
                "bls04:create_share", pool_tasks.create_share, spec
            )
            assert isinstance(payload, bytes) and payload

            # Steady state: the retry installed the blobs for good.
            again = await pool.run(
                "bls04:create_share", pool_tasks.create_share, spec
            )
            assert again == payload

            # A digest the parent store does not hold either cannot run
            # pooled at all: infrastructure fallback, not a crash.
            phantom = dict(spec, share_digest=content_digest(b"phantom"))
            with pytest.raises(CryptoPoolUnavailable):
                await pool.run(
                    "bls04:create_share", pool_tasks.create_share, phantom
                )
            await pool.close()

        asyncio.run(scenario())
        stats = pool.stats()
        assert stats["blob_retries"] == 1
        assert stats["tasks_ok"] == 3  # health + first run + steady-state
        assert stats["fallbacks"] == 1  # the phantom digest
        assert stats["crashes"] == 0


# ---------------------------------------------------------------------------
# Pool healing and introspection hardening.
# ---------------------------------------------------------------------------


class TestWorkerPidsDefensive:
    def test_empty_before_spawn_and_on_breakage(self):
        pool = CryptoPool(1, registry=MetricRegistry())
        assert pool.worker_pids == []

        class FreshlyBrokenExecutor:
            """What a crashing executor can look like mid-heal."""

            @property
            def _processes(self):
                raise RuntimeError("dict mutated during iteration")

        pool._executor = FreshlyBrokenExecutor()
        assert pool.worker_pids == []

        class StrippedExecutor:
            pass  # no _processes attribute at all (implementation drift)

        pool._executor = StrippedExecutor()
        assert pool.worker_pids == []

        class HealthyExecutor:
            _processes = {30: object(), 10: object(), 20: object()}

        pool._executor = HealthyExecutor()
        assert pool.worker_pids == [10, 20, 30]
        pool._executor = None
        pool.close_sync()


@pytest.mark.slow
class TestHealOncePerGeneration:
    def test_sigkill_with_two_in_flight_counts_one_crash(self):
        """Two tasks observing the same broken executor heal it once.

        Regression test for the double-count: both the submit and await
        paths of concurrent in-flight tasks see ``BrokenExecutor`` when a
        worker is SIGKILLed; ``crashes`` must count breakages (1), not
        observers (2).
        """
        pool = CryptoPool(2, registry=MetricRegistry())

        async def scenario():
            first = asyncio.ensure_future(
                pool.run("hold", pool_tasks.hold_worker, 30.0)
            )
            second = asyncio.ensure_future(
                pool.run("hold", pool_tasks.hold_worker, 30.0)
            )
            deadline = time.monotonic() + 30.0
            while not pool.worker_pids and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            pids = pool.worker_pids
            assert pids, "pool never spawned workers"
            os.kill(pids[0], signal.SIGKILL)
            results = await asyncio.gather(
                first, second, return_exceptions=True
            )
            # One dead worker breaks the whole executor: both in-flight
            # tasks fail with the infrastructure error (fall back inline).
            for result in results:
                assert isinstance(result, CryptoPoolUnavailable), result
            stats_mid = pool.stats()
            # Healed exactly once, though both tasks saw the breakage.
            assert stats_mid["crashes"] == 1, stats_mid

            # And the heal actually worked: the next task respawns.
            health = await pool.run("health", pool_tasks.worker_health)
            assert health["pid"] not in pids
            await pool.close()

        asyncio.run(scenario())
        stats = pool.stats()
        assert stats["crashes"] == 1
        assert stats["restarts"] == 1
        assert stats["fallbacks"] == 2


# ---------------------------------------------------------------------------
# Identical-request folding.
# ---------------------------------------------------------------------------


@pytest.mark.integration
class TestDuplicateRequestCoalescing:
    def test_identical_requests_fold_into_one_instance(self, keys_bls04):
        """Same payload submitted twice → one instance, counted folds."""
        cluster = LocalCluster({"bls04": keys_bls04}, latency=0.0)

        async def scenario():
            async with cluster:
                message = b"duplicate request payload"
                first, second = await asyncio.gather(
                    cluster.run_request("sign", "bls04", message),
                    cluster.run_request("sign", "bls04", message),
                )
            return first + second

        results = asyncio.run(scenario())
        assert len(set(results)) == 1
        for node in cluster.nodes:
            parsed = parse_text(node.render_metrics())
            folded = sample_sum(
                parsed, "repro_requests_coalesced_total", source="inflight"
            )
            assert folded >= 1, f"node {node.config.node_id} never folded"
