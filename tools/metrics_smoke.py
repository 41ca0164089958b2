#!/usr/bin/env python3
"""Telemetry smoke gate: boot a 4-node cluster, exercise every endpoint
family once, and assert the scrape output parses (``make metrics-smoke``).

Runs one request per Protocol API method (sign, decrypt, flip_coin) and
per Scheme API method (encrypt, verify_signature, list_keys), then checks:

* the ``metrics`` RPC and the plain-HTTP ``GET /metrics`` endpoint return
  the same parseable Prometheus text document,
* the required metric families are present with non-zero counts,
* the finished instances report per-round trace breakdowns.

Exit status 0 on success; prints the offending assertion otherwise.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

if __package__ is None and __name__ == "__main__":  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.schemes import generate_keys
from repro.service.node import derive_instance_id
from repro.telemetry import parse_text, sample_sum
from repro.testing import LocalCluster

PARTIES, THRESHOLD = 4, 1

REQUIRED_FAMILIES = [
    "repro_rpc_requests_total",
    "repro_rpc_latency_seconds_count",
    "repro_tri_round_seconds_count",
    "repro_tri_messages_total",
    "repro_instances_total",
    "repro_instance_seconds_count",
    "repro_network_messages_total",
    "repro_network_bytes_total",
    "repro_network_send_seconds_count",
    "repro_network_dispatch_total",
    "repro_network_delivered_total",
    "repro_crypto_cache",
]


async def scrape_http(host: str, port: int) -> str:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: smoke\r\n\r\n")
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0].decode("latin-1")
    assert "200" in status, f"HTTP scrape failed: {status}"
    return body.decode()


async def main() -> None:
    print(f"dealing keys for a ({THRESHOLD}, {PARTIES}) network ...")
    key_sets = {
        "sig-bls04": generate_keys("bls04", THRESHOLD, PARTIES),
        "cipher-sg02": generate_keys("sg02", THRESHOLD, PARTIES),
        "coin-cks05": generate_keys("cks05", THRESHOLD, PARTIES),
    }

    async with LocalCluster(
        key_sets,
        PARTIES,
        THRESHOLD,
        latency=0.0005,
        metrics_port=0,  # ephemeral HTTP scrape port
    ) as cluster:
        client = cluster.client()
        print("running one request per endpoint family ...")
        # Protocol API.
        signature = await client.sign("sig-bls04", b"smoke")
        ciphertext = await client.encrypt("cipher-sg02", b"smoke secret", b"l")
        plaintext = await client.decrypt("cipher-sg02", ciphertext, b"l")
        assert plaintext == b"smoke secret"
        coin = await client.flip_coin("coin-cks05", b"smoke-round")
        assert len(coin) == 32
        # Scheme API.
        assert await client.verify_signature("sig-bls04", b"smoke", signature)
        keys_listed = await client.call(1, "list_keys", {})
        assert len(keys_listed["keys"]) == 3

        print("scraping node 1 over RPC and HTTP ...")
        rpc_text = await client.metrics(1)
        host, port = cluster.nodes[0].metrics_address
        http_text = await scrape_http(host, port)

        for label, text in (("rpc", rpc_text), ("http", http_text)):
            parsed = parse_text(text)
            assert parsed, f"{label} scrape produced no samples"
            for family in REQUIRED_FAMILIES:
                assert any(
                    name == family for name, _ in parsed
                ), f"{label} scrape is missing family {family}"
            for method in ("sign", "decrypt", "flip_coin"):
                count = sample_sum(
                    parsed, "repro_rpc_latency_seconds_count", method=method
                )
                assert count >= 1, f"{label}: no latency samples for {method}"
            for scheme in ("bls04", "sg02", "cks05"):
                assert sample_sum(
                    parsed, "repro_tri_round_seconds_count", scheme=scheme
                ) >= 1, f"{label} scrape is missing TRI rounds for {scheme}"
            assert sample_sum(
                parsed, "repro_network_bytes_total", node="1", channel="local"
            ) > 0, f"{label} scrape is missing local network bytes"
            print(f"  {label}: {len(parsed)} samples, all required families present")

        instance_id = derive_instance_id("sign", "sig-bls04", b"smoke", b"")
        status = await client.status(instance_id, 1)
        spans = [s["name"] for s in status["trace"]["spans"]]
        assert any(name.startswith("round-") for name in spans), spans
        print(f"  trace: instance {instance_id} spans {spans}")

        stats = await client.node_stats(1)
        summary = stats["latency"]
        assert summary["count"] >= 3
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        print(
            "  stats: count=%d p50=%.1fms p95=%.1fms p99=%.1fms"
            % (
                summary["count"],
                summary["p50"] * 1e3,
                summary["p95"] * 1e3,
                summary["p99"] * 1e3,
            )
        )
        print("metrics smoke OK")


if __name__ == "__main__":
    asyncio.run(main())
