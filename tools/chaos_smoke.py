#!/usr/bin/env python3
"""Chaos smoke gate: a seeded 4-node cluster with one crashed and one
byzantine node must still finalize SG02 decryption and BLS04 signing
(``make chaos-smoke``).

The scenario is a :class:`~repro.network.faults.FaultPlan` with a fixed
seed, so the run is reproducible; the gate asserts:

* both threshold operations finalize despite 2 of 4 nodes being faulty
  (t = 1 ⇒ quorum 2, which the two honest nodes reach on their own),
* the injected faults are visible as ``repro_faults_injected`` samples in
  the Prometheus scrape, and
* re-running the same seed yields an identical fault schedule (replayed
  offline through two independent :class:`FaultInjector` instances) and a
  second full cluster run that succeeds identically.

Exit status 0 on success; prints the offending assertion otherwise.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

if __package__ is None and __name__ == "__main__":  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.network.faults import Crash, FaultInjector, FaultPlan, LinkFaults
from repro.schemes import generate_keys
from repro.telemetry import parse_text, sample_sum
from repro.testing import LocalCluster

PARTIES, THRESHOLD = 4, 1
SEED = 2026

#: Node 4 is crash-stopped from the start, node 3 corrupts every outgoing
#: protocol payload; every link adds a little jittered delay.
PLAN = FaultPlan(
    seed=SEED,
    default=LinkFaults(delay=0.002, jitter=0.003),
    crashes=(Crash(node=4, at=0.0),),
    byzantine=(3,),
)


async def run_cluster(key_sets) -> tuple[bytes, str]:
    """One full chaos run; returns (recovered plaintext, metrics scrape)."""
    async with LocalCluster(
        key_sets,
        PARTIES,
        THRESHOLD,
        latency=0.0005,
        fault_plan=PLAN,
        instance_timeout=15.0,
    ) as cluster:
        client = cluster.client()
        ciphertext = await client.encrypt(
            "cipher-sg02", b"chaos smoke secret", b"l", node_id=1
        )
        plaintext = await client.decrypt("cipher-sg02", ciphertext, b"l")
        assert plaintext == b"chaos smoke secret", "SG02 decryption corrupted"

        signature = await client.sign("sig-bls04", b"chaos smoke")
        assert await client.verify_signature(
            "sig-bls04", b"chaos smoke", signature
        ), "BLS04 signature did not verify"

        scrape = await client.metrics(1)
        return plaintext, scrape


def assert_identical_schedule() -> None:
    """Same seed ⇒ identical per-link fault schedule, replayed offline."""
    a, b = FaultInjector(PLAN), FaultInjector(PLAN)
    for src in range(1, PARTIES + 1):
        for dst in range(1, PARTIES + 1):
            if src == dst:
                continue
            seq_a = [a.decide(src, dst) for _ in range(200)]
            seq_b = [b.decide(src, dst) for _ in range(200)]
            assert seq_a == seq_b, f"schedule diverged on link {src}->{dst}"


async def main() -> None:
    print(f"dealing keys for a ({THRESHOLD}, {PARTIES}) network ...")
    key_sets = {
        "cipher-sg02": generate_keys("sg02", THRESHOLD, PARTIES),
        "sig-bls04": generate_keys("bls04", THRESHOLD, PARTIES),
    }

    print(
        f"chaos plan: seed={SEED}, crash node 4, byzantine node 3, "
        "jittered delay on every link"
    )
    plaintext_a, scrape = await run_cluster(key_sets)
    print("  run 1: SG02 decryption and BLS04 signing finalized")

    parsed = parse_text(scrape)
    assert parsed, "metrics scrape produced no samples"
    injected: dict[str, float] = {}
    for (name, labels), value in parsed.items():
        if name == "repro_faults_injected":
            kind = dict(labels)["kind"]
            injected[kind] = injected.get(kind, 0.0) + value
    assert injected, "no repro_faults_injected samples in the scrape"
    for kind in ("crash", "corrupt"):
        assert sample_sum(parsed, "repro_faults_injected", kind=kind) >= 1, (
            f"scrape is missing repro_faults_injected with kind={kind}"
        )
    print(f"  faults visible in scrape: {injected}")

    assert_identical_schedule()
    print("  replay: same seed yields an identical per-link fault schedule")

    plaintext_b, _ = await run_cluster(key_sets)
    assert plaintext_b == plaintext_a
    print("  run 2: same seed, same outcome")

    print("chaos smoke OK")


if __name__ == "__main__":
    asyncio.run(main())
