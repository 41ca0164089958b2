"""An in-process n=4, t=1 Θ-network and the requests the benchmark sends it.

Every node is a real :class:`ThetacryptNode` on one :class:`LocalHub` with a
fixed one-way link delay; nodes, hub and load generator share one thread and
one asyncio loop.  Requests enter each node through ``run_request``, the
protocol API the RPC handler calls, so the measured path is the server side
of the paper's §4.3 latency without client sockets.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.groups.precompute import clear_precompute_cache
from repro.network.local import LocalHub
from repro.rsa.keygen import modulus_for_bits
from repro.schemes import generate_keys, get_scheme
from repro.service import ThetacryptNode, make_local_configs

PARTIES = 4
THRESHOLD = 1
PAYLOAD_BYTES = 256
#: Deployment defaults the benchmark keeps (no pool, no precompute, auto
#: math backend); the instance timeout only has to outlast a busy loop.
INSTANCE_TIMEOUT_S = 120.0

#: scheme -> protocol-API operation kind
KIND = {"sg02": "decrypt", "bls04": "sign", "cks05": "coin", "kg20": "sign",
        "sh00": "sign"}


@dataclass(frozen=True)
class Request:
    """One generated request: what the nodes receive and what to check."""

    index: int
    key_id: str
    scheme: str
    kind: str
    data: bytes          # ciphertext, message or coin name sent to the nodes
    expected: bytes | None  # SG02 plaintext; None where a check is computed


@dataclass
class Outcome:
    """What came back for one request, timed on the loop clock."""

    request: Request
    due: float
    node_started: dict[int, float] = field(default_factory=dict)
    node_finished: dict[int, float] = field(default_factory=dict)
    results: dict[int, bytes] = field(default_factory=dict)
    errors: dict[int, str] = field(default_factory=dict)

    @property
    def first_finish(self) -> float | None:
        return min(self.node_finished.values()) if self.node_finished else None


def deal(schemes: dict[str, str]) -> dict:
    """Trusted-dealer key material per key id (``{key_id: scheme}``)."""
    material = {}
    for key_id, scheme in schemes.items():
        if scheme == "sh00":
            material[key_id] = generate_keys(
                scheme, THRESHOLD, PARTIES, rsa_modulus=modulus_for_bits(2048)
            )
        else:
            material[key_id] = generate_keys(scheme, THRESHOLD, PARTIES)
    return material


class Cluster:
    """Four started nodes plus the dealt keys; built by :func:`start_cluster`."""

    def __init__(self, hub: LocalHub, nodes: list[ThetacryptNode], material,
                 data_root: Path | None):
        self.hub = hub
        self.nodes = nodes
        self.material = material
        self.data_root = data_root
        self._loop = asyncio.get_running_loop()

    def make_request(self, index: int, key_id: str, rng: random.Random,
                     tag: bytes = b"req") -> Request:
        """A unique 256-byte payload for ``key_id``, drawn from ``rng``."""
        scheme = self.material[key_id].scheme
        prefix = b"%s-%d-" % (tag, index)
        payload = prefix + rng.randbytes(PAYLOAD_BYTES - len(prefix))
        if scheme == "sg02":
            ciphertext = get_scheme("sg02").encrypt(
                self.material[key_id].public_key, payload, b""
            )
            return Request(index, key_id, scheme, "decrypt",
                           ciphertext.to_bytes(), payload)
        return Request(index, key_id, scheme, KIND[scheme], payload, None)

    async def run(self, request: Request, due: float) -> Outcome:
        """Send ``request`` to every node; record per-node times and bytes."""
        outcome = Outcome(request, due)

        async def on_node(node: ThetacryptNode) -> None:
            node_id = node.config.node_id
            outcome.node_started[node_id] = self._loop.time()
            try:
                result = await node.run_request(
                    request.kind, request.key_id, request.data
                )
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                outcome.errors[node_id] = f"{type(exc).__name__}: {exc}"
            else:
                outcome.node_finished[node_id] = self._loop.time()
                outcome.results[node_id] = result

        await asyncio.gather(*(on_node(node) for node in self.nodes))
        return outcome

    def check(self, outcome: Outcome) -> str | None:
        """None when the request is correct, else why it is not.

        All n nodes must answer with the same bytes; SG02 plaintexts must
        equal their inputs and signatures must verify against the public key
        (CKS05 coins are checked by agreement alone).
        """
        if outcome.errors:
            return "; ".join(f"node {i}: {e}" for i, e in sorted(outcome.errors.items()))
        values = set(outcome.results.values())
        if len(outcome.results) != len(self.nodes) or len(values) != 1:
            return "nodes disagree on the result bytes"
        (value,) = values
        request = outcome.request
        if request.expected is not None and value != request.expected:
            return "plaintext differs from the encrypted input"
        if request.kind == "sign" and not self.nodes[0].scheme_verify_signature(
            request.key_id, request.data, value
        ):
            return "signature does not verify"
        return None

    def coalesced(self) -> float:
        """Requests answered by a result-cache hit or an in-flight join."""
        total = 0.0
        for node in self.nodes:
            family = node.registry.get("repro_requests_coalesced_total")
            if family is not None:
                total += sum(child.value for child in family.children())
        return total

    async def stop(self) -> None:
        for node in self.nodes:
            await node.stop()
        await self.hub.drain()
        if self.data_root is not None:
            shutil.rmtree(self.data_root, ignore_errors=True)


async def start_cluster(
    keys: dict[str, str],
    one_way_delay_s: float,
    data_root: Path | None,
    rng: random.Random,
) -> tuple[Cluster, dict[str, float]]:
    """Deal keys, start four nodes, send one warm-up request per key.

    Returns the cluster and the wall time of each set-up step.  The
    process-wide fixed-base tables are dropped before the warm-up, so the
    nodes build them again as fresh node processes would, and neither the
    dealer nor the client-side encryption of the warm-up inputs (which share
    this process) warms them.
    """
    timings = {}
    started = time.perf_counter()
    material = deal(keys)
    timings["deal_s"] = time.perf_counter() - started

    started = time.perf_counter()
    if data_root is not None:
        data_root.mkdir(parents=True)
    configs = make_local_configs(
        PARTIES, THRESHOLD, transport="local", rpc_base_port=0,
        instance_timeout=INSTANCE_TIMEOUT_S,
    )
    hub = LocalHub(latency=lambda src, dst: one_way_delay_s)
    nodes = []
    for config in configs:
        if data_root is not None:
            config = replace(config, data_dir=str(data_root / f"node{config.node_id}"))
        node = ThetacryptNode(config, transport=hub.endpoint(config.node_id))
        for key_id, km in material.items():
            node.install_key(key_id, km.scheme, km.public_key,
                             km.share_for(config.node_id))
        nodes.append(node)
    for node in nodes:
        await node.start()
    cluster = Cluster(hub, nodes, material, data_root)
    timings["start_s"] = time.perf_counter() - started

    warmups = [cluster.make_request(index, key_id, rng, tag=b"warmup")
               for index, key_id in enumerate(sorted(keys))]
    clear_precompute_cache()
    loop = asyncio.get_running_loop()
    started = time.perf_counter()
    outcomes = [await cluster.run(request, loop.time()) for request in warmups]
    timings["warmup_s"] = time.perf_counter() - started
    timings["setup_s"] = timings["deal_s"] + timings["start_s"] + timings["warmup_s"]
    for outcome in outcomes:
        problem = cluster.check(outcome)
        if problem is not None:
            await cluster.stop()
            raise RuntimeError(
                f"warm-up request for {outcome.request.key_id} failed: {problem}"
            )
    return cluster, timings
