"""Node configuration: everything a Thetacrypt instance learns at start-up."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from ..core.orchestration.precompute import PrecomputeConfig
from ..errors import ConfigurationError
from ..network.faults import FaultPlan
from ..router.topology import Topology

#: Fields older configs may carry that no longer exist; named in the error.
REMOVED_FIELDS = ("offload_policy", "coalesce_window", "math_backend")


@dataclass(frozen=True)
class PeerConfig:
    """Address book entry for one Θ-network member."""

    node_id: int
    host: str
    port: int


@dataclass(frozen=True)
class NodeConfig:
    """Start-up configuration of one node (paper §3.6: the network manager
    "sets up the needed components based on the configuration")."""

    node_id: int
    parties: int
    threshold: int
    listen_host: str = "127.0.0.1"
    listen_port: int = 0
    rpc_host: str = "127.0.0.1"
    rpc_port: int = 0
    peers: tuple[PeerConfig, ...] = ()
    transport: str = "tcp"  # "tcp" or "local"
    enable_tob: bool = True
    tob_sequencer: int = 1
    tob_block_interval: float = 0.0
    gossip_fanout: int | None = None
    instance_timeout: float = 60.0
    # §3.2: "RPC requests can be authenticated by exploiting the common
    # security context such that only the service node in the same security
    # domain is allowed to issue requests".  Empty string disables the check.
    rpc_auth_token: str = ""
    # Plain-HTTP Prometheus scrape endpoint (GET /metrics) on rpc_host.
    # None disables it; 0 binds an ephemeral port (see node.metrics_address).
    metrics_port: int | None = None
    # Seeded chaos scenario (docs/robustness.md): when set, the node wraps
    # its transport in a FaultyNetwork so the asyncio service and the
    # simulator can run the same deterministic fault schedules.
    fault_plan: FaultPlan | None = None
    # Durability root for this node (docs/robustness.md, "Durability &
    # recovery"): keystore snapshot, instance journal, and result cache
    # live under it, and start() runs crash recovery from it.  None keeps
    # the node memory-only (the pre-durability behaviour).
    data_dir: str | None = None
    # Overload shedding: reject new submissions once this many instances
    # are pending, with a structured ``overloaded`` error carrying
    # ``overload_retry_after`` as the client's backoff hint.  None never
    # sheds.
    max_pending_instances: int | None = None
    overload_retry_after: float = 0.25
    # Graceful shutdown: how long the daemon waits for in-flight instances
    # to finish before tearing the node down.
    drain_timeout: float = 5.0
    # Crypto worker-pool offload (docs/performance.md): spawn-context
    # worker processes for the schemes' pairing/modexp-heavy steps.  0
    # keeps every operation inline on the event loop, and so does a
    # 1-core host, where the node builds no pool.
    crypto_workers: int = 0
    # Federation (docs/federation.md): which threshold group this node
    # belongs to ("" = the unsharded single-group deployment) and the
    # federation topology it should consult to redirect misrouted
    # requests.  With both set, a request for a key owned by another
    # group fails fast with a structured ``wrong_group`` error carrying
    # the owning group and its endpoints instead of an opaque
    # unknown-key failure.
    group_id: str = ""
    topology: Topology | None = None
    # Precompute pipeline (docs/performance.md, "Precompute pipeline"):
    # announce/refill/consume share pools that hide threshold latency for
    # announced requests.  None keeps the node strictly on-demand (the
    # pre-pipeline behaviour); kg20 nonce pools work either way.
    precompute: PrecomputeConfig | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.node_id <= self.parties:
            raise ConfigurationError(
                f"node id {self.node_id} outside 1..{self.parties}"
            )
        if self.threshold >= self.parties:
            raise ConfigurationError("threshold must be below the party count")
        if self.transport not in ("tcp", "local"):
            raise ConfigurationError(f"unknown transport {self.transport!r}")
        if self.metrics_port is not None and self.metrics_port < 0:
            raise ConfigurationError(
                f"metrics_port must be >= 0 (or None to disable), "
                f"got {self.metrics_port}"
            )
        if self.max_pending_instances is not None and self.max_pending_instances < 1:
            raise ConfigurationError(
                f"max_pending_instances must be >= 1 (or None to disable), "
                f"got {self.max_pending_instances}"
            )
        if self.overload_retry_after < 0:
            raise ConfigurationError("overload_retry_after must be >= 0")
        if self.drain_timeout < 0:
            raise ConfigurationError("drain_timeout must be >= 0")
        if self.crypto_workers < 0:
            raise ConfigurationError(
                f"crypto_workers must be >= 0 (0 disables the pool), "
                f"got {self.crypto_workers}"
            )
        if self.topology is not None and self.group_id:
            # A node claiming federation membership must exist in the
            # topology it redirects against, or every redirect it emits
            # would name groups that cannot include it.
            if self.group_id not in self.topology.group_ids:
                raise ConfigurationError(
                    f"group_id {self.group_id!r} not in topology groups "
                    f"{self.topology.group_ids}"
                )

    def peer_map(self) -> dict[int, tuple[str, int]]:
        return {
            p.node_id: (p.host, p.port)
            for p in self.peers
            if p.node_id != self.node_id
        }

    def to_json(self) -> str:
        payload = asdict(self)
        payload["peers"] = [asdict(p) for p in self.peers]
        if self.fault_plan is not None:
            payload["fault_plan"] = self.fault_plan.to_dict()
        if self.topology is not None:
            payload["topology"] = self.topology.to_dict()
        if self.precompute is not None:
            payload["precompute"] = self.precompute.to_dict()
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "NodeConfig":
        payload = json.loads(text)
        unknown = sorted(set(payload) - {f.name for f in fields(NodeConfig)})
        if unknown:
            removed = [name for name in unknown if name in REMOVED_FIELDS]
            note = (
                f" ({', '.join(removed)} removed: crypto dispatch and the "
                "math backend no longer take options; delete the keys)"
                if removed
                else ""
            )
            raise ConfigurationError(
                f"unknown node config fields: {', '.join(unknown)}{note}"
            )
        peers = tuple(PeerConfig(**p) for p in payload.pop("peers", []))
        fanout = payload.pop("gossip_fanout", None)
        plan_payload = payload.pop("fault_plan", None)
        plan = FaultPlan.from_dict(plan_payload) if plan_payload else None
        topology_payload = payload.pop("topology", None)
        topology = (
            Topology.from_dict(topology_payload) if topology_payload else None
        )
        precompute_payload = payload.pop("precompute", None)
        precompute = (
            PrecomputeConfig.from_dict(precompute_payload)
            if precompute_payload
            else None
        )
        return NodeConfig(
            peers=peers,
            gossip_fanout=fanout,
            fault_plan=plan,
            topology=topology,
            precompute=precompute,
            **payload,
        )

    def with_auth(self, token: str) -> "NodeConfig":
        """Copy of this config with RPC authentication enabled."""
        from dataclasses import replace

        return replace(self, rpc_auth_token=token)


def make_local_configs(
    parties: int,
    threshold: int,
    base_port: int = 17000,
    rpc_base_port: int = 18000,
    host: str = "127.0.0.1",
    **overrides,
) -> list[NodeConfig]:
    """Build a consistent config set for an n-node deployment on one host."""
    peers = tuple(
        PeerConfig(i, host, base_port + i) for i in range(1, parties + 1)
    )
    return [
        NodeConfig(
            node_id=i,
            parties=parties,
            threshold=threshold,
            listen_host=host,
            listen_port=base_port + i,
            rpc_host=host,
            # rpc_base_port=0 requests OS-assigned ephemeral ports.
            rpc_port=rpc_base_port + i if rpc_base_port else 0,
            peers=peers,
            **overrides,
        )
        for i in range(1, parties + 1)
    ]
