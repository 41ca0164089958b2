"""In-process federated deployments: R routers × G threshold groups.

Every group is a :class:`~repro.testing.cluster.LocalCluster` — the
single-group harness the tests use — scaled out to a sharded deployment
for tests and benchmarks without spawning processes:

* every group is an independent Θ-network on its own :class:`LocalHub`
  (separate hubs — groups share no transport, exactly like separate
  clusters in production),
* keys are dealt disjointly, each to its owning group only (ownership
  decided by the shared :class:`Topology` before anything starts, since
  placement depends only on group ids / vnodes / pinned assignments,
  never on endpoints),
* any number of stateless :class:`RouterDaemon` front-ends serve the
  client RPC protocol on ephemeral TCP ports.

Nodes receive the *provisional* topology (groups + assignments, no
endpoints) so their ``wrong_group`` redirects name the right group even
though RPC ports are unknown until start; routers and clients get the
*live* topology rebuilt from the started nodes' actual addresses.
"""

from __future__ import annotations

from typing import Mapping

from ..service.client import ThetacryptClient
from ..service.node import ThetacryptNode
from ..testing.cluster import LocalCluster
from .daemon import RouterDaemon
from .ring import DEFAULT_VNODES
from .topology import GroupSpec, Topology


class FederatedCluster:
    """R routers × G groups, entirely inside one asyncio loop.

    ``group_overrides`` maps group id → :class:`LocalCluster` keyword
    overrides for that group only (e.g. a ``fault_plan`` to crash one
    shard, or a ``data_dir`` root for its nodes); ``overrides`` applies
    to every group.
    """

    def __init__(
        self,
        group_ids: tuple[str, ...] = ("alpha", "beta", "gamma"),
        parties: int = 4,
        threshold: int = 1,
        routers: int = 1,
        vnodes: int = DEFAULT_VNODES,
        assignments: Mapping[str, str] | None = None,
        auth_token: str = "",
        latency: float = 0.001,
        group_overrides: Mapping[str, Mapping] | None = None,
        **overrides,
    ):
        if routers < 1:
            raise ValueError("a federation needs at least one router")
        self._auth_token = auth_token
        self._router_count = routers
        self.routers: list[RouterDaemon] = []
        # Provisional topology: ownership without endpoints.  Nodes keep
        # this one forever — a redirect only needs the owning group's id.
        self.provisional = Topology(
            groups=tuple(
                GroupSpec(group_id=gid, parties=parties, threshold=threshold)
                for gid in group_ids
            ),
            vnodes=vnodes,
            assignments=dict(assignments or {}),
        )
        self.topology: Topology | None = None  # live, set by start()
        self.groups: dict[str, LocalCluster] = {
            gid: LocalCluster(
                parties=parties,
                threshold=threshold,
                latency=latency,
                rpc_auth_token=auth_token,
                group_id=gid,
                topology=self.provisional,
                **{**overrides, **dict((group_overrides or {}).get(gid, {}))},
            )
            for gid in group_ids
        }

    # -- key placement ---------------------------------------------------------

    def owner_of(self, key_id: str) -> str:
        return self.provisional.owner_of(key_id)

    def partition_keys(self, key_ids) -> dict[str, list[str]]:
        return self.provisional.partition_keys(key_ids)

    # -- lifecycle -------------------------------------------------------------

    async def start(self, all_keys: Mapping[str, object] | None = None) -> None:
        """Start every group, deal keys disjointly, then start the routers.

        ``all_keys`` maps key id → dealer ``KeyMaterial``; each key is
        installed only on its owning group's nodes.
        """
        for gid, group in self.groups.items():
            group.install_keys(
                {
                    key_id: material
                    for key_id, material in (all_keys or {}).items()
                    if self.owner_of(key_id) == gid
                }
            )
            await group.start()
        self.topology = self.provisional.with_members(
            {gid: group.members() for gid, group in self.groups.items()}
        )
        for index in range(self._router_count):
            daemon = RouterDaemon(
                self.topology,
                port=0,
                auth_token=self._auth_token,
                name=f"router-{index}",
            )
            await daemon.start()
            self.routers.append(daemon)

    async def stop_group(self, group_id: str) -> None:
        """Chaos helper: take one whole shard down mid-run."""
        await self.groups[group_id].stop()

    async def stop(self) -> None:
        for daemon in self.routers:
            await daemon.stop()
        self.routers.clear()
        for group in self.groups.values():
            await group.stop()

    # -- client access ---------------------------------------------------------

    def router_addresses(self) -> list[tuple[str, int]]:
        return [daemon.rpc_address for daemon in self.routers]

    def client(self, router: int = 0, **kwargs) -> ThetacryptClient:
        """A client speaking through one router (node id 0 = the router)."""
        kwargs.setdefault("auth_token", self._auth_token)
        return ThetacryptClient(
            {0: self.routers[router].rpc_address}, **kwargs
        )

    def federated_client(self, **kwargs) -> ThetacryptClient:
        """A topology-aware client that does its own routing (no router)."""
        if self.topology is None:
            raise RuntimeError("cluster not started")
        kwargs.setdefault("auth_token", self._auth_token)
        return ThetacryptClient(topology=self.topology, **kwargs)

    def group_nodes(self, group_id: str) -> list[ThetacryptNode]:
        return self.groups[group_id].nodes

    async def __aenter__(self) -> "FederatedCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()
