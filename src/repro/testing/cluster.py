"""One cluster harness for tests, smoke gates and benchmarks.

Two shapes of the same Θ-network:

* :class:`LocalCluster` — n :class:`ThetacryptNode` instances inside this
  process, joined by one :class:`LocalHub`;
* :class:`DaemonCluster` — the real deployment: keys dealt into a
  directory (:func:`~repro.service.deploy.deal_deployment`), one
  ``repro.service.daemon`` process per node plus a ``repro.router.daemon``
  in front of a federation, torn down by SIGTERM with a SIGKILL fallback.

Both are async context managers; clients handed out by ``client()`` are
closed when the cluster stops.
"""

from __future__ import annotations

import asyncio
import functools
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

from ..errors import RpcError
from ..network.local import LocalHub
from ..service.client import ThetacryptClient
from ..service.config import NodeConfig, make_local_configs
from ..service.deploy import deal_deployment
from ..service.node import ThetacryptNode

if TYPE_CHECKING:
    from ..router.topology import Topology
    from ..workers.pool import CryptoPool

#: ``src/`` — put on the daemons' ``PYTHONPATH`` so they import this tree.
SRC = Path(__file__).resolve().parents[2]

#: Seconds a SIGTERM'd daemon gets to exit before it is SIGKILLed.
TERM_TIMEOUT = 30.0


class _Harness:
    """Client bookkeeping and ``async with`` shared by both clusters."""

    _clients: list[ThetacryptClient]

    def _track(self, client: ThetacryptClient) -> ThetacryptClient:
        self._clients.append(client)
        return client

    async def _close_clients(self) -> None:
        for client in self._clients:
            await client.close()
        self._clients.clear()

    async def __aenter__(self):
        try:
            await self.start()
        except BaseException:
            await self.stop()
            raise
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()


class LocalCluster(_Harness):
    """``parties`` in-process nodes on one :class:`LocalHub`.

    ``keys`` maps key id → dealer ``KeyMaterial``, installed on every
    node; ``latency`` is every link's one-way delay in seconds;
    ``crypto_pool`` is injected into every node; ``data_dir`` gives node
    *i* the durable directory ``data_dir/node<i>``; every other keyword
    is a :class:`NodeConfig` override for :func:`make_local_configs`.
    Nodes are built at construction and started by :meth:`start`.
    """

    def __init__(
        self,
        keys: Mapping[str, object] | None = None,
        parties: int = 4,
        threshold: int = 1,
        latency: float = 0.001,
        crypto_pool: "CryptoPool | None" = None,
        data_dir: Path | str | None = None,
        **overrides,
    ):
        self.hub = LocalHub(latency=lambda src, dst: latency)
        self._pool = crypto_pool
        self._keys: dict[str, object] = {}
        self._running: set[int] = set()
        self._clients = []
        configs = make_local_configs(
            parties, threshold, transport="local", rpc_base_port=0, **overrides
        )
        if data_dir is not None:
            configs = [
                replace(c, data_dir=str(Path(data_dir) / f"node{c.node_id}"))
                for c in configs
            ]
        self.nodes = [self._build(config) for config in configs]
        self.install_keys(keys or {})

    def _build(self, config: NodeConfig) -> ThetacryptNode:
        return ThetacryptNode(
            config,
            transport=self.hub.endpoint(config.node_id),
            crypto_pool=self._pool,
        )

    def _install(self, node: ThetacryptNode, keys: Mapping[str, object]) -> None:
        for key_id, material in keys.items():
            node.install_key(
                key_id,
                material.scheme,
                material.public_key,
                material.share_for(node.config.node_id),
            )

    def install_keys(self, keys: Mapping[str, object]) -> None:
        """Deal more key material to every node (restarts get it too)."""
        self._keys.update(keys)
        for node in self.nodes:
            self._install(node, keys)

    async def start(self) -> None:
        for node in self.nodes:
            if node.config.node_id not in self._running:
                await node.start()
                self._running.add(node.config.node_id)

    async def stop_node(self, node_id: int) -> None:
        """Crash helper: take one node down; the others keep running."""
        if node_id in self._running:
            self._running.discard(node_id)
            await self.nodes[node_id - 1].stop()

    async def restart(self, node_id: int, **overrides) -> ThetacryptNode:
        """A fresh node over the same config (plus ``overrides``) and hub
        slot — and so over the same ``data_dir`` — with every key dealt
        so far re-installed; stops the old node first if it still runs."""
        await self.stop_node(node_id)
        node = self._build(replace(self.nodes[node_id - 1].config, **overrides))
        self._install(node, self._keys)
        self.nodes[node_id - 1] = node
        await node.start()
        self._running.add(node_id)
        return node

    async def stop(self) -> None:
        await self._close_clients()
        for node in self.nodes:
            await self.stop_node(node.config.node_id)

    def _live(self) -> list[ThetacryptNode]:
        return [node for node in self.nodes if node.config.node_id in self._running]

    def members(self) -> dict[int, tuple[str, int]]:
        """node id → RPC address of every running node."""
        return {node.config.node_id: node.rpc_address for node in self._live()}

    def client(self, **kwargs) -> ThetacryptClient:
        """A client of every running node, closed by :meth:`stop`."""
        kwargs.setdefault("auth_token", self.nodes[0].config.rpc_auth_token)
        return self._track(ThetacryptClient(self.members(), **kwargs))

    async def run_request(
        self, kind: str, key_id: str, data: bytes, label: bytes = b""
    ) -> list[bytes]:
        """Submit one request on every running node; their results."""
        return await asyncio.gather(
            *(node.run_request(kind, key_id, data, label) for node in self._live())
        )


def live_pids(pids: Iterable[int], grace: float = 0.0) -> list[int]:
    """The ``pids`` still alive after waiting up to ``grace`` seconds.

    The orphan check: processes exit asynchronously after their parent
    reaps them, so poll briefly before declaring a leak.
    """

    def alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:  # pragma: no cover - exists, owned elsewhere
            return True
        return True

    deadline = time.monotonic() + grace
    leaked = [pid for pid in pids if alive(pid)]
    while leaked and time.monotonic() < deadline:
        time.sleep(0.2)
        leaked = [pid for pid in leaked if alive(pid)]
    return leaked


class DaemonCluster(_Harness):
    """A Θ-network of real daemon processes, dealt into ``out``.

    ``keys`` are key ids (the scheme is the last ``/`` segment).  Without
    a ``topology`` this is one ``parties``-node group on ports
    ``base_port + i`` / ``rpc_base_port + i`` whose processes are named by
    node id.  With one, every topology group is dealt and spawned (named
    ``(group_id, node_id)``) plus a router named ``"router"`` on
    ``router_port`` (required then), and :meth:`client` talks to the
    router.
    ``daemon_args`` extend every node daemon's command line; ``data_dir``
    gives every node a durable data dir.
    """

    ROUTER = "router"

    def __init__(
        self,
        out: Path | str,
        keys: Sequence[str],
        parties: int = 4,
        threshold: int = 1,
        base_port: int = 17000,
        rpc_base_port: int = 18000,
        data_dir: bool = False,
        daemon_args: Sequence[str] = (),
        topology: "Topology | None" = None,
        router_port: int = 0,
    ):
        if topology is not None and not router_port:
            raise ValueError("a federation's router needs a fixed router_port")
        self.out = Path(out)
        self._deal = functools.partial(
            deal_deployment,
            self.out,
            list(keys),
            parties=parties,
            threshold=threshold,
            base_port=base_port,
            rpc_base_port=rpc_base_port,
            data_dir=data_dir,
            topology=topology,
        )
        self._topology = topology
        self._daemon_args = list(daemon_args)
        self._router_port = router_port
        self._commands: dict[Hashable, list[str]] = {}
        self._addresses: dict[Hashable, tuple[str, int]] = {}
        self._processes: dict[Hashable, subprocess.Popen] = {}
        #: Processes that ignored SIGTERM for TERM_TIMEOUT at :meth:`stop`.
        self.unclean: list[Hashable] = []
        self._env = dict(
            os.environ,
            PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""),
        )
        self._clients = []

    async def start(self) -> None:
        """Deal keys, spawn every process, and wait until each answers ping."""
        for group in self._deal():
            for config in group.configs:
                name = (
                    config.node_id
                    if group.group_id is None
                    else (group.group_id, config.node_id)
                )
                node_dir = group.directory / f"node{config.node_id}"
                self._commands[name] = [
                    sys.executable, "-m", "repro.service.daemon",
                    "--config", str(node_dir / "config.json"),
                    "--keystore", str(node_dir / "keystore.json"),
                    *self._daemon_args,
                ]
                self._addresses[name] = (config.rpc_host, config.rpc_port)
        if self._topology is not None:
            self._commands[self.ROUTER] = [
                sys.executable, "-m", "repro.router.daemon",
                "--topology", str(self.out / "topology.json"),
                "--rpc-port", str(self._router_port),
            ]
            self._addresses[self.ROUTER] = ("127.0.0.1", self._router_port)
        for name in self._commands:
            self._spawn(name)
        for name in self._commands:
            await self._wait_ready(name)

    def _spawn(self, name: Hashable) -> None:
        self._processes[name] = subprocess.Popen(
            self._commands[name],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=self._env,
        )

    async def _wait_ready(self, name: Hashable) -> None:
        probe = ThetacryptClient({0: self._addresses[name]})
        try:
            for _ in range(150):
                try:
                    await probe.call(0, "ping", {})
                    return
                except (OSError, RpcError):
                    await asyncio.sleep(0.2)
            raise AssertionError(f"daemon {name} never answered ping")
        finally:
            await probe.close()

    def kill(self, name: Hashable) -> None:
        """SIGKILL one process (no drain, no journal close) and reap it."""
        process = self._processes[name]
        process.kill()
        process.wait(timeout=TERM_TIMEOUT)

    async def restart(self, name: Hashable) -> None:
        """Start a :meth:`kill`-ed process again with the same command line
        (same config, keystore and data dir); wait until it answers ping."""
        self._spawn(name)
        await self._wait_ready(name)

    def client(self, **kwargs) -> ThetacryptClient:
        """A client of every node — or of the router, in a federation —
        closed by :meth:`stop`."""
        if self.ROUTER in self._addresses:
            addresses = {0: self._addresses[self.ROUTER]}
        else:
            addresses = dict(self._addresses)
        return self._track(ThetacryptClient(addresses, **kwargs))

    async def stop(self) -> None:
        """SIGTERM every live process; SIGKILL (and record in
        :attr:`unclean`) whatever has not exited after TERM_TIMEOUT."""
        await self._close_clients()
        running = {
            name: process
            for name, process in self._processes.items()
            if process.poll() is None
        }
        for process in running.values():
            process.terminate()
        deadline = time.monotonic() + TERM_TIMEOUT
        for name, process in running.items():
            try:
                process.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                self.unclean.append(name)
