"""The Thetacrypt node: service + core + network wired together.

"Each node runs a stateful Thetacrypt instance in a dedicated process.
Applications invoke the service at one node through a remote procedure call"
(§3.2).  The node derives deterministic instance ids from request content so
that all n nodes working on the same request converge on the same protocol
instance without extra coordination.
"""

from __future__ import annotations

import asyncio
import logging
from pathlib import Path

from ..core.messages import Channel
from ..core.orchestration import (
    InstanceManager,
    InstanceRecord,
    KeyManager,
    PrecomputeJob,
    PrecomputeService,
)
from ..core.orchestration.precompute import derive_instance_id
from ..core.protocols import (
    DkgProtocol,
    FrostPrecomputeProtocol,
    FrostProtocol,
    NonInteractiveProtocol,
    OperationRequest,
    make_operation,
)
from ..groups.registry import get_group
from ..errors import ConfigurationError, KeyManagementError, RpcError
from ..network.faults import FaultyNetwork
from ..network.interfaces import P2PNetwork
from ..network.local import LocalHub
from ..network.manager import NetworkManager
from ..network.tcp import TcpP2P
from ..schemes.base import SCHEME_TABLE, SchemeKind, get_scheme
from ..schemes.keystore import export_key_share
from ..serialization import hexlify
from ..storage import DurableKeystore, DurableResultCache, WriteAheadLog
from ..telemetry import (
    EventLoopLagSampler,
    MetricRegistry,
    MetricsHttpServer,
    StorageMetrics,
    default_registry,
    register_crypto_cache_collector,
    register_fixedbase_collector,
    register_math_backend_collector,
    render_text,
    summarize,
)
from ..workers import CryptoPool, host_pool
from .config import NodeConfig
from .server import RpcServer

logger = logging.getLogger(__name__)

# derive_instance_id moved to core.orchestration.precompute (the pool is
# keyed by it); re-exported here for its long-standing import path.
__all__ = ["ThetacryptNode", "derive_instance_id"]

#: Scheme kind → the protocol-API operation it serves.
_KIND_TO_OP = {"cipher": "decrypt", "signature": "sign", "coin": "coin"}


class ThetacryptNode:
    """One Θ-network member."""

    def __init__(
        self,
        config: NodeConfig,
        transport: P2PNetwork | None = None,
        tob=None,
        crypto_pool: CryptoPool | None = None,
    ):
        self.config = config
        # Durability (docs/robustness.md): with a data_dir the node owns a
        # crash-safe keystore snapshot, an instance-lifecycle journal, and
        # an idempotent-result cache; previously persisted key shares are
        # reloaded here, before install_key runs.
        self._keystore: DurableKeystore | None = None
        self._journal: WriteAheadLog | None = None
        self._results: DurableResultCache | None = None
        self._storage_metrics: StorageMetrics | None = None
        self._recovery: dict = {}
        self._table_store = None
        if config.data_dir is not None:
            data_dir = Path(config.data_dir)
            data_dir.mkdir(parents=True, exist_ok=True)
            self._keystore = DurableKeystore(data_dir / "keystore.bin")
            self._journal = WriteAheadLog(data_dir / "journal")
            self._results = DurableResultCache(data_dir / "results")
            # Fixed-base tables persist alongside the other durable state
            # (docs/performance.md, "Math backends"): a restart re-installs
            # them instead of rebuilding.
            from ..groups import TableStore

            self._table_store = TableStore(data_dir / "tables")
        self.keys = KeyManager(store=self._keystore)
        if transport is None:
            if config.transport != "tcp":
                raise ConfigurationError(
                    "non-tcp transports must be supplied explicitly "
                    "(e.g. a LocalHub endpoint)"
                )
            transport = TcpP2P(
                config.node_id,
                config.listen_host,
                config.listen_port,
                config.peer_map(),
            )
        if config.fault_plan is not None:
            # Chaos mode: the fault wrapper sits directly above the raw
            # transport, below the manager's channels and any gossip
            # overlay, so every wire frame passes through the plan.
            transport = FaultyNetwork(transport, config.fault_plan)
        # ``tob`` lets a host platform supply its own total-order channel
        # (the proxy deployment of Fig. 1); otherwise the node runs the
        # built-in sequencer TOB when enabled.
        self.network = NetworkManager(
            transport,
            enable_tob=config.enable_tob,
            sequencer_id=config.tob_sequencer,
            tob_block_interval=config.tob_block_interval,
            gossip_fanout=config.gossip_fanout,
            tob=tob,
        )
        # Per-node metric registry: keeps this node's request metrics
        # isolated when several nodes share one process; process-wide
        # instruments (transports, crypto caches) live in the default
        # registry and are merged into this node's exposition.
        self.registry = MetricRegistry()
        register_crypto_cache_collector(default_registry())
        register_fixedbase_collector(default_registry())
        register_math_backend_collector(default_registry())
        if config.data_dir is not None:
            self._storage_metrics = StorageMetrics(self.registry)
        # Crypto worker pool (docs/performance.md): an injected pool lets
        # several in-process nodes share one set of workers (they share
        # this host's cores anyway) and is always used; otherwise the node
        # owns a private pool sized by config.crypto_workers, built only
        # on a multi-core host.  Only an owned pool is closed in stop().
        if crypto_pool is not None:
            self.crypto_pool: CryptoPool | None = crypto_pool
            self._pool_reason = "injected"
        else:
            self.crypto_pool, self._pool_reason = host_pool(
                config.crypto_workers, registry=self.registry
            )
        self._owns_pool = self._pool_reason == "configured"
        # Event-loop lag heartbeat: the direct measure of how long inline
        # crypto blocks everything else on this node's loop.
        self._lag_sampler = EventLoopLagSampler(self.registry)
        self.instances = InstanceManager(
            config.node_id,
            self.network.dispatch,
            default_timeout=config.instance_timeout,
            registry=self.registry,
            journal=self._journal,
            results=self._results,
            max_pending=config.max_pending_instances,
            overload_retry_after=config.overload_retry_after,
            crypto_pool=self.crypto_pool,
        )
        self.network.set_protocol_handler(self.instances.handle_network_message)
        self.rpc = RpcServer(self, config.rpc_host, config.rpc_port)
        self._metrics_http: MetricsHttpServer | None = None
        if config.metrics_port is not None:
            self._metrics_http = MetricsHttpServer(
                self.render_metrics, config.rpc_host, config.metrics_port
            )
        # Precompute pipeline (docs/performance.md): per-(key, op) share
        # pools with background refill, consume-once journaling under
        # data_dir/precompute, and optional eager instance pipelining.
        # Always constructed — the kg20 nonce pools live in it — but the
        # announce/refill machinery only runs with config.precompute set.
        journal_dir = None
        if (
            config.data_dir is not None
            and config.precompute is not None
            and config.precompute.journal
        ):
            journal_dir = Path(config.data_dir) / "precompute"
        self._precompute = PrecomputeService(
            config.precompute,
            registry=self.registry,
            crypto_pool=self.crypto_pool,
            journal_dir=journal_dir,
            active_probe=lambda: self.instances.active_count,
            submit=self._pipeline_submit,
        )
        self._refresh_epochs: dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self._recover()
        self._load_tables()
        await self.network.start()
        await self.rpc.start()
        if self._metrics_http is not None:
            await self._metrics_http.start()
        self._lag_sampler.start()
        self._precompute.start()

    def _recover(self) -> None:
        """Crash recovery from ``data_dir`` (no-op for memory-only nodes).

        Three steps, in order: (1) finalized results come back from the
        durable cache so duplicate requests are answered without re-running
        the protocol; (2) the journal is replayed — any instance submitted
        but never finalized/aborted was in flight when the process died and
        is marked aborted with reason ``crash_recovery``; (3) the journal
        is compacted away (its history is now folded into the restored
        records, and replaying it twice would be wrong).
        """
        if self._journal is None:
            return
        restored_results = 0
        if self._results is not None:
            for instance_id, scheme, result in self._results.items():
                self.instances.restore_finished(instance_id, scheme, result)
                restored_results += 1
        submitted: dict[str, str] = {}
        terminal: set[str] = set()
        for event in self._journal.replay():
            kind = event.get("event")
            instance_id = event.get("id", "")
            if kind == "submitted":
                submitted[instance_id] = event.get("scheme", "unknown")
            elif kind in ("finalized", "aborted"):
                terminal.add(instance_id)
        in_flight = [
            (instance_id, scheme)
            for instance_id, scheme in submitted.items()
            if instance_id not in terminal
            and self._results is not None
            and instance_id not in self._results
        ]
        for instance_id, scheme in in_flight:
            self.instances.restore_aborted(instance_id, scheme, "crash_recovery")
        self._journal.reset()
        self._recovery = {
            "keys": len(self.keys),
            "results": restored_results,
            "aborted": len(in_flight),
        }
        if self._storage_metrics is not None:
            self._storage_metrics.recoveries.inc()
            self._storage_metrics.recovered_keys.set(len(self.keys))
            self._storage_metrics.recovered_instances.labels("finalized").inc(
                restored_results
            )
            self._storage_metrics.recovered_instances.labels("aborted").inc(
                len(in_flight)
            )
        if restored_results or in_flight:
            logger.info(
                "node %d recovered: %d keys, %d cached results, "
                "%d in-flight instances aborted (crash_recovery)",
                self.config.node_id,
                len(self.keys),
                restored_results,
                len(in_flight),
            )

    def _load_tables(self) -> None:
        """Install persisted fixed-base tables (no-op without a data_dir).

        Loaded tables land in the shared precompute cache (counted as
        ``loads``, not ``tables_built``) and are registered with the blob
        store so pool workers spawned later warm-start from the same
        serialized bytes.  Corrupted or version-bumped files were already
        discarded by ``TableStore.load_all``; the cache simply rebuilds
        those bases on demand.
        """
        if self._table_store is None:
            return
        from ..groups import install_table, table_blob
        from ..workers.blobs import register_table_blob

        loaded, discarded = self._table_store.load_all()
        for table in loaded:
            install_table(table)
            register_table_blob(table_blob(table))
        self._recovery["tables_loaded"] = len(loaded)
        self._recovery["tables_discarded"] = discarded
        if loaded or discarded:
            logger.info(
                "node %d installed %d persisted fixed-base tables "
                "(%d discarded)",
                self.config.node_id,
                len(loaded),
                discarded,
            )

    def _persist_tables(self) -> None:
        """Write the cache's current tables to disk (stop-time flush)."""
        if self._table_store is None:
            return
        from ..groups import snapshot_tables

        try:
            written = self._table_store.save_all(snapshot_tables())
        except Exception:  # noqa: BLE001 - persistence is best-effort
            logger.warning(
                "node %d failed to persist fixed-base tables",
                self.config.node_id,
                exc_info=True,
            )
            return
        if written:
            logger.info(
                "node %d persisted %d fixed-base tables",
                self.config.node_id,
                written,
            )

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait (bounded) for in-flight instances to terminate.

        Graceful-shutdown hook: returns True when the node went idle
        within ``timeout`` seconds (default ``config.drain_timeout``),
        False if instances were still pending when the budget ran out.
        """
        budget = timeout if timeout is not None else self.config.drain_timeout
        loop = asyncio.get_running_loop()
        deadline = loop.time() + budget
        while self.instances.active_count > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        return self.instances.active_count == 0

    async def stop(self) -> None:
        await self._lag_sampler.stop()
        # Refill/eager tasks submit instances: stop them before the
        # instance manager shuts down (also flushes + closes the pool
        # journal, so every consumption taken so far is durable).
        await self._precompute.stop()
        if self._metrics_http is not None:
            await self._metrics_http.stop()
        await self.rpc.stop()
        try:
            await self.instances.shutdown()
            await self.network.stop()
        finally:
            # The pool owns real child processes: join them even when the
            # teardown above fails, or a SIGTERM'd daemon would leave
            # orphaned workers behind.  Injected pools belong to whoever
            # injected them (several nodes may share one).
            if self._owns_pool:
                await self.crypto_pool.close()
            # Flush + close durable state last: executor completions above
            # may still append terminal journal records.
            if self._journal is not None:
                self._journal.close()
            if self._results is not None:
                self._results.close()
            # Persist whatever tables this run promoted, so the next boot
            # starts warm (tables are deterministic; crash-skipping this
            # flush only costs a rebuild).
            self._persist_tables()

    @property
    def rpc_address(self) -> tuple[str, int]:
        return self.rpc.address

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """Host/port of the HTTP scrape endpoint (None when disabled)."""
        if self._metrics_http is None:
            return None
        return self._metrics_http.address

    def render_metrics(self) -> str:
        """This node's Prometheus text exposition (own + process metrics)."""
        return render_text(self.registry, default_registry())

    # -- key installation --------------------------------------------------------

    def install_key(
        self, key_id: str, scheme: str, public_key, key_share
    ) -> None:
        """Register dealer output for this node (done before start).

        Idempotent for *identical* material: a durable node restarting
        from its ``data_dir`` already holds the shares its keystore file
        describes, so re-installing the same dealer output is a no-op —
        but installing *different* material under a held id stays an
        error (silently replacing a key share would be a custody bug).
        """
        if key_id in self.keys:
            existing = self.keys.get(key_id)
            same = existing.scheme == scheme and export_key_share(
                scheme, existing.key_share
            ) == export_key_share(scheme, key_share)
            if same:
                return
            raise KeyManagementError(
                f"key id {key_id!r} already installed with different material"
            )
        self.keys.register(key_id, scheme, public_key, key_share)

    # -- key lookup / federation redirects -------------------------------------

    def owns_key(self, key_id: str) -> bool:
        """Cheap ownership check (dict containment) for the router tier."""
        return key_id in self.keys

    def lookup_key(self, key_id: str):
        """Key entry, or a fail-fast ``wrong_group`` redirect when federated.

        A node that knows the federation topology answers a misrouted
        request immediately with the owning group and its member
        endpoints in the structured error payload, instead of the opaque
        unknown-key failure — the router/client follows the hint and
        retries there.  Keys this group *should* own but was never dealt
        still raise ``KeyManagementError``.
        """
        if key_id in self.keys:
            return self.keys.get(key_id)
        topology = self.config.topology
        if topology is not None and self.config.group_id:
            owner = topology.owner_of(key_id)
            if owner != self.config.group_id:
                spec = topology.group(owner)
                raise RpcError(
                    f"key {key_id!r} belongs to group {owner!r}, not "
                    f"{self.config.group_id!r}",
                    reason="wrong_group",
                    details={
                        "key_id": key_id,
                        "group": owner,
                        "endpoints": [
                            [node_id, host, port]
                            for node_id, (host, port) in sorted(
                                spec.rpc_endpoints().items()
                            )
                        ],
                        "requested_group": self.config.group_id,
                    },
                )
        return self.keys.get(key_id)  # KeyManagementError for unknown ids

    # -- protocol API ----------------------------------------------------------

    def _channel_for(self, scheme: str) -> Channel:
        # Interactive protocols synchronise their rounds over TOB when the
        # deployment has one (§3.6); non-interactive schemes use plain P2P.
        if SCHEME_TABLE[scheme].rounds > 1 and self.network.has_tob:
            return Channel.TOB
        return Channel.P2P

    def submit_request(
        self,
        kind: str,
        key_id: str,
        data: bytes,
        label: bytes = b"",
        _pipeline: bool = False,
    ) -> InstanceRecord:
        """Start (idempotently) the protocol instance for a request.

        Precomputed material staged for this exact request (same
        deterministic instance id) is consumed here — once, ever — and
        installed on the protocol via the TRI precompute hooks; the
        executor then skips the first round's crypto.  ``_pipeline``
        marks the pipeline's own eager submissions, which consume pool
        entries but are not client-visible requests (no served counter).
        """
        entry = self.lookup_key(key_id)
        instance_id = derive_instance_id(kind, key_id, data, label)
        source = "inline"
        if entry.scheme == "kg20":
            if kind != "sign":
                raise RpcError("kg20 keys only support signing")
            protocol = FrostProtocol(
                instance_id,
                entry.key_share,
                data,
                channel=self._channel_for("kg20"),
            )
            staged = self._precompute.take_frost(key_id)
            if staged is not None:
                protocol.stage_precomputed(staged)
                source = "pool"
        else:
            operation = make_operation(
                entry.scheme,
                entry.public_key,
                entry.key_share,
                OperationRequest(kind, data, label),
            )
            protocol = NonInteractiveProtocol(
                instance_id,
                self.config.node_id,
                operation,
                channel=self._channel_for(entry.scheme),
            )
            payload = self._precompute.take(instance_id)
            if payload is not None:
                protocol.stage_precomputed(payload)
                source = "pool"
            elif self._precompute.was_pipelined(instance_id):
                # The announce already ran (or finished) this instance
                # ahead of demand; the request folds into it below.
                source = "pool"
        record = self.instances.start_instance(protocol, entry.scheme)
        if self._precompute.enabled and not _pipeline:
            self._precompute.record_served(kind, source)
        return record

    def _pipeline_submit(self, kind: str, key_id: str, data: bytes, label: bytes):
        """Eager-start callback for the precompute service: submit the
        announced request's instance now and hand back its result
        awaitable (the service tracks completion for pacing)."""
        record = self.submit_request(kind, key_id, data, label, _pipeline=True)
        return self.instances.result(record.instance_id)

    async def run_request(
        self, kind: str, key_id: str, data: bytes, label: bytes = b""
    ) -> bytes:
        """Submit a request and await its result."""
        record = self.submit_request(kind, key_id, data, label)
        return await self.instances.result(record.instance_id)

    async def precompute_frost(self, key_id: str, count: int) -> int:
        """Run the FROST preprocessing round, filling this key's nonce pool."""
        entry = self.lookup_key(key_id)
        if entry.scheme != "kg20":
            raise RpcError("precomputation only applies to kg20 keys")
        pool = self._precompute.frost_pool(key_id)
        instance_id = derive_instance_id(
            "frost-pre", key_id, count.to_bytes(4, "big")
        )
        protocol = FrostPrecomputeProtocol(
            instance_id,
            entry.key_share,
            count,
            pool,
            channel=self._channel_for("kg20"),
        )
        record = self.instances.start_instance(protocol, "kg20")
        await self.instances.result(record.instance_id)
        self._precompute.note_frost_depth(key_id)
        return pool.available

    async def precompute_requests(
        self, key_id: str, items: list[bytes], label: bytes = b""
    ) -> dict:
        """Announce upcoming requests; stage their shares ahead of demand.

        Every node must receive the same announce (the client broadcasts
        it) so all pools hold material for the same instance ids.  Returns
        the staging tally (``staged`` / ``duplicate`` / ``deferred`` /
        ``failed`` counts plus per-pool depths).
        """
        entry = self.lookup_key(key_id)
        if entry.scheme == "kg20":
            raise RpcError(
                "kg20 precomputes nonce batches: call precompute with "
                "count=N, not items",
                reason="precompute_kind",
            )
        if not self._precompute.enabled:
            raise RpcError(
                "precompute pipeline disabled on this node (set "
                "NodeConfig.precompute / --precompute-depth)",
                reason="precompute_disabled",
            )
        kind = _KIND_TO_OP[entry.kind]
        jobs = []
        for data in items:
            # Bind per-item via default args; the factory runs in the
            # refill loop (announce handling must stay cheap, the
            # operation construction parses ciphertexts).
            def build(data=data, entry=entry):
                return make_operation(
                    entry.scheme,
                    entry.public_key,
                    entry.key_share,
                    OperationRequest(kind, data, label),
                )

            jobs.append(
                PrecomputeJob(
                    instance_id=derive_instance_id(kind, key_id, data, label),
                    key_id=key_id,
                    kind=kind,
                    data=data,
                    label=label,
                    operation_factory=build,
                    scheme=entry.scheme,
                )
            )
        return await self._precompute.warm(jobs)

    async def run_dkg(
        self, key_id: str, scheme: str = "cks05", group_name: str = "ed25519"
    ) -> str:
        """Generate a key *without a dealer* and install it under ``key_id``.

        All nodes must call this with the same arguments (the instance id is
        derived from them).  The Joint-Feldman output has the shape
        ``(Y = g^x, Y_i = g^{x_i})``, which is exactly the key material of
        the discrete-log schemes; supported targets: cks05, sg02, kg20.
        Returns the hex group public key.
        """
        from ..schemes import cks05 as cks05_mod
        from ..schemes import kg20 as kg20_mod
        from ..schemes import sg02 as sg02_mod

        key_types = {
            "cks05": (cks05_mod.Cks05PublicKey, cks05_mod.Cks05KeyShare),
            "sg02": (sg02_mod.Sg02PublicKey, sg02_mod.Sg02KeyShare),
            "kg20": (kg20_mod.Kg20PublicKey, kg20_mod.Kg20KeyShare),
        }
        if scheme not in key_types:
            raise RpcError(
                f"DKG output fits DL schemes only ({sorted(key_types)}), "
                f"not {scheme!r}"
            )
        if key_id in self.keys:
            raise RpcError(f"key id {key_id!r} already installed")
        group = get_group(group_name)
        instance_id = derive_instance_id(
            "dkg", key_id, group_name.encode(), scheme.encode()
        )
        protocol = DkgProtocol(
            instance_id,
            self.config.node_id,
            self.config.threshold,
            self.config.parties,
            group,
        )
        record = self.instances.start_instance(protocol, scheme)
        await self.instances.result(record.instance_id)
        result = protocol.result
        public_cls, share_cls = key_types[scheme]
        public = public_cls(
            group_name,
            self.config.threshold,
            self.config.parties,
            result.group_key,
            tuple(result.verification_keys),
        )
        share = share_cls(self.config.node_id, result.key_share, public)
        self.install_key(key_id, scheme, public, share)
        return hexlify(result.group_key.to_bytes())

    async def refresh_key(self, key_id: str) -> str:
        """Proactively refresh an installed DL key's shares (same public key).

        All nodes must call this with the same ``key_id``.  The first t+1
        nodes re-deal; every node ends up with a fresh share of the same
        secret, and the entry in the key manager is swapped atomically once
        the protocol finishes.  Returns the (unchanged) group key in hex.
        """
        from ..core.protocols import ReshareProtocol

        entry = self.lookup_key(key_id)
        if entry.scheme not in ("cks05", "sg02", "kg20"):
            raise RpcError(
                f"refresh supports the DL schemes, not {entry.scheme!r}"
            )
        public = entry.public_key
        # The group key attribute is `h` for ciphers/coins, `y` for kg20.
        current_key = getattr(public, "h", None) or public.y
        # Epoch counter makes repeated refreshes of the same key distinct.
        epoch = self._refresh_epochs.get(key_id, 0) + 1
        self._refresh_epochs[key_id] = epoch
        instance_id = derive_instance_id(
            "refresh", key_id, epoch.to_bytes(4, "big")
        )
        protocol = ReshareProtocol(
            instance_id,
            self.config.node_id,
            public.threshold,
            public.parties,
            public.group,
            entry.key_share.value,
        )
        record = self.instances.start_instance(protocol, entry.scheme)
        await self.instances.result(record.instance_id)
        result = protocol.result
        if result.group_key != current_key:
            raise RpcError("refresh produced a different group key; aborting swap")
        new_public = type(public)(
            public.group_name,
            public.threshold,
            public.parties,
            result.group_key,
            tuple(result.verification_keys),
        )
        new_share = type(entry.key_share)(
            self.config.node_id, result.share_value, new_public
        )
        self.keys.remove(key_id)
        self.keys.register(key_id, entry.scheme, new_public, new_share)
        return hexlify(result.group_key.to_bytes())

    # -- scheme API (direct primitive access) ----------------------------------

    def scheme_encrypt(self, key_id: str, plaintext: bytes, label: bytes) -> bytes:
        entry = self.lookup_key(key_id)
        scheme = get_scheme(entry.scheme)
        if SCHEME_TABLE[entry.scheme].kind is not SchemeKind.CIPHER:
            raise RpcError(f"key {key_id!r} is not a cipher key")
        return scheme.encrypt(entry.public_key, plaintext, label).to_bytes()

    def scheme_verify_signature(
        self, key_id: str, message: bytes, signature: bytes
    ) -> bool:
        from ..schemes import bls04, kg20, sh00

        entry = self.lookup_key(key_id)
        scheme = get_scheme(entry.scheme)
        try:
            if entry.scheme == "sh00":
                sig = sh00.Sh00Signature.from_bytes(signature)
            elif entry.scheme == "bls04":
                sig = bls04.Bls04Signature.from_bytes(signature)
            elif entry.scheme == "kg20":
                sig = kg20.Kg20Signature.from_bytes(
                    signature, entry.public_key.group
                )
            else:
                raise RpcError(f"key {key_id!r} is not a signature key")
            scheme.verify(entry.public_key, message, sig)
            return True
        except RpcError:
            raise
        except Exception:  # noqa: BLE001 - verification is a boolean question
            return False

    def stats(self) -> dict:
        """Health/utilization snapshot: instance counts, latency summary, and
        crypto precompute-cache counters (see docs/observability.md).

        The latency digest is backed by the telemetry histogram
        (``repro_instance_seconds``), which keeps exact samples: p50 is a
        true interpolated median (the old ``latencies[len//2]`` was wrong
        for even counts) and p95/p99 come from the same source Prometheus
        scrapes — one coherent view with the ``metrics`` endpoint.
        """
        from ..mathutils.backends import backend_info
        from ..telemetry import crypto_cache_snapshot

        records = self.instances.records()
        by_status: dict[str, int] = {}
        aborts: dict[str, int] = {}
        for record in records:
            by_status[record.status.value] = by_status.get(record.status.value, 0) + 1
            if record.abort_reason is not None:
                aborts[record.abort_reason] = aborts.get(record.abort_reason, 0) + 1
        return {
            "node_id": self.config.node_id,
            "instances": by_status,
            "active": self.instances.active_count,
            "keys": len(self.keys),
            # Structured failure taxonomy (docs/robustness.md): how many
            # instances aborted per reason (timeout / insufficient_shares /
            # byzantine_detected / crash_recovery / ...).
            "aborts": aborts,
            # What the last start() recovered from data_dir (empty for
            # memory-only nodes and for clean first boots).
            "recovery": dict(self._recovery),
            "latency": dict(summarize(self.registry.get("repro_instance_seconds"))),
            "crypto_cache": crypto_cache_snapshot(),
            # Which math backend this process computes with (docs/
            # performance.md, "Math backends").
            "crypto_backend": backend_info(),
            # Worker-pool offload state (docs/performance.md): why the
            # node has a pool or not, task counters, spills, fallbacks,
            # crashes, and live worker pids.
            "crypto_pool": self._pool_stats(),
            # Precompute pipeline (docs/performance.md): per-pool staged
            # depths, refill queue/outcomes, served-source counters, and
            # kg20 nonce availability.
            "precompute": self._precompute.stats(),
            # Scheduling-delay digest from the heartbeat histogram: the
            # before/after metric for moving crypto off the event loop.
            "event_loop_lag": dict(
                summarize(self.registry.get("repro_event_loop_lag_seconds"))
            ),
        }

    def _pool_stats(self) -> dict:
        if self.crypto_pool is None:
            return {"enabled": False, "workers": 0, "reason": self._pool_reason}
        return {**self.crypto_pool.stats(), "reason": self._pool_reason}

    def key_info(self) -> list[dict]:
        return [
            {
                "key_id": entry.key_id,
                "scheme": entry.scheme,
                "kind": entry.kind,
                "threshold": entry.public_key.threshold,
                "parties": entry.public_key.parties,
                "public_key": hexlify(entry.public_key.to_bytes()),
            }
            for entry in self.keys.list_keys()
        ]
