"""Run a Thetacrypt node as a standalone process.

The real-deployment entry point: one process per Θ-network member, TCP
transport between them, keys loaded from a keystore file produced by
``tools/deal_keys.py``::

    python3 -m repro.service.daemon --config node1/config.json \
                                    --keystore node1/keystore.json

The process serves RPC until SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import signal
from dataclasses import replace

from ..core.orchestration.precompute import PrecomputeConfig
from ..schemes.keystore import keystore_from_json
from .config import NodeConfig
from .node import ThetacryptNode

logger = logging.getLogger("repro.daemon")


def load_node(
    config_path: str,
    keystore_path: str,
    crypto_workers: int | None = None,
    precompute_depth: int | None = None,
) -> ThetacryptNode:
    """Build a node from its on-disk configuration and keystore.

    With a ``data_dir`` in the config, the node may already hold (durable)
    keys from a previous life; re-installing identical dealer output is a
    no-op (``install_key`` is idempotent for identical material).
    ``crypto_workers`` / ``precompute_depth`` override the config's pool
    sizing and precompute pipeline (the matching CLI flags).
    """
    with open(config_path) as handle:
        config = NodeConfig.from_json(handle.read())
    if crypto_workers is not None:
        config = replace(config, crypto_workers=crypto_workers)
    if precompute_depth is not None:
        config = replace(
            config,
            precompute=(
                PrecomputeConfig(depth=precompute_depth)
                if precompute_depth > 0
                else None
            ),
        )
    node = ThetacryptNode(config)
    with open(keystore_path) as handle:
        shares = keystore_from_json(handle.read())
    for key_id, (scheme, share) in shares.items():
        node.install_key(key_id, scheme, share.public, share)
    return node


async def run_until_signal(
    node: ThetacryptNode, drain_timeout: float | None = None
) -> None:
    """Start the node and serve until SIGINT/SIGTERM.

    Graceful shutdown: on signal the daemon first *drains* — waits up to
    the configured timeout for in-flight instances to terminate (their
    results then land in the durable cache and the journal carries their
    terminal records) — and only then tears down RPC, transports, and the
    storage handles.  Instances still pending when the budget runs out are
    recovered as ``crash_recovery`` aborts on the next boot.
    """
    await node.start()
    host, port = node.rpc_address
    logger.info(
        "node %d up: rpc on %s:%d, %d keys installed",
        node.config.node_id,
        host,
        port,
        len(node.keys),
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX platforms
            pass
    await stop.wait()
    budget = drain_timeout if drain_timeout is not None else node.config.drain_timeout
    logger.info(
        "shutting down node %d (draining up to %.1fs)",
        node.config.node_id,
        budget,
    )
    drained = await node.drain(budget)
    if not drained:
        logger.warning(
            "node %d: %d instances still in flight after drain timeout",
            node.config.node_id,
            node.instances.active_count,
        )
    await node.stop()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Run one Thetacrypt node")
    parser.add_argument("--config", required=True, help="NodeConfig JSON file")
    parser.add_argument("--keystore", required=True, help="keystore JSON file")
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        help="seconds to wait for in-flight instances on shutdown "
        "(default: the config's drain_timeout)",
    )
    parser.add_argument(
        "--crypto-workers",
        type=int,
        default=None,
        help="worker processes for the crypto pool, overriding the "
        "config's crypto_workers (0 runs all crypto inline, as does a "
        "1-core host)",
    )
    parser.add_argument(
        "--precompute-depth",
        type=int,
        default=None,
        help="enable the precompute pipeline with this per-(key, op) pool "
        "depth, overriding the config's precompute section (0 disables "
        "the pipeline)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    node = load_node(
        args.config,
        args.keystore,
        crypto_workers=args.crypto_workers,
        precompute_depth=args.precompute_depth,
    )
    asyncio.run(run_until_signal(node, drain_timeout=args.drain_timeout))


if __name__ == "__main__":
    main()
